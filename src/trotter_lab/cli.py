"""Batch experiment driver with CSV/JSON reports.

Every command emits rows with the fixed columns
{command, potential, n, value, lower, upper, argmax_t, argmax_s, verdict};
JSON output mirrors them under {"meta": ..., "rows": [...]}.  Summary rows
(slope fits, floors) use n = 0 and are written after the per-n rows, which
are sorted by n.  A sweep of fewer than 4 points has no fit row and no
verdict, nor has one with some but fewer than 4 values above the fit's
zero threshold, which warns.  Reports are deterministic for a fixed seed
except for the generated_at timestamp (CSV: first comment line; JSON: meta
field).

Exit codes: 0 success, 2 argument/spec errors, 3 search budget exhausted
(every command but `lie` searches, and still writes the rows of the n values
searched so far, the last one partial if its search probed any point,
flagged in the meta).  Warnings print as `warning: ...`.

Potential shorthands are plain text syntax over `potentials.from_spec`,
which owns every parameter rule: the CLI and spec files accept the same
kind names, aliases and parameters, and no flag fills in a parameter.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from functools import cache, partial

import numpy as np

from . import __version__
from .errors import BudgetExceededError, TrotterLabError
from .matrix_lie import _draw_pair, lie_error, telescoping_residual
from .potentials import Potential, build_cantor, from_spec
from .rates import ZERO_THRESHOLD, RateFit, fit_loglog
from .semigroup import (GridFunction, _check_m, operator_norm_oracle,
                        per_tau_operator_norm, strong_convergence_curve)
from .sup_search import (SearchConfig, SearchReport, coarse_lattice,
                         sup_riemann_error, sup_symbol)

COLUMNS = ("command", "potential", "n", "value", "lower", "upper",
           "argmax_t", "argmax_s", "verdict")


# ---------------------------------------------------------------- parsing

def _int_list(text: str, expand) -> list[int]:
    """'a..b' through expand(a, b), else a comma list; either way checked to
    be non-empty, >= 1 and strictly increasing."""
    text = text.strip()
    if ".." in text:
        a, b = text.split("..", 1)
        values = expand(int(a), int(b))
    else:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"{text!r} lists no values")
    if values[0] < 1:
        raise ValueError(f"{text!r}: values must be >= 1")
    if any(lo >= hi for lo, hi in zip(values, values[1:])):
        raise ValueError(f"{text!r}: values must strictly increase")
    return values


def _powers_of_two(a: int, b: int) -> list[int]:
    if min(a, b) < 1 or a & (a - 1) or b & (b - 1):
        raise ValueError("range endpoints must both be powers of two")
    return [1 << k for k in range(a.bit_length() - 1, b.bit_length())]


def parse_n_list(text: str) -> list[int]:
    """An n list: 'a..b' = the powers of two from a to b, or 'n1,n2,...'."""
    return _int_list(text, _powers_of_two)


def parse_int_range(text: str) -> list[int]:
    """An integer list: 'a..b' = every integer from a to b, or 'i1,i2,...'."""
    return _int_list(text, lambda a, b: list(range(a, b + 1)))


def _at_least_one(conv):
    """argparse type: conv(text), which must be finite and >= 1."""
    def parse(text: str):
        try:
            value = conv(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {conv.__name__} value: {text!r}") from None
        if not 1 <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be >= 1 and finite, got {value}")
        return value
    return parse


_positive_int = _at_least_one(int)


def _parse_kv(rest: str) -> dict[str, str]:
    out = {}
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def parse_potential(text: str) -> Potential:
    """Resolve a potential from shorthand or a @file.json spec.

    Shorthands: 'constant[:c=1]', 'linear[:slope=1,intercept=0]',
    'weier:beta=0.5,levels=12', 'cantor:depth=3', 'tent:harmonic=12',
    'tent:amplitudes=1+0.5+0.25', 'pw:breakpoints=0+1/2+1,values=1+0'.
    'name:k=v,...' becomes from_spec's kind and params, with '+' splitting
    list values; from_spec checks the name and every parameter.
    """
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return from_spec(json.load(fh))
    name, _, rest = text.partition(":")
    params: dict = _parse_kv(rest)
    for key in ("amplitudes", "breakpoints", "values"):  # '+' lists
        if key in params:
            params[key] = params[key].split("+")
    return from_spec({"kind": name.strip(), "params": params})


# ---------------------------------------------------------------- output

def _row(command: str, potential: str, n: int, value=None, lower=None,
         upper=None, argmax_t=None, argmax_s=None, verdict: str = "") -> dict:
    return {"command": command, "potential": potential, "n": n,
            "value": value, "lower": lower, "upper": upper,
            "argmax_t": argmax_t, "argmax_s": argmax_s, "verdict": verdict}


def _sort_rows(rows: list[dict]) -> list[dict]:
    data = sorted((r for r in rows if r["n"]), key=lambda r: (r["n"], r["command"]))
    summary = [r for r in rows if not r["n"]]
    return data + summary


def write_report(path: str | None, fmt: str, meta: dict, rows: list[dict]) -> None:
    rows = _sort_rows(rows)
    stamp = datetime.now(timezone.utc).isoformat()
    if fmt == "json":
        payload = {"meta": {"generated_at": stamp, **meta}, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# generated_at={stamp}\n")
        for key in sorted(meta):
            buf.write(f"# {key}={meta[key]}\n")
        writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: ("" if r[k] is None else r[k]) for k in COLUMNS})
        text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _searches(q: Potential, ns: list[int], args, search
              ) -> tuple[list[SearchReport], bool]:
    """(reports, exhausted): ``search`` per n, sharing one lazy
    `coarse_lattice`, each with its own budget, up to the first exhausted
    one, whose partial report ends the list if that search probed
    anything."""
    cfg = SearchConfig(coarse_grid=args.grid, refine_levels=args.refine,
                       max_evals=args.max_evals)
    lattice = cache(partial(coarse_lattice, q, ns, cfg))
    results = []
    try:
        for n in ns:
            results.append(search(q, n, cfg, lattice=lattice))
    except BudgetExceededError as exc:
        if exc.partial is not None:
            results.append(exc.partial)
        return results, True
    return results, False


def _report_row(command: str, label: str, q: Potential, rep: SearchReport,
                verdict: str = "") -> dict:
    """The row of one search: its value, which is its own lower end, the
    certified upper end and the argmax."""
    return _row(command, label, rep.n, rep.value, rep.value,
                q.certified_upper_bound(rep.n), rep.argmax.t, rep.argmax.s,
                verdict)


def _fit(points: list, meta: dict) -> RateFit | None:
    """The log-log fit of a sweep of at least 4 points, whose verdict
    becomes the report's; None below 4 points, and with a warning where
    some but fewer than 4 values lie above the zero threshold."""
    if len(points) < 4:
        return None
    usable = sum(v > ZERO_THRESHOLD for _, v in points)
    if 0 < usable < 4:
        print(f"warning: no rate fit: only {usable} of {len(points)} values "
              f"above {ZERO_THRESHOLD:g}", file=sys.stderr)
        return None
    fit = fit_loglog(points)
    meta["verdict"] = fit.verdict_label
    return fit


def _fit_rows(command: str, label: str, points: list, meta: dict
              ) -> list[dict]:
    """The row of the sweep's `_fit`, if any."""
    fit = _fit(points, meta)
    if fit is None:
        return []
    return [_row(command, label, 0, fit.slope, fit.slope - fit.slope_ci,
                 fit.slope + fit.slope_ci, verdict=fit.verdict_label)]


def _finish(args, meta: dict, rows: list[dict], exhausted: bool) -> int:
    """Write the report, flagged if a search ran out of budget; exit code."""
    meta.update(command=args.command, seed=args.seed, tool_version=__version__)
    if exhausted:
        meta["budget_exhausted"] = True
    write_report(args.output, args.format, meta, rows)
    return 3 if exhausted else 0


# ---------------------------------------------------------------- commands

def cmd_rates(args) -> int:
    q = parse_potential(args.potential)
    ns = parse_n_list(args.n)
    label = q.describe()
    meta = {"potential": label, "n_list": ns}
    reports, exhausted = _searches(q, ns, args, sup_riemann_error)
    rows = []
    for rep in reports:
        verdict = ""
        if q.holder_meta:
            verdict = ("HOLDER_OK" if rep.value <= q.holder_meta.error_bound(rep.n)
                       else "HOLDER_VIOLATION")
        rows.append(_report_row("rates", label, q, rep, verdict))
    rows += _fit_rows("rates/fit", label,
                      [(rep.n, rep.value) for rep in reports], meta)
    return _finish(args, meta, rows, exhausted)


def cmd_cantor(args) -> int:
    q, cons = build_cantor(args.depth)
    ms = parse_int_range(args.m) if args.m else list(range(1, args.depth + 1))
    label = q.describe()
    meta = {"potential": label, "depth": args.depth,
            "complement_measure": str(cons.complement_measure),
            "integral": float(q.antiderivative(1.0)),
            "open_intervals": len(cons.merged_open_set)}
    if args.format == "json":
        meta["merged_open_set"] = [[str(lo), str(hi)]
                                   for lo, hi in cons.merged_open_set]
    rows: list[dict] = []
    reports, exhausted = _searches(q, [2 ** m for m in ms], args,
                                   sup_riemann_error)
    for m, rep in zip(ms, reports):
        # the floor holds for m <= depth; beyond it the finite step function's
        # error falls like 1/n and no floor is claimed
        floor = float(cons.complement_measure) - 2.0 * q.corner_width(m)
        verdict = ("NO_FLOOR" if m > args.depth else
                   "FLOOR_OK" if rep.value >= floor else "FLOOR_MISS")
        rows.append(_report_row("cantor", label, q, rep, verdict))
    fit = _fit([(rep.n, rep.value) for rep in reports], meta)
    if fit is not None:
        rows.append(_row("cantor/fit", label, 0, min(rep.value for rep in reports),
                         verdict=fit.verdict_label))
    return _finish(args, meta, rows, exhausted)


def _probe_tau(tau_star: float, n: int, m: int) -> float:
    """The largest multiple of n/m (where the shifts align) at most tau_star
    and below 1, at least n/m; tau_star when none lies in (0, 1)."""
    last = (m - 1) // n  # the largest j with j n/m < 1
    j = min(max(math.floor(tau_star * m / n), 1), last)
    return j * n / m if last else tau_star


def cmd_oracle(args) -> int:
    q = parse_potential(args.potential)
    ns = parse_n_list(args.n)
    label = q.describe()
    meta = {"potential": label, "n_list": ns, "m": args.m, "p": args.p}
    _check_m(args.m)  # before the searches: the oracle's grids follow them
    rows: list[dict] = []
    symbols, exhausted = _searches(q, ns, args, sup_symbol)
    for n, rep in zip(ns, symbols):
        # the symbol max is itself a lower bound on the operator-norm
        # error: only the certified upper end checks it
        verdict = ("OUTSIDE" if rep.value > q.certified_upper_bound(n) + 1e-3
                   else "CONTAINED")
        rows.append(_report_row("oracle/symbol", label, q, rep, verdict))
        # compared with the per-tau symbol at the probe's tau, not the max
        tau = _probe_tau(rep.argmax.width, n, args.m)
        probe = operator_norm_oracle(q, tau, n, args.p, m=args.m)
        norm = per_tau_operator_norm(q, tau, n)
        low, high = 0.95 * norm, norm + 2.0 * q.sup_norm / args.m
        # m <= n: no tau in (0, 1) aligns the shifts, nothing to compare
        verdict = ("UNALIGNED" if args.m <= n else "ABOVE" if probe > high
                   else "REACHED" if probe >= low - 1e-12 else "SHORT")
        rows.append(_row("oracle/probe", label, n, probe, low, high,
                         tau, None, verdict))
    return _finish(args, meta, rows, exhausted)


def cmd_lie(args) -> int:
    ns = parse_n_list(args.n)
    label = f"matrix-pair(dim={args.dim},norm={args.norm_bound},seed={args.seed})"
    meta = {"dim": args.dim, "norm_bound": args.norm_bound,
            "pairs": args.trials, "n_list": ns}
    worst = 0.0
    worst_scale = 0.0
    for k in range(args.trials):
        A, B, norm_a, norm_b = _draw_pair(args.dim, args.norm_bound, args.seed + k)
        if k == 0:
            first = A, B
        res = telescoping_residual(A, B, tau=1.0, n=8)
        # the drawn target norms equal the true ones up to roundoff, so
        # this scale is e^{||A|| + ||B||} without a second norm per matrix
        scale = math.exp(norm_a + norm_b)
        worst = max(worst, res / scale)
        worst_scale = max(worst_scale, res)
    rows = [_row("lie/telescoping", label, 0, worst_scale, None, worst,
                 verdict="PASS" if worst <= 1e-12 else "FAIL")]
    errs = lie_error(*first, tau=1.0, ns=ns)
    rows += [_row("lie/error", label, n, err) for n, err in errs]
    rows += _fit_rows("lie/fit", label, errs, meta)
    return _finish(args, meta, rows, False)


def cmd_strong(args) -> int:
    q = parse_potential(args.potential)
    ns = parse_n_list(args.n)
    label = q.describe()
    meta = {"potential": label, "tau": args.tau, "m": args.m, "p": args.p,
            "n_list": ns}
    f = GridFunction.from_callable(lambda t: np.sin(np.pi * t) ** 2, args.m, args.p)
    curve = strong_convergence_curve(q, f, args.tau, ns)
    rows = [_row("strong/residual", label, n, resid) for n, resid in curve]
    reports, exhausted = _searches(q, [n for n in ns if not n & (n - 1)], args,
                                   sup_symbol)
    rows += [_report_row("strong/norm-floor", label, q, rep)
             for rep in reports]
    resids = [r for _, r in curve]
    decreasing = all(b <= a + 1e-3 for a, b in zip(resids, resids[1:]))
    rows.append(_row("strong/summary", label, 0, resids[-1],
                     verdict="DECREASING" if decreasing else "NOT_DECREASING"))
    meta["residual_decreasing"] = decreasing
    return _finish(args, meta, rows, exhausted)


# ---------------------------------------------------------------- driver

# Flags of more than one subcommand.  Each subcommand registers only those it
# reads, plus --seed, --output and --format; any other is an argument error.
_FLAGS = {
    "--potential": dict(required=True,
                        help="shorthand like linear, cantor:depth=3, "
                             "weier:beta=0.5,levels=12, or @spec.json"),
    "--p": dict(type=_at_least_one(float), default=2.0, help="L^p exponent"),
    "--grid": dict(type=int, default=256, help="coarse search grid per axis"),
    "--refine": dict(type=int, default=4, help="search refinement levels"),
    "--max-evals": dict(type=int, help="distinct-point budget per sup search"),
}
_SEARCH = ("--grid", "--refine", "--max-evals")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trotter-lab",
        description="Numerical experiments on splitting-error convergence "
                    "for shift-plus-multiplication semigroups on [0, 1].")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags):
        # no prefix matching: rates would otherwise read --p as --potential
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--seed", type=int, default=1234)
        p.add_argument("--output", default=None, help="file path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)
        return p

    p = command("rates", cmd_rates, "worst-case error sweep with rate fit",
                ("--potential",) + _SEARCH)
    p.add_argument("--n", default="8..4096", help="n list, e.g. 8..4096 or 3,5,9")

    p = command("cantor", cmd_cantor, "counterexample floors along n = 2^m",
                _SEARCH)
    p.add_argument("--depth", type=int, default=6,
                   help="Cantor construction depth")
    p.add_argument("--m", default=None, help="level list, e.g. 1..6")

    p = command("oracle", cmd_oracle,
                "symbol max and its certified bracket vs the discrete "
                "operator norm",
                ("--potential", "--p") + _SEARCH)
    p.add_argument("--n", default="4,16,64")
    p.add_argument("--m", type=_positive_int, default=65536,
                   help="oracle grid resolution")
    p.add_argument("--tau-grid", type=_positive_int, default=256,
                   dest="tau_grid", help="accepted (>= 1) but unused: "
                   "the symbol is one search over the (t, s) triangle")

    p = command("lie", cmd_lie, "matrix telescoping identity and O(1/n) rate",
                ())
    p.add_argument("--n", default="16..4096")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--norm-bound", type=float, default=2.0, dest="norm_bound")
    p.add_argument("--trials", type=_positive_int, default=8)

    p = command("strong", cmd_strong, "strong residuals vs operator-norm floor",
                ("--potential", "--p") + _SEARCH)
    p.add_argument("--n", default="2..256")
    p.add_argument("--m", type=_positive_int, default=16384,
                   help="grid resolution")
    p.add_argument("--tau", type=float, default=0.5)
    return ap


def _print_warning(message, category, *location):
    # no source location: stderr depends only on what was computed
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shown = warnings.showwarning
    warnings.showwarning = _print_warning
    try:
        return args.func(args)
    except (TrotterLabError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
