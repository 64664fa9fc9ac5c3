"""Acceptance gate: every criterion at its stated tolerance.

Each test prints and registers one pass/fail line (see conftest's
terminal-summary hook)."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import trotter_lab as tl
from trotter_lab.cli import main
from conftest import record_acceptance


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    record_acceptance(line)
    print(line, flush=True)
    assert ok, line


def _families():
    return [
        ("constant", tl.Constant(1.0)),
        ("linear", tl.Linear()),
        ("steps", tl.PiecewiseConstant([0.0, 0.25, 0.5, 1.0], [1.0, 0.0, 2.0])),
        ("weier", tl.HolderWeierstrass(0.5, 8)),
        ("tent", tl.build_tent_train([1.0 / j for j in range(1, 7)])),
        ("cantor3", tl.build_cantor(3)[0]),
    ]


def test_criterion_1_sandwich_law():
    # 20 triples per dyadic n in {2..2^10} = 200 per family, exact to 1e-12
    rng = np.random.default_rng(101)
    worst = 0.0
    for name, q in _families():
        damp = math.exp(-q.sup_norm)
        for k in range(1, 11):
            n = 2 ** k
            for _ in range(20):
                s = float(rng.uniform(1e-6, 1.0))
                t = float(rng.uniform(s, 1.0))
                pt = tl.DeltaPair(t, s)
                gap = tl.propagators(q, pt, n).gap
                r = tl.riemann_error(q, pt, n)
                worst = max(worst, gap - r, damp * r - gap)
    _verdict(1, "sandwich law", worst <= 1e-12,
             f"max one-sided violation {worst:.2e} over 6x200 triples")


def test_criterion_2_holder_rates():
    ns = [2 ** k for k in range(3, 13)]
    cfg = tl.SearchConfig(coarse_grid=32, refine_levels=1)
    lin_reports = [tl.sup_riemann_error(tl.Linear(), n, cfg) for n in ns]
    rel = max(abs(rep.value * 2 * rep.n - 1.0) for rep in lin_reports)
    lin_fit = tl.fit_loglog([(rep.n, rep.value) for rep in lin_reports])
    lin_ok = rel <= 1e-6 and abs(lin_fit.slope + 1.0) <= 0.05

    q = tl.HolderWeierstrass(0.5, 12)
    wcfg = tl.SearchConfig(coarse_grid=128, refine_levels=2)
    reports = [tl.sup_riemann_error(q, n, wcfg) for n in ns]
    check = tl.holder_bound_check(q, reports)
    wfit = tl.fit_loglog([(rep.n, rep.value) for rep in reports])
    weier_ok = check.passed and wfit.slope <= -0.4

    _verdict(2, "Lipschitz/Holder rate", lin_ok and weier_ok,
             f"linear rel err {rel:.1e}, slope {lin_fit.slope:+.3f}; "
             f"weier bound margins >= 0: {check.passed}, slope {wfit.slope:+.3f}")


def test_criterion_3_commuting_exactness():
    cfg = tl.SearchConfig(coarse_grid=32, refine_levels=1)
    q = tl.Constant(1.0)
    worst_r = max(tl.sup_riemann_error(q, n, cfg).value
                  for n in (1, 2, 3, 8, 64, 1024))
    worst_tau = max(tl.per_tau_operator_norm(q, j / 32, n)
                    for n in (1, 5, 16) for j in range(33))
    ok = worst_r <= 1e-12 and worst_tau <= 1e-12
    _verdict(3, "commuting exactness", ok,
             f"max R_n {worst_r:.2e}, max per-tau norm {worst_tau:.2e}")


def test_criterion_4_counterexample_floor():
    q, cons = tl.build_cantor(6)
    measure = float(cons.complement_measure)
    pts = []
    floor_ok = True
    detail = []
    for m in range(1, 7):
        n = 2 ** m
        eps = 1.0 / (3.0 * 2.0 ** (2 * m + 2))
        corner = tl.DeltaPair(1.0 - 0.5 * eps, 0.5 * eps)
        r = tl.riemann_error(q, corner, n)
        pts.append((n, r))
        bound = measure - 2.0 * eps
        floor_ok &= r >= bound >= 0.49
        detail.append(f"m={m}:{r:.3f}")
    fit = tl.fit_loglog(pts)
    rational_ok = all(tl.build_cantor(d)[1].complement_measure >= Fraction(1, 2)
                      for d in range(1, 7))
    exact3 = tl.build_cantor(3)[1].complement_measure == Fraction(21, 32)
    grid = (np.arange(1 << 20) + 0.5) / (1 << 20)
    est = float(np.mean(tl.build_cantor(3)[0](grid)))
    fine_ok = abs(est - 21.0 / 32.0) <= 1e-4
    ok = floor_ok and fit.verdict == "NON_CONVERGENT" and rational_ok and exact3 and fine_ok
    _verdict(4, "counterexample floor", ok,
             f"{' '.join(detail)}, verdict {fit.verdict}, "
             f"|C_3| = 21/32 (grid est {est:.6f})")


def test_criterion_5_reduction_consistency():
    taus = [j / 256 for j in range(1, 257)]
    results = []
    for name, q in (("linear", tl.Linear()), ("cantor3", tl.build_cantor(3)[0])):
        for n in (4, 16, 64):
            per_tau = [(tl.per_tau_operator_norm(q, tau, n), tau) for tau in taus]
            top, tau_star = max(per_tau)
            lower, upper = tl.trotter_error_sandwich(q, n)  # default config
            contained = lower - 1e-3 <= top <= upper + 1e-3
            probe = tl.operator_norm_oracle(q, tau_star, n, 2.0, m=1 << 16)
            reached = probe >= 0.95 * top
            results.append((name, n, contained, reached, top, probe))
    ok = all(c and r for _, _, c, r, _, _ in results)
    brief = "; ".join(f"{nm}/n={n}:{'ok' if (c and r) else 'FAIL'}"
                      for nm, n, c, r, _, _ in results)
    _verdict(5, "reduction consistency", ok, brief)


def test_criterion_6_dichotomy():
    q, _ = tl.build_cantor(4)
    m = 1 << 14
    f = tl.GridFunction.from_callable(lambda t: np.sin(np.pi * t) ** 2, m)
    ns = [2 ** k for k in range(1, 9)]
    curve = tl.strong_convergence_curve(q, f, 0.5, ns)
    resids = [r for _, r in curve]
    decreasing = all(b <= a + 1e-3 for a, b in zip(resids, resids[1:]))
    cfg = tl.SearchConfig(coarse_grid=64, refine_levels=2)
    floor = 0.49 * math.exp(-1.0)
    lows = [tl.trotter_error_sandwich(q, 2 ** mm, cfg)[0] for mm in range(1, 5)]
    floor_ok = all(lo >= floor for lo in lows)
    _verdict(6, "dichotomy", decreasing and floor_ok,
             f"residuals {resids[0]:.4f}->{resids[-1]:.6f} decreasing={decreasing}, "
             f"norm floor min {min(lows):.4f} >= {floor:.4f}")


def test_criterion_7_slow_convergence():
    q = tl.build_tent_train([1.0 / j for j in range(1, 13)])
    tab = tl.slow_convergence_check(q, list(range(2, 11)))
    ratios = [ratio for _, _, ratio in tab.rows]
    _verdict(7, "slow-convergence demonstrator", tab.passed,
             f"bounds hold={tab.bounds_hold}, ratio {ratios[0]:.1f}->{ratios[-1]:.1f} "
             f"increasing={tab.ratios_increasing}")


def test_criterion_8_matrix_lie():
    worst = 0.0
    for seed in range(100):
        dim = 2 + seed % 7
        tau = 0.25 + 1.75 * ((seed * 0.37) % 1.0)
        a, b = tl.random_matrix_pair(dim, 2.0, seed)
        scale = math.exp(tl.spectral_norm(a) + tl.spectral_norm(b))
        worst = max(worst, tl.telescoping_residual(a, b, tau, 8) / scale)
    tele_ok = worst <= 1e-12

    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    fit = tl.fit_loglog(tl.lie_error(a, a.T.copy(), 1.0,
                                     [2 ** k for k in range(4, 13)]))
    slope_ok = abs(fit.slope + 1.0) <= 0.1
    _verdict(8, "matrix Lie", tele_ok and slope_ok,
             f"max scaled residual {worst:.2e}, nilpotent slope {fit.slope:+.4f}")


def test_criterion_9_cli_determinism(tmp_path):
    cases = {
        "rates-csv": ["rates", "--potential", "linear", "--n", "8..64",
                      "--grid", "32", "--refine", "1", "--format", "csv"],
        "rates-json": ["rates", "--potential", "weier:beta=0.5,levels=6",
                       "--n", "8..64", "--grid", "32", "--refine", "1",
                       "--format", "json"],
        "cantor": ["cantor", "--depth", "3", "--m", "1..3", "--grid", "32",
                   "--refine", "1", "--format", "json"],
        "oracle": ["oracle", "--potential", "linear", "--n", "4", "--m",
                   "2048", "--tau-grid", "16", "--grid",
                   "32", "--refine", "1", "--format", "csv"],
        "lie": ["lie", "--n", "8..64", "--trials", "5", "--seed", "3",
                "--format", "csv"],
        "strong": ["strong", "--potential", "cantor:depth=2", "--n", "2..32",
                   "--m", "2048", "--grid", "32", "--refine", "1",
                   "--format", "csv"],
    }
    mismatched = []
    for label, argv in cases.items():
        outs = []
        for rep in ("a", "b"):
            path = tmp_path / f"{label}-{rep}"
            assert main(argv + ["--output", str(path)]) == 0
            text = path.read_text()
            if "json" in argv[argv.index("--format") + 1]:
                payload = json.loads(text)
                del payload["meta"]["generated_at"]
                outs.append(json.dumps(payload, sort_keys=True))
            else:
                outs.append("\n".join(text.splitlines()[1:]))
        if outs[0] != outs[1]:
            mismatched.append(label)
    _verdict(9, "CLI determinism", not mismatched,
             f"{len(cases)} commands compared" +
             (f"; mismatched: {mismatched}" if mismatched else ""))
