"""Spans around the calls into each trotter_lab layer, recorded from outside.

`Tracer.install()` replaces the traced functions with timing wrappers in
every package module that holds them, since `cli`, `sup_search`, `semigroup`
and `rates` import functions of other modules by value; a wrapper set only
in the defining module would report zero calls from those callers.  Each
call records a span (layer, name, start, end, parent, attributes) in memory;
`metrics()` turns one pass's spans into the per-layer metrics.

Self time is a span's duration minus that of its direct child spans; a
layer's total time sums its spans that have no ancestor in the same layer.
Only `Potential.__call__` and `Potential.antiderivative` are traced in
`potentials`, so potential construction (such as Cantor sets) counts as
its caller's self time.  Not thread-safe: the benchmark leaves
TROTTER_LAB_THREADS unset, so the CLI runs its sweeps on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "trotter_lab"
LAYERS = ("potentials", "quadrature", "sup_search", "semigroup",
          "matrix_lie", "rates", "cli")

# private functions traced besides each module's public ones
PRIVATE = {"semigroup": ("_per_tau_norm_argmax", "_per_tau_exact",
                         "_per_tau_grid", "_symbol_gaps")}
PER_TAU = frozenset({"per_tau_operator_norm", "_per_tau_norm_argmax",
                     "_per_tau_exact", "_per_tau_grid", "_symbol_gaps"})
# computed, not measured: the float64 sample point and its q value
LEFT_SUM_BYTES_PER_SAMPLE = 16
LEFT_SUM_CALLERS = ("sup_search", "semigroup")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(x) -> int:
    """Element count of an array, a sequence or a scalar argument."""
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    return len(x) if hasattr(x, "__len__") else 1


def _points(args, kwargs, result):
    return {"points": _size(_arg(args, kwargs, 1, "t"))}


def _left_sum(args, kwargs, result):
    pairs = _size(_arg(args, kwargs, 1, "t"))
    return {"pairs": pairs, "samples": pairs * int(_arg(args, kwargs, 3, "n"))}


def _search(args, kwargs, result):
    trace = result.method
    best = trace.level_best
    return {"evals": trace.evals, "steps": max(len(best) - 1, 0),
            "improving": sum(b > a for a, b in zip(best, best[1:])),
            "budget_hit": int(trace.budget_hit)}


def _trotter(args, kwargs, result):
    n = int(_arg(args, kwargs, 2, "n"))
    return {"cell_steps": _arg(args, kwargs, 3, "f").m * n}


ATTRS = {"Potential.__call__": _points, "Potential.antiderivative": _points,
         "left_darboux_sums": _left_sum, "sup_riemann_error": _search,
         "apply_trotter": _trotter}


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "attrs")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self._open.clear()

    def wrap(self, layer: str, name: str, fn):
        attrs = ATTRS.get(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                # a budget-exhausted search still carries its partial report
                result = getattr(exc, "partial", None)
                raise
            finally:
                span.end = clock()
                open_.pop()
                if attrs is not None and result is not None:
                    span.attrs = attrs(args, kwargs, result)
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package holds a reference."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        package = importlib.import_module(PACKAGE)
        wrappers = {}  # original function -> its wrapper
        for layer, mod in zip(LAYERS, modules):
            if layer == "potentials":
                cls = mod.Potential
                for meth in ("__call__", "antiderivative"):
                    setattr(cls, meth, self.wrap(layer, f"Potential.{meth}",
                                                 getattr(cls, meth)))
                continue
            if layer == "cli":
                names = ["main"]
            else:
                names = [name for name, obj in vars(mod).items()
                         if inspect.isfunction(obj) and not name.startswith("_")
                         and obj.__module__ == mod.__name__]
                names += PRIVATE.get(layer, ())
            for name in names:
                fn = getattr(mod, name)
                wrappers[fn] = self.wrap(layer, name, fn)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def metrics(self, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        ``trace.overhead_s`` compares traced with untraced passes and is
        left to the caller.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for sp in spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start

        def outermost(i, layer):
            p = spans[i].parent
            while p >= 0:
                if spans[p].layer == layer:
                    return False
                p = spans[p].parent
            return True

        def caller(i):
            p = spans[i].parent
            while p >= 0 and spans[p].layer == "quadrature":
                p = spans[p].parent
            return spans[p].layer if p >= 0 else "none"

        m: dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0) + value

        for i, sp in enumerate(spans):
            dur = sp.end - sp.start
            self_s = dur - child[i]
            a = sp.attrs or {}
            add(f"{sp.layer}.self_s", self_s)
            if outermost(i, sp.layer):
                add(f"{sp.layer}.total_s", dur)
            name = sp.name
            if name == "Potential.__call__":
                add("potentials.eval_calls", 1)
                add("potentials.eval_points", a.get("points", 0))
                add("potentials.eval_self_s", self_s)
            elif name == "Potential.antiderivative":
                add("potentials.antiderivative_points", a.get("points", 0))
                add("potentials.antiderivative_self_s", self_s)
            elif name == "left_darboux_sums":
                add("quadrature.left_sum_calls", 1)
                add("quadrature.left_sum_pairs", a.get("pairs", 0))
                add("quadrature.left_sum_samples", a.get("samples", 0))
                add("quadrature.left_sum_self_s", self_s)
                add("quadrature.left_sum_total_s", dur)
                by = caller(i)
                if by in LEFT_SUM_CALLERS:
                    add(f"quadrature.left_sum_samples.from_{by}", a.get("samples", 0))
                    add(f"quadrature.left_sum_self_s.from_{by}", self_s)
                    add(f"quadrature.left_sum_total_s.from_{by}", dur)
            elif name == "sup_riemann_error":
                add("sup_search.calls", 1)
                add("sup_search.evals", a.get("evals", 0))
                add("sup_search.search_s", dur)
                add("sup_search.level_steps", a.get("steps", 0))
                add("sup_search.improving_steps", a.get("improving", 0))
                add("sup_search.budget_hits", a.get("budget_hit", 0))
            elif name == "apply_trotter":
                add("semigroup.apply_trotter_calls", 1)
                add("semigroup.apply_trotter_cell_steps", a.get("cell_steps", 0))
                add("semigroup.apply_trotter_self_s", self_s)
            elif name == "apply_exact":
                add("semigroup.apply_exact_self_s", self_s)
            elif name == "operator_norm_oracle":
                add("semigroup.oracle_self_s", self_s)
            elif name == "expm":
                add("matrix_lie.expm_calls", 1)
                add("matrix_lie.expm_self_s", self_s)
            elif name == "spectral_norm":
                add("matrix_lie.spectral_norm_calls", 1)
                add("matrix_lie.spectral_norm_self_s", self_s)
            elif name == "telescoping_residual":
                add("matrix_lie.telescoping_self_s", self_s)
            elif name == "lie_error":
                add("matrix_lie.lie_error_self_s", self_s)
            elif name == "fit_loglog":
                add("rates.fit_calls", 1)
            if name in PER_TAU:
                add("semigroup.per_tau_self_s", self_s)
                if name == "_per_tau_norm_argmax":
                    add("semigroup.per_tau_calls", 1)
                    add("semigroup.per_tau_total_s", dur)

        out = {key: m.get(key, 0) for key in PER_LAYER_METRICS
               if key != "trace.overhead_s"}
        out["potentials.eval_points_per_s"] = _ratio(
            m.get("potentials.eval_points", 0), m.get("potentials.eval_self_s", 0))
        out["quadrature.left_sum_bytes_computed"] = (
            LEFT_SUM_BYTES_PER_SAMPLE * m.get("quadrature.left_sum_samples", 0))
        out["sup_search.evals_per_s"] = _ratio(
            m.get("sup_search.evals", 0), m.get("sup_search.search_s", 0))
        out["sup_search.improving_level_share"] = _ratio(
            m.get("sup_search.improving_steps", 0), m.get("sup_search.level_steps", 0))
        out["cli.output_bytes"] = output_bytes
        return out

    def layer_calls(self) -> dict[str, int]:
        """Spans recorded per layer since the last reset."""
        calls = dict.fromkeys(LAYERS, 0)
        for sp in self.spans:
            calls[sp.layer] += 1
        return calls


def _ratio(num, den):
    return num / den if den else 0.0


# name -> unit of every per-layer metric the traced run reports
PER_LAYER_METRICS = {
    "potentials.eval_calls": "count",
    "potentials.eval_points": "count",
    "potentials.eval_self_s": "s",
    "potentials.eval_points_per_s": "1/s",
    "potentials.antiderivative_points": "count",
    "potentials.antiderivative_self_s": "s",
    "potentials.self_s": "s",
    "potentials.total_s": "s",
    "quadrature.left_sum_calls": "count",
    "quadrature.left_sum_pairs": "count",
    "quadrature.left_sum_samples": "count",
    "quadrature.left_sum_bytes_computed": "bytes",
    "quadrature.left_sum_self_s": "s",
    "quadrature.left_sum_total_s": "s",
    **{f"quadrature.left_sum_{what}.from_{by}": unit
       for by in LEFT_SUM_CALLERS
       for what, unit in (("samples", "count"), ("self_s", "s"), ("total_s", "s"))},
    "quadrature.self_s": "s",
    "quadrature.total_s": "s",
    "sup_search.calls": "count",
    "sup_search.evals": "count",
    "sup_search.total_s": "s",
    "sup_search.self_s": "s",
    "sup_search.evals_per_s": "1/s",
    "sup_search.improving_level_share": "ratio",
    "sup_search.budget_hits": "count",
    "semigroup.per_tau_calls": "count",
    "semigroup.per_tau_total_s": "s",
    "semigroup.per_tau_self_s": "s",
    "semigroup.apply_trotter_calls": "count",
    "semigroup.apply_trotter_cell_steps": "count",
    "semigroup.apply_trotter_self_s": "s",
    "semigroup.apply_exact_self_s": "s",
    "semigroup.oracle_self_s": "s",
    "semigroup.self_s": "s",
    "semigroup.total_s": "s",
    "matrix_lie.expm_calls": "count",
    "matrix_lie.expm_self_s": "s",
    "matrix_lie.spectral_norm_calls": "count",
    "matrix_lie.spectral_norm_self_s": "s",
    "matrix_lie.telescoping_self_s": "s",
    "matrix_lie.lie_error_self_s": "s",
    "matrix_lie.self_s": "s",
    "matrix_lie.total_s": "s",
    "rates.fit_calls": "count",
    "rates.self_s": "s",
    "rates.total_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
