"""Worst-case Riemann-error search over the triangle 0 < s <= t <= 1.

The quantity of interest is the essential supremum over the triangle of
the pointwise left-sum error; its value sandwiches the operator-norm
splitting error between e^{-sup_norm} and 1 times itself.  The landscape
is non-smooth (step potentials) or highly oscillatory (tent trains), so
the search is a coarse lattice plus local refinement around the best
cells, seeded with the analytically known near-maximizers of each family.
Every reported value is an exact pointwise evaluation, hence a true lower
bound; the certified upper bound is each family's
`Potential.certified_upper_bound`, which every family has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .potentials import Potential
from .quadrature import DeltaPair, riemann_errors

# Each refinement round probes a (_REFINE_FACTOR + 1)^2 grid around each of
# the _TOP_CELLS best points so far, with spacing 2/_REFINE_FACTOR of the
# previous round's.
_REFINE_FACTOR = 8
_TOP_CELLS = 16


@dataclass(frozen=True)
class SearchConfig:
    """Grid-search parameters.

    ``max_evals`` caps the number of probed (t, s) pairs; when exhausted
    the search raises BudgetExceededError carrying the partial report.
    """

    coarse_grid: int = 256
    refine_levels: int = 4
    s_min: float = 1e-9
    hint_points: tuple[DeltaPair, ...] = ()
    max_evals: int | None = None

    def __post_init__(self):
        if self.coarse_grid < 2:
            raise ValueError("coarse_grid must be >= 2")
        if not 0.0 < self.s_min < 1.0:
            raise ValueError("s_min must lie in (0, 1)")
        if self.refine_levels < 0:
            raise ValueError(
                f"refine_levels must be >= 0, got {self.refine_levels}")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError(f"max_evals must be >= 1, got {self.max_evals}")


@dataclass(frozen=True)
class SearchTrace:
    """Summary of how a search arrived at its value.

    ``kernel`` names the left-sum kernel the search ran (see
    Potential.left_sum_kernel); it stays out of the rendered string, which
    reports carry.
    """

    level_best: tuple[float, ...]
    evals: int
    certified: bool
    hints_probed: int
    budget_hit: bool = False
    kernel: str = "sampled"

    def __str__(self):
        lv = ">".join(f"{v:.6g}" for v in self.level_best)
        tag = "certified" if self.certified else "heuristic"
        flag = ";budget_hit" if self.budget_hit else ""
        return f"evals={self.evals};{tag};levels={lv}{flag}"


@dataclass(frozen=True)
class RiemannReport:
    """Best found sup estimate with its operator-norm sandwich."""

    n: int
    r_n: float
    argmax: DeltaPair
    lower_op_norm: float
    upper_op_norm: float
    method: SearchTrace


class _BestTracker:
    """Running max with the deterministic tie-break: smallest s, then largest t."""

    def __init__(self):
        self.value = -1.0
        self.t = 1.0
        self.s = 1.0

    def offer(self, vals: np.ndarray, ts: np.ndarray, ss: np.ndarray):
        if len(vals) == 0:
            return
        vmax = float(vals.max())
        if vmax < self.value:
            return
        cand = np.flatnonzero(vals == vmax)
        order = np.lexsort((-ts[cand], ss[cand]))
        i = cand[order[0]]
        t, s = float(ts[i]), float(ss[i])
        if (vmax > self.value
                or s < self.s
                or (s == self.s and t > self.t)):
            self.value, self.t, self.s = vmax, t, s


def default_hints(q: Potential, n: int, s_min: float) -> list[DeltaPair]:
    """Analytic near-maximizers probed unconditionally.

    Always includes the long-window corner (1, s_min) plus a few
    alignment-breaking offsets of order 1/n, then the family's own
    ``corner_hints`` (for Cantor indicators, the windows on which the
    dyadic left sums vanish identically).
    """
    pts = [DeltaPair(1.0, s_min)]
    for num in (1.0, 2.0):
        s = num / (3.0 * n)
        if s_min < s < 1.0:
            pts.append(DeltaPair(1.0, s))
        t = 1.0 - num / (3.0 * n)
        if s_min < t:
            pts.append(DeltaPair(t, s_min))
    pts.extend(DeltaPair(t, s) for t, s in q.corner_hints())
    return pts


def sup_riemann_error(q: Potential, n: int,
                      cfg: SearchConfig | None = None) -> RiemannReport:
    """Multi-resolution search for the worst-case left-sum error.

    Probes hint points first, then a coarse lattice on the triangle, then
    ``refine_levels`` rounds of local grids around the ``_TOP_CELLS`` best
    points so far.  Deterministic for a fixed config.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = cfg if cfg is not None else SearchConfig()
    tracker = _BestTracker()
    evals = 0
    level_best: list[float] = []
    hints = default_hints(q, n, cfg.s_min) + list(cfg.hint_points)

    def make_report(budget_hit: bool) -> RiemannReport:
        r = max(tracker.value, 0.0)
        return RiemannReport(
            n=n, r_n=r, argmax=DeltaPair(tracker.t, tracker.s),
            lower_op_norm=math.exp(-q.sup_norm) * r,
            upper_op_norm=q.certified_upper_bound(n),
            method=SearchTrace(tuple(level_best), evals, True,
                               len(hints), budget_hit, q.left_sum_kernel(n)))

    def probe(ts, ss):
        nonlocal evals
        ts = np.asarray(ts, dtype=float)
        ss = np.asarray(ss, dtype=float)
        if cfg.max_evals is not None and evals + len(ts) > cfg.max_evals:
            raise BudgetExceededError(
                f"search budget {cfg.max_evals} exhausted at {evals} probes",
                partial=make_report(True))
        vals = riemann_errors(q, ts, ss, n)
        evals += len(ts)
        tracker.offer(vals, ts, ss)
        return vals, ts, ss

    probe([p.t for p in hints], [p.s for p in hints])

    axis = np.linspace(cfg.s_min, 1.0, cfg.coarse_grid)
    tg, sg = np.meshgrid(axis, axis, indexing="ij")
    keep = sg <= tg
    vals, ts, ss = probe(tg[keep], sg[keep])
    level_best.append(tracker.value)

    spacing = (1.0 - cfg.s_min) / (cfg.coarse_grid - 1)
    for _ in range(cfg.refine_levels):
        order = np.lexsort((-ts, ss, -vals))
        seeds = order[:_TOP_CELLS]
        pts_t, pts_s = [], []
        side = _REFINE_FACTOR + 1
        for i in seeds:
            tlin = np.clip(np.linspace(ts[i] - spacing, ts[i] + spacing, side),
                           cfg.s_min, 1.0)
            slin = np.clip(np.linspace(ss[i] - spacing, ss[i] + spacing, side),
                           cfg.s_min, 1.0)
            tt, sv = np.meshgrid(tlin, slin, indexing="ij")
            m = sv <= tt
            pts_t.append(tt[m])
            pts_s.append(sv[m])
        vals, ts, ss = probe(np.concatenate(pts_t), np.concatenate(pts_s))
        level_best.append(tracker.value)
        spacing = 2.0 * spacing / _REFINE_FACTOR

    return make_report(False)


def trotter_error_sandwich(q: Potential, n: int,
                           cfg: SearchConfig | None = None
                           ) -> tuple[float, float]:
    """Two-sided bracket for the sup-over-tau operator-norm splitting error.

    Lower end: e^{-sup_norm} times the search value (a true lower bound).
    Upper end: the family's certified bound on the left-sum error.
    """
    rep = sup_riemann_error(q, n, cfg)
    return rep.lower_op_norm, rep.upper_op_norm
