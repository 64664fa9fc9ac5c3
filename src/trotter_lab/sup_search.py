"""Worst-case search over the triangle 0 < s <= t <= 1.

Two objectives of the integral I and the n-step left sum S over a window
(s, t) are searched: the left-sum error |I - S| (`sup_riemann_error`) and
the symbol |e^{-I} - e^{-S}| (`sup_symbol`), whose sup over the triangle
is the sup over tau of the operator-norm splitting error.  Each value the
search reports is an exact pointwise evaluation, hence a true lower bound
on its sup; the symbol max is therefore the lower end of every operator-norm
bracket, and each family's `certified_upper_bound` its upper end.  The
landscape is non-smooth (step potentials) or highly oscillatory (tent
trains), so `_search_triangle` probes each family's known near-maximizers,
a coarse lattice on s >= `_S_MIN` and local grids around the best cells
(`_grid_refine`, which `semigroup` also runs over t at one tau).  Each
round evaluates each distinct point once and is ranked once
(`_best_first`).  The lattice's windows and integrals do not depend on n
(it carries the sweep's n only for the steps' shared piece count): a
sweep's searches share its `coarse_lattice`, which their ``lattice()``
returns, and a search alone builds one for its n.  Each reads n's lattice
sums off one family hook, `Potential.lattice_sums`, at every n: the
family's kernel by default, a fine grid of q where it fits for tent
trains and for steps with at least n jumps (exact for steps), one piece
count per sweep for the other steps, angle addition for Weierstrass.
Where lattice sums come within a slop (Weierstrass, tent trains), the
search sums again each window whose ranking the slop could change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, ResourceLimitError
from .potentials import Potential
from .quadrature import DeltaPair, left_darboux_sums

# A refinement round spaces _REFINE_FACTOR + 1 points per axis around each
# seed at 2/_REFINE_FACTOR of the last round's spacing; the triangle search
# refines around _TOP_CELLS seeds.
_REFINE_FACTOR = 8
_TOP_CELLS = 16
# The smallest s probed: the triangle is open at s = 0.
_S_MIN = 1e-9
# Cap on the lattice points per axis: one search at G = 4096 peaks at 480 MiB
_GRID_MAX = 4096


@dataclass(frozen=True)
class SearchConfig:
    """Grid-search parameters: lattice points per axis, refinement rounds,
    and ``max_evals``, a cap on distinct probed (t, s) pairs; when it is
    exhausted the search raises BudgetExceededError with the partial report.
    """

    coarse_grid: int = 256
    refine_levels: int = 4
    max_evals: int | None = None

    def __post_init__(self):
        if self.coarse_grid < 2:
            raise ValueError("coarse_grid must be >= 2")
        if self.coarse_grid > _GRID_MAX:
            raise ResourceLimitError(f"coarse_grid {self.coarse_grid} > cap "
                                     f"{_GRID_MAX}")
        if self.refine_levels < 0:
            raise ValueError(
                f"refine_levels must be >= 0, got {self.refine_levels}")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError(f"max_evals must be >= 1, got {self.max_evals}")


@dataclass(frozen=True)
class SearchTrace:
    """How a search arrived at its value: the best value after the lattice
    and each refinement round, the distinct points evaluated, and whether
    the budget ran out.  ``kernel`` names the `left_sums` kernel that the
    hints, the refinement rounds and the recompute of near-top windows ran
    (Potential.left_sum_kernel), not the body of the family's lattice sums;
    the rendered string leaves it out.
    """

    level_best: tuple[float, ...]
    evals: int
    budget_hit: bool = False
    kernel: str = "sampled"

    def __str__(self):
        lv = ">".join(f"{v:.6g}" for v in self.level_best)
        flag = ";budget_hit" if self.budget_hit else ""
        return f"evals={self.evals};levels={lv}{flag}"


@dataclass(frozen=True)
class SearchReport:
    """The largest value a triangle search found at n, where, and how."""

    n: int
    value: float
    argmax: DeltaPair
    method: SearchTrace


def _best_first(vals: np.ndarray, ts: np.ndarray, ss: np.ndarray,
                k: int) -> np.ndarray:
    """Indices of the k best points, best first: largest value, then
    smallest s, then largest t.  Sorts only the points tied with or above
    the k-th largest value, since searches rank thousands to keep a few."""
    cut = max(len(vals) - k, 0)
    cand = np.flatnonzero(vals >= np.partition(vals, cut)[cut])
    order = np.lexsort((-ts[cand], ss[cand], -vals[cand]))
    return cand[order[:k]]


class _BestTracker:
    """Running best point under the `_best_first` order, and its value
    after each round of `_grid_refine` (``level_best``)."""

    def __init__(self):
        self.value, self.t, self.s = -1.0, 1.0, 1.0
        self.level_best: list[float] = []

    def offer(self, vals: np.ndarray, ts: np.ndarray, ss: np.ndarray, i: int):
        v, t, s = float(vals[i]), float(ts[i]), float(ss[i])
        if (v, -s, t) > (self.value, -self.s, self.t):
            self.value, self.t, self.s = v, t, s


def _grid_refine(f, rows, vals, spacing, lo, rounds, top, best,
                 keep=None) -> None:
    """From the values ``vals`` of ``f(*rows)``, probe ``rounds`` local
    grids around the ``top`` best points of each previous round under
    `_best_first`; each round's best point goes to the tracker ``best``.

    ``rows`` holds one array per axis: (t, s), or (t,) for a per-tau symbol,
    whose s = t - tau orders points as t does.  A local grid spans x +-
    spacing, _REFINE_FACTOR + 1 points per axis clipped to [lo, 1] and
    filtered by ``keep``; the spacing then shrinks by _REFINE_FACTOR / 2.
    Grids overlap, so ``f`` gets each distinct point of a round once; it
    returns the values and records the rest (evals, budget)."""
    side = _REFINE_FACTOR + 1
    # idx[i, j]: axis i's entry in point j of a seed's grid, "ij" order
    idx = np.indices((side,) * len(rows)).reshape(len(rows), -1)
    for level in range(rounds + 1):
        seeds = _best_first(vals, rows[0], rows[-1], top)
        best.offer(vals, rows[0], rows[-1], seeds[0])
        best.level_best.append(best.value)
        if level == rounds:
            return
        # one linspace row per seed, bit-equal to a linspace per seed: a
        # zero step in any row sends every row through linspace's
        # divide-first path, which is exact for the power of two factor
        axes = [np.clip(np.linspace(x[seeds] - spacing, x[seeds] + spacing,
                                    side, axis=1), lo, 1.0) for x in rows]
        rows = tuple(ax[:, i].ravel() for ax, i in zip(axes, idx))
        if keep is not None:
            mask = keep(*rows)
            rows = tuple(x[mask] for x in rows)
        # a point (t, s) is the complex number t + s*i, formed exactly
        pts, inverse = np.unique(rows[0] + 1j * rows[-1], return_inverse=True)
        vals = f(*(np.ascontiguousarray(x)
                   for x in (pts.real, pts.imag)[:len(rows)]))[inverse]
        spacing = 2.0 * spacing / _REFINE_FACTOR


def default_hints(q: Potential, n: int) -> list[DeltaPair]:
    """Analytic near-maximizers probed unconditionally.

    Always includes the long-window corner (1, _S_MIN) plus a few
    alignment-breaking offsets of order 1/n, then the family's own
    ``corner_hints(n)`` (for Cantor indicators, the windows on which the
    left sums vanish identically).
    """
    pts = [DeltaPair(1.0, _S_MIN)]
    for num in (1.0, 2.0):
        s = num / (3.0 * n)
        if _S_MIN < s < 1.0:
            pts.append(DeltaPair(1.0, s))
        t = 1.0 - num / (3.0 * n)
        if _S_MIN < t:
            pts.append(DeltaPair(t, _S_MIN))
    pts.extend(DeltaPair(t, s) for t, s in q.corner_hints(n))
    return pts


@dataclass
class Lattice:
    """The windows t >= s of linspace(_S_MIN, 1, G)^2 that a sweep's
    searches at ``ns`` share, s-major: the windows (axis[i], axis[j]), i =
    j .. G - 1, of axis point j as s are ts and ss at starts[j] .. starts[j
    + 1] - 1; ``integ`` holds their integrals, ``cache`` a family's tables."""

    axis: np.ndarray
    ts: np.ndarray
    ss: np.ndarray
    starts: np.ndarray
    integ: np.ndarray
    ns: list[int]
    cache: dict = field(default_factory=dict)


def coarse_lattice(q: Potential, ns: list[int], cfg: SearchConfig) -> Lattice:
    """The `Lattice` of linspace(_S_MIN, 1, coarse_grid) for the searches
    at ``ns``, its integrals from the antiderivative at the G axis
    points."""
    g = cfg.coarse_grid
    axis = np.linspace(_S_MIN, 1.0, g)
    s_at, t_at = np.triu_indices(g)  # s-major, s <= t
    prim = q.antiderivative(axis)
    return Lattice(axis, axis[t_at], axis[s_at],
                   np.append(0, np.cumsum(np.arange(g, 0, -1))),
                   prim[t_at] - prim[s_at], list(ns))


def _search_triangle(q: Potential, n: int, cfg: SearchConfig | None,
                     objective, lattice) -> SearchReport:
    """The largest ``objective(I, S)`` over integrals I and left sums S:
    hints, the lattice (``lattice()``, else n's own), then ``refine_levels``
    rounds around the ``_TOP_CELLS`` best points.  An exhausted budget
    carries the partial report, None when it ran out before the first
    probe."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = cfg if cfg is not None else SearchConfig()
    tracker = _BestTracker()
    evals = 0

    def make_report(budget_hit: bool):
        return SearchReport(
            n, max(tracker.value, 0.0), DeltaPair(tracker.t, tracker.s),
            SearchTrace(tuple(tracker.level_best), evals, budget_hit,
                        q.left_sum_kernel(n)))

    def charge(count: int):
        nonlocal evals
        if cfg.max_evals is not None and evals + count > cfg.max_evals:
            raise BudgetExceededError(
                f"search budget {cfg.max_evals} exhausted at {evals} probes",
                partial=make_report(True) if evals else None)
        evals += count

    def probe(ts, ss):
        charge(len(ts))
        # left_darboux_sums checks the ends once; hints are DeltaPairs and
        # refinement grids are clipped, so no end needs clipping
        sums = left_darboux_sums(q, ts, ss, n)
        return objective(q._antiderivative(ts) - q._antiderivative(ss), sums)

    ts, ss = np.array([(p.t, p.s) for p in default_hints(q, n)]).T.copy()
    vals = probe(ts, ss)
    tracker.offer(vals, ts, ss, _best_first(vals, ts, ss, 1)[0])
    charge(cfg.coarse_grid * (cfg.coarse_grid + 1) // 2)  # lattice windows
    lat = lattice() if lattice else coarse_lattice(q, [n], cfg)
    ts, ss = lat.ts, lat.ss
    sums, slop = q.lattice_sums(lat, n)
    vals = objective(lat.integ, sums)
    if slop:
        # an exact sum moves a value by at most slop (t - s) plus a few
        # units of roundoff of 1 + value: a window more than 2 slop max(t -
        # s) + 2^-40 (1 + c) below the _TOP_CELLS-th value c stays below
        # `_best_first`'s cut, and only the others are summed again
        cut = max(len(vals) - _TOP_CELLS, 0)
        c = np.partition(vals, cut)[cut]
        near = vals >= (c - 2.0 * slop * np.max(ts - ss)
                        - 2.0 ** -40 * (1.0 + c))
        sums[near] = left_darboux_sums(q, ts[near], ss[near], n)
        vals = objective(lat.integ, sums)
    _grid_refine(probe, (ts, ss), vals,
                 (1.0 - _S_MIN) / (cfg.coarse_grid - 1), _S_MIN,
                 cfg.refine_levels, _TOP_CELLS, tracker,
                 keep=lambda t, s: s <= t)
    return make_report(False)


def sup_riemann_error(q: Potential, n: int, cfg: SearchConfig | None = None,
                      lattice=None) -> SearchReport:
    """The worst-case left-sum error |I - S| that the search finds."""
    return _search_triangle(
        q, n, cfg, lambda integ, sums: np.abs(integ - sums), lattice)


def sup_symbol(q: Potential, n: int, cfg: SearchConfig | None = None,
               lattice=None) -> SearchReport:
    """The largest symbol |U(t, s) - V_n(t, s)| = |e^{-I} - e^{-S}| that the
    search finds: a lower bound on the sup over tau of the operator-norm
    splitting error, at tau* = t* - s*."""
    return _search_triangle(
        q, n, cfg, lambda integ, sums: np.abs(np.exp(-integ) - np.exp(-sums)),
        lattice)


def trotter_error_sandwich(q: Potential, n: int,
                           cfg: SearchConfig | None = None
                           ) -> tuple[float, float]:
    """Two-sided bracket for the sup-over-tau operator-norm splitting error:
    the symbol max (a true lower bound) and the family's certified bound on
    the left-sum error, which caps the symbol."""
    return sup_symbol(q, n, cfg).value, q.certified_upper_bound(n)
