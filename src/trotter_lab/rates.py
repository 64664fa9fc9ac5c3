"""Log-log rate fitting and asymptotic-class verdicts for (n, value) sweeps.

A sweep is classified as one of EXACT_ZERO, POLY_RATE (with estimated
exponent), SLOWER_THAN_POLY, or NON_CONVERGENT.  The rules are
deterministic thresholds: values all below 1e-12 are zero; a designated
subsequence staying above the floor 0.1 is non-convergent; a clean
log-log fit (rms residual <= 0.05) with slope <= -0.05 is polynomial;
anything else decays too slowly to call polynomial.  Verdicts are
statements about the swept range only, recorded in ``n_range``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .potentials import Potential, TentTrain
from .quadrature import DeltaPair, riemann_error
from .sup_search import RiemannReport

ZERO_THRESHOLD = 1e-12
NONCONV_FLOOR = 0.1
RESIDUAL_CAP = 0.05
SLOPE_FLAT = -0.05


@dataclass(frozen=True)
class RateFit:
    """Result of a log-log regression with its Landau-class verdict."""

    points: tuple[tuple[int, float], ...]
    slope: float
    slope_ci: float
    verdict: str
    subsequence: tuple[int, ...]
    rms_residual: float
    n_range: tuple[int, int]

    @property
    def verdict_label(self) -> str:
        if self.verdict == "POLY_RATE":
            return f"POLY_RATE({-self.slope:.2f})"
        return self.verdict


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, two-sigma slope half-width, rms residual."""
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
    resid = y - (ybar + slope * (x - xbar))
    rms = float(np.sqrt((resid ** 2).mean()))
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float((resid ** 2).sum()) / dof / sxx)
    return slope, 2.0 * se, rms


def fit_loglog(points: Sequence[tuple[int, float]],
               subsequence: Sequence[int] | None = None,
               zero_threshold: float = ZERO_THRESHOLD,
               floor: float = NONCONV_FLOOR,
               residual_cap: float = RESIDUAL_CAP) -> RateFit:
    """Classify a sweep of non-negative values against n.

    ``subsequence`` designates the n values used for the non-convergence
    floor test; by default the powers of two present in the sweep (all n
    if fewer than two are powers of two).
    """
    pts = tuple((int(n), float(v)) for n, v in points)
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    ns = [n for n, _ in pts]
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must strictly increase")
    if any(v < 0.0 for _, v in pts):
        raise ValueError("values must be >= 0")

    if subsequence is None:
        dyadic = [n for n in ns if n & (n - 1) == 0]
        subsequence = dyadic if len(dyadic) >= 2 else ns
    sub = tuple(int(n) for n in subsequence)
    missing = [n for n in sub if n not in ns]
    if missing:
        raise ValueError(f"subsequence entries {missing} not in the sweep")
    n_range = (ns[0], ns[-1])

    if all(v <= zero_threshold for _, v in pts):
        return RateFit(pts, 0.0, 0.0, "EXACT_ZERO", sub, 0.0, n_range)

    usable = [(n, v) for n, v in pts if v > zero_threshold]
    if len(usable) < 4:
        raise ValueError(f"only {len(usable)} usable points above threshold")
    x = np.log([n for n, _ in usable])
    y = np.log([v for _, v in usable])
    slope, ci, rms = _linear_fit(x, y)

    sub_values = [v for n, v in pts if n in sub]
    if sub_values and min(sub_values) > floor:
        verdict = "NON_CONVERGENT"
    elif rms <= residual_cap and slope <= SLOPE_FLAT:
        verdict = "POLY_RATE"
    else:
        verdict = "SLOWER_THAN_POLY"
    return RateFit(pts, slope, ci, verdict, sub, rms, n_range)


@dataclass(frozen=True)
class HolderCheck:
    """Per-n margins of the certified Holder ceiling L / n^beta."""

    passed: bool
    margins: tuple[tuple[int, float], ...]
    violations: tuple[tuple[int, float, float], ...]


def holder_bound_check(q: Potential,
                       reports: Sequence[RiemannReport]) -> HolderCheck:
    """Check every searched value against the certificate bound."""
    if q.holder_meta is None:
        raise ValueError("potential carries no Holder certificate")
    margins = []
    violations = []
    for rep in reports:
        bound = q.holder_meta.error_bound(rep.n)
        margin = bound - rep.r_n
        margins.append((rep.n, margin))
        if margin < 0.0:
            violations.append((rep.n, rep.r_n, bound))
    return HolderCheck(passed=not violations, margins=tuple(margins),
                       violations=tuple(violations))


@dataclass(frozen=True)
class SlowConvergenceTable:
    """Corner-point errors along n = 2^m with their ratio to delta_n."""

    rows: tuple[tuple[int, float, float], ...]
    ratios_increasing: bool
    bound_margins: tuple[tuple[int, float], ...]
    bounds_hold: bool

    @property
    def passed(self) -> bool:
        return self.ratios_increasing and self.bounds_hold


def tent_train_floor(q: TentTrain, m: int) -> float:
    """Analytic lower bound for the corner error at n = 2^m.

    Levels j >= m vanish at every dyadic sample, leaving half their mass
    as error; levels j < m cost at most their variation spread over the
    2^m subintervals.
    """
    amps = q.amplitudes
    keep = 0.5 * sum(amps[m - 1:])
    lost = sum(a * 2.0 ** (j - m + 1) for j, a in enumerate(amps[:m - 1], start=1))
    return keep - lost


def slow_convergence_check(q: Potential,
                           delta: Callable[[int], float] | None,
                           ms: Sequence[int],
                           s_min: float = 1e-9) -> SlowConvergenceTable:
    """Evaluate the slow-convergence demonstrator along n = 2^m.

    The error is measured at the long-window corner (t, s) = (1, s_min),
    the point where the dyadic cancellation argument applies; ratios are
    taken against delta(n) (default 1/n).
    """
    if delta is None:
        delta = lambda n: 1.0 / n
    if any(m < 1 for m in ms):
        raise ValueError("ms must be positive")
    rows = []
    margins = []
    corner = DeltaPair(1.0, s_min)
    for m in ms:
        n = 2 ** m
        r = riemann_error(q, corner, n)
        rows.append((m, r, r / delta(n)))
        if isinstance(q, TentTrain):
            margins.append((m, r - tent_train_floor(q, m)))
    ratios = [row[2] for row in rows]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    bounds_hold = all(mg >= 0.0 for _, mg in margins)
    return SlowConvergenceTable(tuple(rows), increasing, tuple(margins),
                                bounds_hold)
