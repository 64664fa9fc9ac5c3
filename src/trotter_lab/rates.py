"""Log-log rate fitting and asymptotic-class verdicts for (n, value) sweeps.

A sweep is classified as one of EXACT_ZERO, POLY_RATE (with estimated
exponent), SLOWER_THAN_POLY, or NON_CONVERGENT.  The rules are
deterministic thresholds: values all below 1e-12 are zero; the dyadic
subsequence staying above the floor 0.1 is non-convergent; a clean
log-log fit (rms residual <= 0.05) with slope <= -0.05 is polynomial;
anything else decays too slowly to call polynomial.  Verdicts are
statements about the swept range only, recorded in ``n_range``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .potentials import Potential
from .quadrature import DeltaPair, riemann_error
from .sup_search import _S_MIN, SearchReport

ZERO_THRESHOLD = 1e-12
NONCONV_FLOOR = 0.1
RESIDUAL_CAP = 0.05
SLOPE_FLAT = -0.05
# The long-window corner where the dyadic cancellation argument applies.
_CORNER = DeltaPair(1.0, _S_MIN)


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


def fit_loglog(points: Sequence[tuple[int, float]]) -> RateFit:
    """Classify a sweep of non-negative values against n.

    The non-convergence floor test reads the powers of two in the sweep
    (every n if fewer than two are powers of two); ``RateFit.subsequence``
    records which n it read.
    """
    pts = tuple((int(n), float(v)) for n, v in points)
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    ns = [n for n, _ in pts]
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must strictly increase")
    if any(v < 0.0 for _, v in pts):
        raise ValueError("values must be >= 0")

    dyadic = tuple(n for n in ns if n & (n - 1) == 0)
    sub = dyadic if len(dyadic) >= 2 else tuple(ns)
    n_range = (ns[0], ns[-1])

    if all(v <= ZERO_THRESHOLD for _, v in pts):
        return RateFit(pts, 0.0, 0.0, "EXACT_ZERO", sub, 0.0, n_range)

    usable = [(n, v) for n, v in pts if v > ZERO_THRESHOLD]
    if len(usable) < 4:
        raise ValueError(f"only {len(usable)} usable points above threshold")
    x = np.log([n for n, _ in usable])
    y = np.log([v for _, v in usable])
    slope, ci, rms = _linear_fit(x, y)

    sub_values = [v for n, v in pts if n in sub]
    if sub_values and min(sub_values) > NONCONV_FLOOR:
        verdict = "NON_CONVERGENT"
    elif rms <= RESIDUAL_CAP and slope <= SLOPE_FLAT:
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
                       reports: Sequence[SearchReport]) -> HolderCheck:
    """Check every searched value against the certificate bound."""
    if q.holder_meta is None:
        raise ValueError("potential carries no Holder certificate")
    margins = []
    violations = []
    for rep in reports:
        bound = q.holder_meta.error_bound(rep.n)
        margin = bound - rep.value
        margins.append((rep.n, margin))
        if margin < 0.0:
            violations.append((rep.n, rep.value, bound))
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


def slow_convergence_check(q: Potential,
                           ms: Sequence[int]) -> SlowConvergenceTable:
    """Evaluate the slow-convergence demonstrator along n = 2^m.

    The error is measured at ``_CORNER``, (t, s) = (1, _S_MIN), and its ratio
    is taken against delta_n = 1/n; families with a ``corner_floor`` also
    get their margin over it.
    """
    if any(m < 1 for m in ms):
        raise ValueError("ms must be positive")
    rows = []
    margins = []
    for m in ms:
        n = 2 ** m
        r = riemann_error(q, _CORNER, n)
        rows.append((m, r, r * n))
        floor = q.corner_floor(m)
        if floor is not None:
            margins.append((m, r - floor))
    ratios = [row[2] for row in rows]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    bounds_hold = all(mg >= 0.0 for _, mg in margins)
    return SlowConvergenceTable(tuple(rows), increasing, tuple(margins),
                                bounds_hold)
