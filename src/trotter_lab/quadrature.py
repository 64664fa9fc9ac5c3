"""Integrals, left Darboux sums, and the two propagator values.

The central object is the pointwise error R_n(t, s) between the exact
integral of q over [s, t] and its left-endpoint Riemann sum on n equal
subintervals.  Everything here is pure; batch variants operate on arrays
of (t, s) pairs so searches can be vectorized.

Left sums come from each family's `Potential.left_sums`: closed forms for
Linear (and Constant, the zero-slope Linear) and HolderWeierstrass,
per-piece sample counts for step potentials (PiecewiseConstant,
CantorIndicator) with fewer interior breakpoints than n, and sampling q at
the n points otherwise.  `left_darboux_sums` checks the window endpoints
once, in front of every kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import Potential, _as_domain_array


@dataclass(frozen=True)
class DeltaPair:
    """A point of the open triangle 0 < s <= t <= 1."""

    t: float
    s: float

    def __post_init__(self):
        if not (0.0 < self.s <= self.t <= 1.0):
            raise ValueError(f"(t, s) = ({self.t}, {self.s}) not in triangle")

    @property
    def width(self) -> float:
        return self.t - self.s


@dataclass(frozen=True)
class PropagatorGap:
    """Exact and split propagator values at one (t, s) with their gap."""

    u: float
    v_n: float
    gap: float


def integrate(q: Potential, pt: DeltaPair) -> float:
    """Integral of q over [s, t] via antiderivatives; never negative."""
    val = q.antiderivative(pt.t) - q.antiderivative(pt.s)
    return max(0.0, float(val))


def left_darboux_sums(q: Potential, t, s, n: int) -> np.ndarray:
    """Left Riemann sums for arrays of pairs, by the family's kernel.

    Sample k of pair i sits at s[i] + k*(t[i]-s[i])/n for k = 0..n-1.  A NaN
    endpoint or one outside [0, 1] raises a ValueError here, for every
    kernel; endpoints within roundoff of [0, 1] pass unclipped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if t.shape != s.shape:
        raise ValueError("t and s must have matching shapes")
    _as_domain_array(t)
    _as_domain_array(s)
    return q.left_sums(t, s, n)


def left_darboux_sum(q: Potential, pt: DeltaPair, n: int) -> float:
    """S_n(t, s) = ((t-s)/n) * sum_{k<n} q(s + k(t-s)/n)."""
    return float(left_darboux_sums(q, [pt.t], [pt.s], n)[0])


def riemann_errors(q: Potential, t, s, n: int) -> np.ndarray:
    """|integral - left sum| for arrays of pairs."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    integrals = q.antiderivative(t) - q.antiderivative(s)
    sums = left_darboux_sums(q, t, s, n)
    return np.abs(integrals - sums)


def riemann_error(q: Potential, pt: DeltaPair, n: int) -> float:
    """Pointwise quadrature error R_n(t, s) = |integral - left sum|."""
    return float(riemann_errors(q, [pt.t], [pt.s], n)[0])


def propagators(q: Potential, pt: DeltaPair, n: int) -> PropagatorGap:
    """Exact propagator u = e^{-int q}, split propagator v_n = e^{-S_n}.

    The gap obeys the two-sided bound
    e^{-sup_norm} * R_n(t,s) <= |u - v_n| <= R_n(t,s),
    which follows from e^{-max(x,y)}|x-y| <= |e^{-x}-e^{-y}| <= |x-y|
    for x, y >= 0.
    """
    x = integrate(q, pt)
    y = left_darboux_sum(q, pt, n)
    u = math.exp(-x)
    v = math.exp(-y)
    return PropagatorGap(u=u, v_n=v, gap=abs(u - v))
