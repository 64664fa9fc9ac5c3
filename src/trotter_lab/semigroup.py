"""Discretized evolution semigroups on L^p([0, 1]) and operator norms.

Functions are sampled at midpoint nodes t_i = (i + 1/2)/m.  The four
operators implemented here are the pure shift, the multiplication
semigroup, the exact evolution e^{-tau K} f = U(t, t-tau) f(t-tau), and
the n-step splitting (shift o mult)^n.  Exact minus split evolution is a
multiplication operator composed with an isometric-up-to-cutoff shift, so
its L^p norm equals the sup of a scalar symbol and is p-independent; at
one tau the sup over t is exact for step potentials (event decomposition)
and otherwise `sup_search._grid_refine` over t (s = t - tau).  The lines
s = t - tau fill the triangle 0 < s <= t <= 1, so `sup_search.sup_symbol`
takes the sup over tau as one triangle search.  The oracle reads the
per-tau norm off the discretized operators alone: when both shift by the
same whole number of cells their difference is a weighted shift, whose
weights are its image of the constant function 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridResolutionWarning, ResourceLimitError
from .potentials import Potential
from .quadrature import left_darboux_sums
from .sup_search import _BestTracker, _grid_refine

# tau*m farther than this from an integer triggers a rounding warning
_ROUND_TOL = 1e-9
# Symbol grid search over t in [tau, 1]: first grid, rounds, seeds per round.
_T_GRID = 4097
_T_REFINE_LEVELS = 3
_T_TOP = 8
# Cap on the grid resolution m: `strong --n 2..4` at m = 2^22 peaks at 320 MiB
_M_MAX = 1 << 22


def _check_m(m: int) -> None:
    if m > _M_MAX:
        raise ResourceLimitError(f"m {m} > cap {_M_MAX}")


def _nodes(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


@dataclass(frozen=True)
class GridFunction:
    """A function sampled at the m midpoint nodes, measured in L^p."""

    samples: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.samples, dtype=complex))
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("samples must be a non-empty vector")
        if not 1.0 <= self.p < np.inf:
            raise ValueError("p must be finite and >= 1")
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_callable(cls, fn, m: int, p: float = 2.0) -> "GridFunction":
        _check_m(m)
        return cls(np.asarray(fn(_nodes(m)), dtype=complex), p)

    @property
    def m(self) -> int:
        return len(self.samples)

    def nodes(self) -> np.ndarray:
        return _nodes(self.m)

    def norm(self) -> float:
        return float((np.abs(self.samples) ** self.p).mean() ** (1.0 / self.p))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if self.m != other.m or self.p != other.p:
            raise ValueError("mismatched grid functions")
        return GridFunction(self.samples - other.samples, self.p)


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")


def _cells(tau: float, m: int) -> int:
    """tau as a whole number of cells of width 1/m."""
    return int(round(tau * m))


def _round_cells(tau: float, m: int, what: str) -> int:
    r_real = tau * m
    r = _cells(tau, m)
    if abs(r_real - r) > _ROUND_TOL:
        warnings.warn(
            f"{what} shift {tau} spans {r_real} cells; rounded to {r}",
            GridResolutionWarning, stacklevel=3)
    return r


def _shifted(samples: np.ndarray, r: int) -> np.ndarray:
    m = len(samples)
    out = np.zeros_like(samples)
    if r < m:
        out[r:] = samples[:m - r]
    return out


def apply_shift(tau: float, f: GridFunction) -> GridFunction:
    """Right shift by tau with zero fill; the zero function once tau >= 1."""
    _check_tau(tau)
    r = _round_cells(tau, f.m, "shift")
    return GridFunction(_shifted(f.samples, r), f.p)


def apply_mult_semigroup(q: Potential, tau: float, f: GridFunction) -> GridFunction:
    """Pointwise damping by e^{-tau q(t_i)}."""
    _check_tau(tau)
    return GridFunction(np.exp(-tau * q(f.nodes())) * f.samples, f.p)


def apply_exact(q: Potential, tau: float, f: GridFunction) -> GridFunction:
    """Exact evolution: damp by e^{-int_{t-tau}^t q} and shift by tau.

    tau is rounded to a whole number of cells (warning if not already);
    with the rounded tau_g the semigroup law holds to roundoff.
    """
    _check_tau(tau)
    m = f.m
    r = _round_cells(tau, m, "exact evolution")
    if r >= m:
        return GridFunction(np.zeros_like(f.samples), f.p)
    anti = q.antiderivative(f.nodes())
    out = np.zeros_like(f.samples)
    out[r:] = np.exp(-(anti[r:] - anti[:m - r])) * f.samples[:m - r]
    return GridFunction(out, f.p)


def apply_trotter(q: Potential, tau: float, n: int, f: GridFunction) -> GridFunction:
    """n alternating steps of (shift by tau/n) o (damp by tau/n).

    The step shift is rounded to r = round(tau m / n) whole cells once and
    reused, so the value landing at node i after n steps left node i - n r
    and was damped at the nodes i - n r + j r, j = 0..n-1: the left-endpoint
    sample points t - tau + j tau/n.  The product is formed on the landing
    slice out[n r:] in place, one damping slice per step in step order, so
    it costs n (m - n r) complex multiplies, allocates no per-step array,
    and equals the step-by-step product bit for bit.
    """
    _check_tau(tau)
    if n < 1:
        raise ValueError("n must be >= 1")
    m = f.m
    if 0.0 < tau * m / n < 1.0:
        warnings.warn(
            f"Trotter step tau/n = {tau / n} is below one grid cell (1/{m})",
            GridResolutionWarning, stacklevel=2)
    r_step = _round_cells(tau / n, m, "Trotter step")
    out = np.zeros_like(f.samples)
    width = m - n * r_step
    if width <= 0:
        return GridFunction(out, f.p)
    damp = np.exp(-(tau / n) * q(f.nodes())).astype(complex)
    land = out[m - width:]
    land[:] = f.samples[:width]
    for j in range(n):
        lo = j * r_step
        # damp on the left, the step loop's operand order: a complex
        # multiply with FMA need not commute bit for bit
        np.multiply(damp[lo:lo + width], land, out=land)
    return GridFunction(out, f.p)


def _symbol_gaps(q: Potential, tau: float, n: int, ts: np.ndarray) -> np.ndarray:
    """|U(t, t-tau) - V_n(t, t-tau)| at t in [tau, 1], ends checked once."""
    ss = ts - tau
    sums = left_darboux_sums(q, ts, ss, n)
    integ = q._antiderivative(ts) - q._antiderivative(ss)
    return np.abs(np.exp(-integ) - np.exp(-sums))


def _per_tau_exact(q: Potential, tau: float, n: int) -> tuple[float, float]:
    """Exact symbol sup for step potentials.

    As t moves, the n sample points and the two integral endpoints all
    translate at unit speed, so the left sum is constant and the integral
    is linear between consecutive crossings of a breakpoint.  On each such
    segment |e^{-I(t)} - e^{-S}| is monotone, hence the sup over t is
    attained at a segment endpoint (one-sided).
    """
    bp = q.step_breakpoints
    offsets = tau - np.arange(n + 1) * (tau / n)
    ev = (bp[None, :] + offsets[:, None]).ravel()
    ev = ev[(ev > tau) & (ev < 1.0)]
    ev = np.unique(np.concatenate((ev, [tau, 1.0])))
    mids = 0.5 * (ev[:-1] + ev[1:])
    sums = left_darboux_sums(q, mids, mids - tau, n)
    # tau <= ev <= 1 by construction: no end needs a check or clipping
    integ = q._antiderivative(ev) - q._antiderivative(ev - tau)
    u = np.exp(-integ)
    v = np.exp(-sums)
    phi_left = np.abs(u[:-1] - v)
    phi_right = np.abs(u[1:] - v)
    i_l = int(np.argmax(phi_left))
    i_r = int(np.argmax(phi_right))
    if phi_left[i_l] >= phi_right[i_r]:
        return float(phi_left[i_l]), float(ev[i_l])
    return float(phi_right[i_r]), float(ev[i_r + 1])


def _per_tau_grid(q: Potential, tau: float, n: int) -> tuple[float, float]:
    best = _BestTracker()
    ts = np.linspace(tau, 1.0, _T_GRID)
    _grid_refine(lambda t: _symbol_gaps(q, tau, n, t), (ts,),
                 _symbol_gaps(q, tau, n, ts), (1.0 - tau) / (_T_GRID - 1),
                 tau, _T_REFINE_LEVELS, _T_TOP, best)
    return best.value, best.t


def _per_tau_norm_argmax(q: Potential, tau: float, n: int) -> tuple[float, float]:
    """(symbol sup, its t) at one tau: the exact event decomposition for
    step potentials, the refined grid otherwise."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if tau == 0.0 or tau >= 1.0:
        # identity difference, or support shifted out of [0, 1]
        return 0.0, 1.0
    if q.step_breakpoints is not None:
        return _per_tau_exact(q, tau, n)
    return _per_tau_grid(q, tau, n)


def per_tau_operator_norm(q: Potential, tau: float, n: int) -> float:
    """L^p operator norm of (exact evolution - n-step splitting) at one tau.

    Equals the sup over t in [tau, 1] of the scalar symbol
    |U(t, t-tau) - V_n(t, t-tau)| and is therefore the same for every p.
    """
    return _per_tau_norm_argmax(q, tau, n)[0]


def operator_norm_oracle(q: Potential, tau: float, n: int, p: float,
                         m: int = 65536) -> float:
    """The discrete L^p norm of exact evolution minus the n-step splitting.

    Reads only the two discretized operators: both are applied once to the
    constant function 1 on an m-point grid, and their outputs are indexed
    by source cell, a_k and b_k.  When the two rounded shifts agree (they
    do whenever tau m / n is an integer) the difference is a weighted
    shift, whose norm is max_k |a_k - b_k| for every p.  Otherwise the
    value is the unit-delta lower bound max_k (|a_k|^p + |b_k|^p)^(1/p).
    m above ``_M_MAX`` raises a ResourceLimitError.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    _check_m(m)
    one = GridFunction(np.ones(m), p)
    r, s = _cells(tau, m), n * _cells(tau / n, m)
    # index by source cell; the cells that wrap around are zero-filled
    a = np.roll(apply_exact(q, tau, one).samples, -r)
    b = np.roll(apply_trotter(q, tau, n, one).samples, -s)
    if r == s:
        return float(np.abs(a - b).max())
    return float(np.max((np.abs(a) ** p + np.abs(b) ** p) ** (1.0 / p)))


def strong_convergence_curve(q: Potential, f: GridFunction, tau: float,
                             ns: list[int]) -> list[tuple[int, float]]:
    """Residuals ||exact f - splitting_n f||_p along an increasing n list.

    tau must lie in [0, 1) and round to fewer than m cells: otherwise both
    evolutions shift every sample off [0, 1], and every residual would be
    a vacuous 0.
    """
    _check_tau(tau)
    if tau >= 1.0:
        raise ValueError(f"tau must be < 1, got {tau}")
    if _cells(tau, f.m) >= f.m:
        raise ValueError(f"tau {tau} rounds to the whole m = {f.m} cell "
                         f"grid: every residual would be a vacuous 0")
    if not ns:
        raise ValueError("ns must be non-empty")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")
    exact = apply_exact(q, tau, f)
    return [(n, (exact - apply_trotter(q, tau, n, f)).norm()) for n in ns]
