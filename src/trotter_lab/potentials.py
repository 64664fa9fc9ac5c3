"""Families of bounded non-negative potentials q on [0, 1].

Each potential knows how to evaluate itself at scalar or array arguments,
carries a certified upper bound on its sup norm, and has a closed-form
antiderivative.  ``Constant`` is the zero-slope ``Linear``.  Discontinuous
families keep exact rational breakpoints so that downstream quadrature is
exact.  The family rules that the search, the semigroup and the rate
checks read are methods: the certified left-sum error bound over windows
up to a given width (every family has one), corner hints, the dyadic
corner floor, step breakpoints, and the lattice sums `lattice_sums` at
every n: the family's kernel by default, a fine grid of q where it fits
(`_fine_grid_sums`) for tent trains and for steps with at least n jumps,
a piece count on fine-grid indices for the other steps, angle addition
for Weierstrass.
``from_spec`` alone turns kind names, aliases and parameters (such as a
tent train's ``harmonic=L``) into potentials, and rejects unread ones.

Value convention at jumps: a piecewise potential takes the value of the
piece on [a, b) at its left endpoint, and the value of the last piece at
t = 1.  This pins an everywhere-defined representative; it differs from
the underlying a.e. class only on the finite breakpoint set.

Step potentials keep two tables over the 2^16 dyadic cells
[c/2^16, (c+1)/2^16): the value of each cell's piece (float64, 512 kB),
NaN where a breakpoint splits the cell, and the piece of each cell's left
edge (int32, 256 kB).  A sample reads the value table once; a point in a
split cell starts at its cell's first piece and compares itself with each
breakpoint the cell holds, so the result is the same as a binary search
(``searchsorted``) over the breakpoints, which runs only at construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError

# Absolute slop tolerated on domain checks; protects against roundoff in
# sample-point generation (s + k*(t-s)/n can land 1 ulp outside [0, 1]).
_DOMAIN_SLOP = 1e-12
# Default of from_spec's ``param`` for a parameter that a kind needs.
_REQUIRED = object()
# Block sizes of the two left-sum kernels: pair x breakpoint elements per
# block of the piece-count kernel (lattice rows by every column, per
# block of its lattice count), sample points per block of the sampled
# one.  A block's handful of float64 temporaries (256 kB each) then stays
# within a 2 MiB L2 cache, where multi-MB blocks ran up to 2.5x slower; in
# a sweep over 2^14, 2^15 and 2^16, 2^15 was fastest or tied on both
# kernels.  Row sums do not depend on the block, so the size changes no
# result.
_PIECE_BLOCK = 1 << 15
_SAMPLE_CHUNK = 1 << 15
# The fine grid gathers the windows of a stride by index, not by one copy
# per stride, while the stride holds at most 2^10 samples: at G = 256 that
# was fastest or tied at every n from 2 to 1024 among 2^10, 2^11 and 2^12,
# and gathering every stride slowed n = 16 to 128 by up to a quarter.
_GATHER_MAX = 1 << 10
# TentTrain tabulates its first levels on a dyadic node grid; 16 levels
# take 2^17 + 1 nodes, about 3 MB for the three tables.
_TENT_TABLE_LEVELS = 16
# PiecewiseConstant tabulates 2^16 + 1 dyadic cells: a float64 value table
# (512 kB) and an int32 first-piece table (256 kB), 768 kB per potential.
_STEP_TABLE_BITS = 16
# Cap on the raw interval count of a fat-Cantor construction; depth 18 is
# the deepest under it.
_CANTOR_MAX_PIECES = 1 << 20
# The fine grid of (G - 1) n + 1 points of q (`_fine_grid_sums`) serves n
# while it fits a memory budget of 2^21 + 1 points (16 MiB, n <= 8224 at G
# = 256); the kernel sums larger n.
_FINE_MAX = (1 << 21) + 1
# Cap on the sampled kernel's n: a block row holds n samples, and a search
# at n = 2^22 on a lattice of 2 points per axis peaks at 223 MiB.  Closed
# forms take any n.
_SAMPLE_MAX = 1 << 22
# Cap on the piece count's n: its counts k <= n step by one, exact while k
# + 1 is a whole float (above 2^53 it rounds back to k); the cap keeps a
# factor of 2 below that.
_PIECE_MAX = 1 << 52
# E: 32 units of 2^-53, above the 20 that bound |sample - fine point|
_FINE_SLOP = 2.0 ** -48
# numpy's float64 sin and cos are taken to lie within _TRIG_ERR units of
# 2^-53 of the true value at every argument (a test checks this against
# mpmath); the Weierstrass lattice slop rests on it.
_TRIG_ERR = 4


def _as_domain_array(t) -> tuple[np.ndarray, bool]:
    """Validate t against [0, 1] and return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    lo = arr.min(initial=0.0)
    hi = arr.max(initial=1.0)
    # min and max propagate NaN, so no separate isnan pass is needed
    if lo != lo or hi != hi:
        raise ValueError("potential argument is NaN")
    if lo < -_DOMAIN_SLOP or hi > 1.0 + _DOMAIN_SLOP:
        raise ValueError(
            f"potential argument outside [0, 1]: range [{lo}, {hi}]"
        )
    if lo < 0.0 or hi > 1.0:
        arr = np.clip(arr, 0.0, 1.0)
    return arr, scalar


def _samples_left_of(b: np.ndarray, t: np.ndarray, s: np.ndarray,
                     n: int) -> np.ndarray:
    """#{k < n : s + (t-s)*(k/n) < b} for column pairs t >= s and row b.

    Estimates ceil((b-s)/h) and checks it in one pass against both
    neighbouring sample points, computed with the sampled kernel's own
    expression; only the pairs that check rejects then step by one until
    their points straddle b.  The points are non-decreasing in k, so the
    count matches the sampled kernel's right-open convention bit for bit.
    """
    w = t - s
    h = w / n
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.clip(np.ceil((b - s) / h), 0, n)
    # h == 0 puts every sample at s; rows with t < s (h < 0) start at 0 or
    # n, are never stepped, and are resampled by the caller
    flat = h[:, 0] <= 0
    k[flat] = np.where(s[flat] < b, n, 0)
    down, up = _misplaced(b, s, w, k, n)
    if (down | up).any():
        off = np.nonzero(down | up)
        b, s, w = (np.broadcast_to(x, k.shape)[off] for x in (b, s, w))
        kk, down, up = k[off], down[off], up[off]
        while (down | up).any():
            kk = kk + up - down
            down, up = _misplaced(b, s, w, kk, n)
        k[off] = kk
    return k


def _misplaced(b, s, w, k, n):
    """(down, up): where sample k - 1 is not left of b, and where sample k
    still is.  A whole float k gives the sample points of integer k."""
    return ((k > 0) & (s + w * ((k - 1) / n) >= b),
            (k < n) & (s + w * (k / n) < b))


def _check_piece_count(n):
    if n > _PIECE_MAX:
        raise ResourceLimitError(f"n {n} > cap {_PIECE_MAX} of the "
                                 f"piece-count kernel")


def _fine_points(m, h, a):
    """Fine grid points fl(fl(m h) + a) at whole numbers m, over m."""
    m *= h
    m += a
    return m


def _fine_points_left_of(c, h, a, size):
    """#{m < size : y_m < c} for each entry of c, y_m = `_fine_points`(m,
    h, a): the estimate ceil((c - a)/h), stepped by one until y_m straddles
    c.  y_m does not decrease in m, so the steps end at the count."""
    m = np.clip(np.ceil((c - a) / h), 0, size)
    while True:
        up = (m < size) & (_fine_points(m.copy(), h, a) < c)
        down = (m > 0) & (_fine_points(m - 1, h, a) >= c)
        if not (up.any() or down.any()):
            return m.astype(np.int64)
        m += up
        m -= down


def _fine_grid_sums(q, lattice, n, e, breakpoints=None):
    """n's left sums of q on the windows of ``lattice`` off the fine grid
    q(y_m), m <= (G - 1) n, allocated per n, with the caller's slop e (see
    `Potential.lattice_sums`), proved for samples that each move at most E
    = ``_FINE_SLOP``.  A grid over ``_FINE_MAX`` gives q's own `left_sums`,
    e = 0.

    The fine-grid lemma.  Sample k of window (x_i, x_j), fl(fl(fl(x_i -
    x_j) fl(k/n)) + x_j) with x_i = fl(fl(i fl(fl(1 - a)/(G - 1))) + a) and
    a = ``lattice.axis[0]``, and y_m = `_fine_points`(m, fl(fl(1 - a)/((G -
    1) n)), a) at m = jn + (i - j)k both approximate Y_m = a + (1 - a)
    m/((G - 1) n).  With u = 2^-53 and values in [0, 1 + 20u], x_i and y_m
    (three roundings of a product <= 1, one of a sum) lie within 4u of
    theirs, the width within 9u, its product with fl(k/n) <= 1 within 11u
    and the sample within 16u, so |sample - y_m| <= 20u(1 + O(u)) < E,
    for every n with (G - 1) n < 2^53, so that each m is a whole float.

    A step potential, whose ``breakpoints`` are given, has q(sample) =
    q(y_m) unless a breakpoint lies within E of y_m (clipping into [0, 1]
    only moves a sample towards y_m): such y_m read NaN, and the windows
    that read one are resampled.  Numpy sums a strided row pairwise, as the
    sampled kernel does its contiguous rows, while its stride d = i - j is
    below n; the rows with d >= n are gathered a block at a time, by their
    sample indices, and summed as contiguous rows.
    """
    grid = len(lattice.axis)
    size = (grid - 1) * n + 1
    if size > _FINE_MAX:
        return q.left_sums(lattice.ts, lattice.ss, n), 0.0
    fine = np.empty(size)
    a = lattice.axis[0]
    h = (1.0 - a) / ((grid - 1) * n)
    for lo in range(0, size, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, size)
        fine[lo:hi] = q(_fine_points(np.arange(lo, hi, dtype=float), h, a))
    if breakpoints is not None:
        # the fine points within E of a breakpoint, four around each
        bp = breakpoints[1:-1, None]
        near = np.clip(np.floor((bp - a) / h) + np.arange(-1.0, 3.0),
                       0, size - 1)
        hit = np.abs(_fine_points(near.copy(), h, a) - bp) <= _FINE_SLOP
        fine[near[hit].astype(np.intp)] = np.nan
    starts = lattice.starts
    sums = np.empty(len(lattice.ts))

    def rows(d):  # the windows (j + d, j), j < G - d, as strided rows
        return np.ndarray((grid - d, n), buffer=fine,
                          strides=(n * fine.itemsize, d * fine.itemsize))

    for d in range(min(n, grid)):
        sums[starts[:grid - d] + d] = rows(d).sum(axis=1)
    # a stride d >= n of more than _GATHER_MAX samples is copied, a block
    # of strides at a time; the windows of the shorter strides, d >= cut,
    # are gathered by their sample indices jn + dk, a block at a time
    cut = min(grid, max(n, grid - _GATHER_MAX // n))
    block = np.empty((max(_SAMPLE_CHUNK // n, grid - n), n))
    at = np.empty(len(block), np.intp)
    used = 0
    for d in range(n, cut):
        if used + grid - d > len(block):
            sums[at[:used]] = block[:used].sum(axis=1)
            used = 0
        block[used:used + grid - d] = rows(d)
        at[used:used + grid - d] = starts[:grid - d] + d
        used += grid - d
    sums[at[:used]] = block[:used].sum(axis=1)
    # s-major, row j holds the gathered windows d = cut .. G - 1 - j, and
    # its first is number first[j] of them; row d - cut of dk is dk, k < n
    first = np.append(0, np.cumsum(np.arange(grid - cut, 0, -1)))
    dk = np.multiply.outer(np.arange(cut, grid), np.arange(n))
    step = max(1, _SAMPLE_CHUNK // n)
    for p0 in range(0, first[-1], step):
        p1 = min(p0 + step, int(first[-1]))
        j = np.arange(bisect_right(first, p0) - 1, bisect_left(first, p1))
        j = np.repeat(j, np.minimum(first[j + 1], p1)
                      - np.maximum(first[j], p0))
        d = np.arange(p0, p1) - first[j]
        m = np.take(dk, d, axis=0).ravel()
        m += np.repeat(j * n, n)
        d += cut
        sums[starts[j] + d] = np.take(fine, m).reshape(-1, n).sum(axis=1)
    sums /= n
    sums *= lattice.ts - lattice.ss
    bad = np.isnan(sums)
    sums[bad] = Potential.left_sums(q, lattice.ts[bad], lattice.ss[bad], n)
    return sums, np.float64(e)


@dataclass(frozen=True)
class HolderCertificate:
    """Certifies |q(x) - q(y)| <= constant * |x - y|**beta on [0, 1]."""

    beta: float
    constant: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("Holder exponent must lie in (0, 1]")
        if not 0.0 <= self.constant < math.inf:
            raise ValueError("Holder constant must be >= 0 and finite")

    def error_bound(self, n: int, width: float = 1.0) -> float:
        """L w^{1+beta} / n^beta: each of the n steps of length h = w/n errs
        by at most L h^{1+beta}, so this bounds any n-step left-sum error
        over a window of length t - s <= w."""
        return self.constant * width ** (1.0 + self.beta) / float(n) ** self.beta


class Potential:
    """A bounded measurable q: [0, 1] -> [0, inf).

    Attributes:
        kind: family tag, e.g. "Linear" or "CantorIndicator".
        sup_norm: a valid upper bound for ess sup |q|.
        holder_meta: optional HolderCertificate.
        step_breakpoints: float breakpoints 0 = b_0 < ... < b_K = 1 where a
            step function jumps, or None for every other family.
    """

    kind: str = "Abstract"
    step_breakpoints: np.ndarray | None = None

    def __init__(self, sup_norm: float,
                 holder_meta: HolderCertificate | None = None):
        if not 0.0 <= sup_norm < math.inf:
            raise ValueError("sup_norm must be >= 0 and finite")
        self.sup_norm = float(sup_norm)
        self.holder_meta = holder_meta

    def __call__(self, t):
        """Evaluate q(t) for scalar or array t in [0, 1]."""
        arr, scalar = _as_domain_array(t)
        out = self._eval(arr)
        return float(out[0]) if scalar else out

    def antiderivative(self, t):
        """Return the running integral of q from 0 to t, in closed form."""
        arr, scalar = _as_domain_array(t)
        out = self._antiderivative(arr)
        return float(out[0]) if scalar else out

    def certified_upper_bound(self, n: int, width: float = 1.0) -> float:
        """A proven ceiling on every n-step left-sum error over a window of
        length t - s <= ``width``, for n >= 1 and width in [0, 1]; by
        default the Holder bound L width^{1+beta} / n^beta.  Families
        without a Holder certificate override ``_window_bound``."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= width <= 1.0:
            raise ValueError(f"window width must lie in [0, 1], got {width}")
        return self._window_bound(n, width)

    def _window_bound(self, n: int, width: float) -> float:
        return self.holder_meta.error_bound(n, width)

    def corner_hints(self, n: int = 1) -> list[tuple[float, float]]:
        """Windows (t, s) known to nearly maximize the left-sum error at n,
        which a sup search probes first; none by default."""
        return []

    def corner_floor(self, m: int) -> float | None:
        """A proven lower bound on the left-sum error at the long-window
        corner (1, 0+) for n = 2^m, or None when the family has none."""
        return None

    def left_sum_kernel(self, n: int) -> str:
        """Which kernel `left_sums` runs at n: "closed-form", "piece-count"
        or "sampled" (the base class's `left_sums`); a search's trace label,
        which names the kernel of its hints, refinement rounds and
        recompute, not the body of `lattice_sums`."""
        return "sampled"

    def lattice_sums(self, lattice, n: int):
        """n's left sums on the windows of a search's ``lattice`` (a
        `sup_search.Lattice`) and a float64 e >= 0 with |sums -
        left_sums| <= e (t - s) on every window.  By default they are
        `left_sums`, e = 0: the windows lie in [a, 1] and need no check.
        """
        return self.left_sums(lattice.ts, lattice.ss, n), 0.0

    def left_sums(self, t: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
        """Left Riemann sums over the windows [s_i, t_i] on n equal steps.

        ``t`` and ``s`` are matching 1-D float arrays whose entries
        ``quadrature.left_darboux_sums`` has already checked against [0, 1],
        so exact kernels check nothing.  This default, the sampled kernel,
        samples q at s + (t-s)*(k/n), k < n, about ``_SAMPLE_CHUNK`` points
        at a time in one buffer, checked (and clipped) through ``__call__``.
        Families with an exact kernel override it; the callers that resample
        windows call it directly, and tests keep it as their reference.  n
        above ``_SAMPLE_MAX`` raises a ResourceLimitError before any
        allocation.
        """
        if n > _SAMPLE_MAX:
            raise ResourceLimitError(f"n {n} > cap {_SAMPLE_MAX} of the "
                                     f"sampled left-sum kernel")
        out = np.empty(t.shape)
        block = max(1, _SAMPLE_CHUNK // n)
        frac = np.arange(n) / n
        buf = np.empty((min(block, len(t)), n))
        for i in range(0, len(t), block):
            ss = s[i:i + block, None]
            w = t[i:i + block, None] - ss
            xi = buf[:len(w)]
            np.multiply(w, frac, out=xi)
            xi += ss
            # the sum over n, as np.mean divides it: bit-equal, one call less
            out[i:i + block] = self(xi).sum(axis=1) / n * w[:, 0]
        return out

    def _eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _antiderivative(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict:
        """Family-specific parameters, JSON-serializable."""
        return {}

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.kind}({inner})"

    def __repr__(self):
        return self.describe()


class Linear(Potential):
    """q(t) = intercept + slope * t, constrained non-negative on [0, 1]."""

    kind = "Linear"

    def __init__(self, slope: float = 1.0, intercept: float = 0.0):
        # min and max below would pass over a NaN
        if not (math.isfinite(slope) and math.isfinite(intercept)):
            raise ValueError("linear potential parameters must be finite")
        lo = min(intercept, intercept + slope)
        if lo < 0.0:
            raise ValueError("linear potential is negative on [0, 1]")
        self.slope = float(slope)
        self.intercept = float(intercept)
        hi = max(intercept, intercept + slope)
        super().__init__(sup_norm=hi,
                         holder_meta=HolderCertificate(1.0, abs(slope)))

    def _eval(self, t):
        return self.intercept + self.slope * t

    def _antiderivative(self, t):
        return self.intercept * t + 0.5 * self.slope * t * t

    def _window_bound(self, n, width):
        """The left-sum error is exactly slope (t-s)^2 / (2n), at most
        |slope| width^2 / (2n), below the Lipschitz bound."""
        return abs(self.slope) * width * width / (2.0 * n)

    def left_sum_kernel(self, n):
        return "closed-form"

    def left_sums(self, t, s, n):
        """h * sum_k (intercept + slope*(s + k h)) with h = (t-s)/n; the
        intercept term is the antiderivative's own difference, so at slope
        0 the error is exactly 0.0."""
        h = (t - s) / n
        return (self.intercept * t - self.intercept * s
                + (t - s) * (self.slope * s)
                + self.slope * h * h * (n * (n - 1) / 2))

    def params(self):
        return {"slope": self.slope, "intercept": self.intercept}


class Constant(Linear):
    """q(t) = c, the zero-slope Linear: the commuting case, where the
    left sums are exact."""

    kind = "Constant"

    def __init__(self, c: float = 1.0):
        if not 0.0 <= c < math.inf:
            raise ValueError("constant potential must be >= 0 and finite")
        self.c = float(c)
        super().__init__(slope=0.0, intercept=c)

    def params(self):
        return {"c": self.c}


class PiecewiseConstant(Potential):
    """Right-open step function with exact rational breakpoints.

    Pieces are [b_i, b_{i+1}) with value values[i]; q(1) takes the last
    value.  Breakpoints must start at 0, end at 1, strictly increase.
    With K jumps inside (0, 1), n <= K samples q (`left_sums`) and reads a
    sweep's lattice off the fine grid; K < n counts the samples on each
    side of every jump, per window (`left_sums`) or, on a lattice, by
    fine-grid index over the windows that straddle it (`lattice_sums`).
    n is capped at ``_PIECE_MAX``.
    """

    kind = "PiecewiseConstant"

    def __init__(self, breakpoints: Sequence, values: Sequence[float]):
        bps = tuple(Fraction(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if len(bps) < 2 or len(vals) != len(bps) - 1:
            raise ValueError("need k+1 breakpoints for k pieces")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must span [0, 1]")
        if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must strictly increase")
        if not all(0.0 <= v < math.inf for v in vals):
            raise ValueError("piece values must be >= 0 and finite")
        self.breakpoints = bps
        self.values = vals
        # the float arrays keep only the jumps: equal neighbours merge
        jumps = [True, *(v0 != v1 for v0, v1 in zip(vals, vals[1:]))]
        self.step_breakpoints = np.array(
            [float(b) for b, jump in zip(bps, jumps + [True]) if jump])
        self._vals = np.array([v for v, jump in zip(vals, jumps) if jump])
        widths = np.diff(self.step_breakpoints)
        self._cum = np.concatenate(([0.0], np.cumsum(self._vals * widths)))
        # Per dyadic cell: the value of its piece, NaN where a breakpoint
        # splits it, and the piece of its left edge, stored as ~piece (< 0)
        # where split; the last entries are those of t = 1.  The binary
        # search runs here only.
        edges = np.ldexp(np.arange(2.0 ** _STEP_TABLE_BITS + 1),
                         -_STEP_TABLE_BITS)
        first = self._search_piece(edges).astype(np.int32)
        inside = np.searchsorted(self.step_breakpoints, edges[1:], side="left")
        inside -= 1 + first[:-1]  # breakpoints b with c/2^16 < b < (c+1)/2^16
        split = np.flatnonzero(inside)
        # comparisons per point in a split cell
        self._split_depth = int(inside.max())
        self._cell_val = self._vals[first]
        self._cell_val[split] = np.nan
        first[split] = ~first[split]
        self._cell_piece = first
        super().__init__(sup_norm=max(vals))

    @property
    def internal_breakpoint_count(self) -> int:
        """Number of jump locations strictly inside (0, 1)."""
        return len(self.step_breakpoints) - 2

    def _search_piece(self, t):
        idx = np.searchsorted(self.step_breakpoints, t, side="right")
        idx -= 1
        return np.clip(idx, 0, len(self._vals) - 1, out=idx)

    def _split_piece(self, first, t):
        """Piece of points t in split cells from the piece ``first`` of each
        cell's left edge: one comparison t >= b per breakpoint b the cell
        holds, moving to the next piece while t is at or right of its start.
        Points never reach 1 = b_K here, so the index stays in range."""
        bp = self.step_breakpoints
        for _ in range(self._split_depth):
            first = first + (t >= bp[first + 1])
        return first

    def _cells(self, t):
        """Dyadic cell index floor(t 2^16) of each t in [0, 1]: the product
        is exact and truncates in its cast to int."""
        return np.multiply(t, float(1 << _STEP_TABLE_BITS), casting="unsafe",
                           out=np.empty(t.shape, np.intp))

    def _piece_index(self, t):
        """Piece of each t in [0, 1]: a read of the first-piece table, then
        `_split_piece` for the points in cells that a breakpoint splits.
        The index is widened to intp, which the antiderivative's three
        gathers read faster than int32."""
        idx = np.take(self._cell_piece, self._cells(t)).astype(np.intp)
        split = idx < 0
        if split.any():
            at = np.flatnonzero(split)
            np.put(idx, at, self._split_piece(~np.take(idx, at),
                                              np.take(t, at)))
        return idx

    def _eval(self, t):
        """One read of the cell value table per point; only the points in
        split cells (NaN there) resolve their piece with `_split_piece`."""
        cells = self._cells(t)
        out = np.take(self._cell_val, cells)
        at = np.flatnonzero(np.isnan(out))
        if len(at):
            first = ~np.take(self._cell_piece, np.take(cells, at))
            np.put(out, at, np.take(self._vals,
                                    self._split_piece(first, np.take(t, at))))
        return out

    def _antiderivative(self, t):
        """cum[i] + vals[i] (t - b_i) at each point's piece i in two arrays,
        bit-equal in either order; every i is in range, and mode "clip"
        spares the gathers the bounds check that copies ``out``."""
        idx = self._piece_index(t)
        out = np.take(self.step_breakpoints, idx, mode="clip")
        np.subtract(t, out, out=out)
        part = np.take(self._vals, idx, mode="clip")
        out *= part
        out += np.take(self._cum, idx, out=part, mode="clip")
        return out

    def _window_bound(self, n, width):
        """Only steps holding one of the K jumps err, each by at most
        (t-s)/n * sup_norm: sup_norm * min(1, K/n) * width in all."""
        return (self.sup_norm * min(1.0, self.internal_breakpoint_count / n)
                * width)

    def left_sum_kernel(self, n):
        return ("piece-count" if self.internal_breakpoint_count < n
                else "sampled")

    def left_sums(self, t, s, n):
        """Counts the samples at or right of each of the K interior
        breakpoints b, in O(K) per window, when K < n: the piece-count
        kernel, about ``_PIECE_BLOCK`` window x breakpoint elements at a
        time.

        The sum is (n v_0 + sum_b (n - k_b) dv_b) / n * (t - s) with k_b the
        samples left of b (`_samples_left_of`) and dv_b the jump at b,
        which for integer-valued steps is bit-equal to the sampled mean.
        Windows with t < s, whose samples run right to left, are sampled.
        n above ``_PIECE_MAX`` raises a ResourceLimitError before any work.
        """
        _check_piece_count(n)
        if self.internal_breakpoint_count >= n:
            return super().left_sums(t, s, n)
        bp = self.step_breakpoints[1:-1]
        if not len(bp):  # no jump: round like the antiderivative
            return self._vals[0] * t - self._vals[0] * s
        jumps = np.diff(self._vals)
        out = np.empty(t.shape)
        block = max(1, _PIECE_BLOCK // len(bp))
        for i in range(0, len(t), block):
            tt = t[i:i + block, None]
            ss = s[i:i + block, None]
            k = _samples_left_of(bp, tt, ss, n)
            total = n * self._vals[0] + ((n - k) * jumps).sum(axis=1)
            out[i:i + block] = total / n * (tt[:, 0] - ss[:, 0])
        back = t < s
        if back.any():
            out[back] = Potential.left_sums(self, t[back], s[back], n)
        return out

    def lattice_sums(self, lattice, n):
        """n <= K read the fine grid (`_fine_grid_sums`), e = 0.  For K < n
        the piece count runs on fine-grid indices, and only over the
        windows that straddle a breakpoint, where (G - 1) n < 2^53; beyond
        that, and without jumps, the sums are `left_sums`, e = 0.  n above
        ``_PIECE_MAX`` raises a ResourceLimitError before any work.

        The count.  By the fine-grid lemma (`_fine_grid_sums`), sample k of
        window (x_i, x_j) lies within E = ``_FINE_SLOP`` of the fine point
        y_m, m = jn + dk, d = i - j, and y_m does not decrease in m.  Let
        M_b count the fine points left of fl(b + E), and M'_b those left of
        fl(b - E) (`_fine_points_left_of`).  A window that reads no m with
        M'_b <= m < M_b has its samples left of b exactly at m < M_b, so
        k_b = ceil((M_b - jn)/d), clipped to [0, n].  That is 0 on the rows
        jn >= M_b, which add n dv_b through a prefix sum over the
        breakpoints, and n on the columns in < M_b, which add nothing; on
        the rectangle between, the rows j < J_b = ceil(M_b/n) by the
        columns i >= J_b, n - k_b = floor((in - M_b)/d).  That quotient of
        whole floats below 2^53 lies at least 1/d from any whole number it
        is not, beyond its rounding error, so its float floor is exact.  A
        window that reads some m in [M'_b, M_b) lies in the rows j < J_b
        by the columns i >= ceil(M'_b/n); when that range is not empty,
        those windows are summed again with `left_sums`, as the windows of
        `_fine_grid_sums` that read a NaN are.

        The slop.  Every total adds the products fl(n v_0) and fl((n - k_b)
        dv_b) that `left_sums` adds, in another order and without its
        zeros.  If every value is whole and n V < 2^53, V = v_0 + sum_b
        |dv_b|, each partial sum is whole and below 2^53, so exact: the
        sums are bit-equal, e = 0.  Otherwise, with u = 2^-53, each order
        errs by at most K u n V (1 + O(Ku)), and each path's division by n
        and product with w = t - s add 2 u n V w / n, so e = 4 (K + 2) u V,
        a margin of 2 for the dropped O(Ku) terms, bounds |sums -
        left_sums| / w.
        """
        _check_piece_count(n)
        k = self.internal_breakpoint_count
        if k >= n:
            return _fine_grid_sums(self, lattice, n, 0.0,
                                   self.step_breakpoints)
        grid = len(lattice.axis)
        if not k or (grid - 1) * n >= 2 ** 53:  # no jump, or the lemma fails
            return self.left_sums(lattice.ts, lattice.ss, n), 0.0
        a = lattice.axis[0]
        size = (grid - 1) * n + 1
        h = (1.0 - a) / ((grid - 1) * n)
        bp = self.step_breakpoints[1:-1]
        hi = _fine_points_left_of(bp + _FINE_SLOP, h, a, size)  # M_b
        lo = _fine_points_left_of(bp - _FINE_SLOP, h, a, size)  # M'_b
        first = -(-hi // n)  # J_b, which does not decrease in b
        jumps = np.diff(self._vals)
        # row j's total from the breakpoints with J_b <= j: n v_0 + n dv_b
        below = np.cumsum(np.bincount(first, minlength=grid + 1))[:grid]
        base = np.cumsum(np.append(n * self._vals[0], n * jumps))[below]
        near = np.flatnonzero(lo < hi)
        cols = np.arange(grid, dtype=float)
        col_n = cols * n
        starts = lattice.starts
        sums = np.empty(len(lattice.ts))
        again = []
        # per block of rows j0 .. j1 - 1 by every column i: d = i - j, the
        # totals, one term and the windows i >= j, reused block to block
        step = max(1, _PIECE_BLOCK // grid)
        d_rows, total_rows = np.empty((2, step, grid))
        part = np.empty(step * grid)
        upper_rows = np.empty((step, grid), bool)
        for j0 in range(0, grid, step):
            j1 = min(j0 + step, grid)
            d = np.subtract(cols, np.arange(j0, j1, dtype=float)[:, None],
                            out=d_rows[:j1 - j0])
            upper = np.greater_equal(d, 0, out=upper_rows[:j1 - j0])
            total = total_rows[:j1 - j0]
            total[:] = base[j0:j1, None]
            for b in range(below[j0], k):
                if first[b] >= grid:
                    break
                r, c = min(j1, first[b]) - j0, first[b]
                ahead = np.divide(col_n[c:] - hi[b], d[:r, c:], out=part[
                    :r * (grid - c)].reshape(r, grid - c))
                np.floor(ahead, out=ahead)
                ahead *= jumps[b]
                total[:r, c:] += ahead
            if len(near):  # rows j < J_b by columns i >= ceil(M'_b/n)
                bad = np.zeros(d.shape, bool)
                for b in near:
                    bad[:max(0, min(j1, first[b]) - j0), -(-lo[b] // n):] = 1
                again.append(starts[j0] + np.flatnonzero(bad[upper]))
            out = sums[starts[j0]:starts[j1]]
            out[:] = total[upper]
            out /= n
            out *= np.subtract(lattice.ts[starts[j0]:starts[j1]],
                               lattice.ss[starts[j0]:starts[j1]],
                               out=total.ravel()[:len(out)])
        if again:
            again = np.concatenate(again)
            sums[again] = self.left_sums(lattice.ts[again],
                                         lattice.ss[again], n)
        v = self._vals[0] + np.abs(jumps).sum()
        if n * v < 2.0 ** 53 and np.all(self._vals == np.floor(self._vals)):
            return sums, 0.0
        return sums, 4.0 * (k + 2) * 2.0 ** -53 * v

    def params(self):
        return {"breakpoints": [str(b) for b in self.breakpoints],
                "values": list(self.values)}


class HolderWeierstrass(Potential):
    """Lacunary cosine sum, Holder continuous of exponent beta.

    q(t) = (M + sum_j 2^{-j beta} cos(2^j pi t)) / (2M) with
    M = sum_j 2^{-j beta}, so 0 <= q <= 1 for every beta and level count.
    Left sums come in closed form (`left_sums`); a sweep's lattice sums
    come by angle addition from per-sweep phase tables, within a slop that
    `lattice_sums` proves.
    """

    kind = "HolderWeierstrass"

    def __init__(self, beta: float, levels: int):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        # pi 2^levels, the top frequency, overflows past 1022 levels
        if not 1 <= levels <= 1022:
            raise ValueError(f"levels must lie in [1, 1022], got {levels}")
        self.beta = float(beta)
        self.levels = int(levels)
        j = np.arange(1, levels + 1)
        self._amps = 2.0 ** (-beta * j)
        self._freqs = np.pi * 2.0 ** j
        self._m = float(self._amps.sum())
        # termwise: |cos a - cos b| <= min(2, |a-b|) <= 2^{1-beta}|a-b|^beta
        lip = (2.0 ** (1.0 - beta)) * (np.pi ** beta) * levels / (2.0 * self._m)
        super().__init__(sup_norm=1.0, holder_meta=HolderCertificate(beta, lip))

    def _eval(self, t):
        acc = np.full_like(t, self._m)
        for a, w in zip(self._amps, self._freqs):
            acc += a * np.cos(w * t)
        return acc / (2.0 * self._m)

    def _antiderivative(self, t):
        acc = self._m * t
        for a, w in zip(self._amps, self._freqs):
            acc += a * np.sin(w * t) / w
        return acc / (2.0 * self._m)

    def left_sum_kernel(self, n):
        return "closed-form"

    def _width_terms(self, h, n, j, a):
        """fl(a r_j) and y_j = fl((n - 1) d_j) at the steps h, level j.

        th/pi = 2^{j-1} h is an exact ldexp; shifting it by an integer
        leaves the Dirichlet sum unchanged, so only its offset d_j in
        [-1/2, 1/2] from the nearest integer enters, and r_j = sin(pi n
        d_j)/sin(pi d_j) stays accurate to a few ulps of n near resonance
        and is n at resonance (d_j == 0).
        """
        d = np.ldexp(h, j - 1)
        d -= np.rint(d)
        resonant = d == 0.0
        safe = np.where(resonant, 0.5, d)
        ratio = np.where(resonant, float(n),
                         np.sin(np.pi * n * safe) / np.sin(np.pi * safe))
        return a * ratio, (n - 1) * d

    def left_sums(self, t, s, n):
        """Sums each level in closed form with the Dirichlet kernel

            sum_k cos(w(s + k h)) = sin(n th)/sin(th) * cos(w s + (n-1) th)

        with th = w h / 2, in units of pi: level j adds fl(a_j r_j) cos(pi
        (x_j + y_j)) with x_j = fmod(2^j s, 2), exact, and r_j, y_j from
        `_width_terms`.  Those depend on h alone, so they are computed once
        per distinct h, which lattices share, and gathered.
        """
        h = (t - s) / n
        uh, at = np.unique(h, return_inverse=True)
        at = at.reshape(h.shape)
        acc = np.zeros_like(h)
        for j, a in enumerate(self._amps, start=1):
            ar, y = self._width_terms(uh, n, j, a)
            phase = np.fmod(np.ldexp(s, j), 2.0) + y[at]
            acc += ar[at] * np.cos(np.pi * phase)
        return (t - s) * (self._m + acc / n) / (2.0 * self._m)

    def _phase_tables(self, lattice):
        """A sweep's tables: each window's index j U + u into a G x U table
        (j its s point, u its width among the U distinct ones), the widths,
        and the s-phases (cos pi x_j, -sin pi x_j) at the G points, for the
        levels up to the last one with some x_j != 0, plus a column of ones
        for the levels above it (2^j s is then even, so x_j = 0 at every
        point)."""
        g = len(lattice.axis)
        widths, key = np.unique(lattice.ts - lattice.ss, return_inverse=True)
        key += np.repeat(np.arange(g) * len(widths), np.diff(lattice.starts))
        key = key.astype(np.int32 if g * len(widths) < 2 ** 31 else np.intp)
        cols = []
        for j in range(1, self.levels + 1):
            px = np.pi * np.fmod(np.ldexp(lattice.axis, j), 2.0)
            if not px.any():
                cols.append(np.ones(g))
                break
            cols += [np.cos(px), -np.sin(px)]
        return key, widths, np.stack(cols, axis=1)

    def lattice_sums(self, lattice, n):
        """The lattice sums by angle addition: level j's term is

            fl(a_j r_j) cos(pi (x_j + y_j))
              = fl(a_j r_j) (cos pi x_j cos pi y_j - sin pi x_j sin pi y_j),

        so the level sum of window (s point j, width u) is entry (j, u) of
        the product of the G x 2L s-phase table (per sweep, `_phase_tables`)
        and the 2L x U table of width factors fl(a_j r_j) (cos, sin)(pi
        y_j), built per n over the U distinct widths, a block of levels and
        of table rows at a time, each at most 2^15 entries.

        Slop.  With u = 2^-53, p = fl(pi) and K = _TRIG_ERR, both paths take
        x_j, y_j and R_j = fl(a_j r_j) bit for bit from the same floats,
        |x_j| < 2 and |y_j| <= (n - 1)/2.  Against R_j cos(p (x_j + y_j)):
        the table's angles fl(p x_j) and fl(p y_j) are off by at most p u
        |x_j| and p u |y_j|, and cos a cos b - sin a sin b is cos(a + b), so
        its term is off by p u (2 + |y_j|) |R_j|, plus 4 K u |R_j| from its
        four sines and cosines (each factor at most 1 in size) and u |R_j|
        from rounding R_j (cos, sin); the closed form rounds x_j + y_j and
        then p (x_j + y_j), an angle error of 2 p u (2 + |y_j|), plus K u
        |R_j| from its cosine and u |R_j| from the product.  Summing the L
        terms, or the 2L table products (|cos a cos b| + |sin a sin b| <=
        1), in any order adds at most (L + 2L) u sum_j |R_j|.  So the two
        level sums differ by at most D = u A (3 p (2 + (n - 1)/2) + 5K + 2
        + 3L), A = sum_j max |R_j| read off the computed R_j.  Both finish
        with fl(fl(w fl(M + fl(acc/n)))/(2M)) on w = t - s; |acc|/n <= A/n
        <= M to roundoff, since |r_j| <= n, so each path's four roundings
        add at most 3.5 u w, and e = 4 (D/(2 M n) + 7 u), a margin of 4 for
        the dropped O(u^2) terms, bounds |sums - left_sums| / w.  As A <= n M
        to roundoff, e is at most 2 u (3 p (2 + (n - 1)/2) + 5K + 16 + 3L):
        5.5e-13 at n = 512 and 10 levels.
        """
        tables = lattice.cache.get("weierstrass")
        if tables is None:
            tables = lattice.cache["weierstrass"] = self._phase_tables(lattice)
        key, widths, phases = tables
        g, nw = phases.shape[0], len(widths)
        starts = lattice.starts
        table = np.empty((max(1, _SAMPLE_CHUNK // nw), nw))
        acc = np.zeros(len(key))

        def add(w, p):
            # acc += (p @ w)[j, u] at each window, a block of rows j at a
            # time; row j's widths are at most 1 - x_j, so a block needs
            # the widths up to that of its first row's widest window
            for r0 in range(0, g, len(table)):
                r1 = min(r0 + len(table), g)
                lo, hi = starts[r0], starts[r1]
                idx = key[lo:hi] - r0 * nw
                span = idx[starts[r0 + 1] - 1 - lo] + 1
                np.einsum("ik,kj->ij", p[r0:r1], w[:, :span],
                          out=table[:r1 - r0, :span])
                acc[lo:hi] += np.take(table, idx)

        uh = widths / n
        block = np.empty((max(2, _SAMPLE_CHUNK // nw // 2 * 2), nw))
        tail = np.zeros(nw)
        top = phases.shape[1] // 2  # levels in the table; the rest x_j = 0
        col = used = 0
        amp = 0.0
        for j, a in enumerate(self._amps, start=1):
            ar, y = self._width_terms(uh, n, j, a)
            amp += np.abs(ar).max()
            py = np.pi * y
            if j > top:
                tail += ar * np.cos(py)
                continue
            np.multiply(ar, np.cos(py), out=block[used])
            np.multiply(ar, np.sin(py), out=block[used + 1])
            used += 2
            if used == len(block) or j == top:
                add(block[:used], phases[:, col:col + used])
                col, used = col + used, 0
        if self.levels > top:
            add(tail[None], phases[:, -1:])
        acc /= n
        acc += self._m
        acc *= lattice.ts - lattice.ss
        acc /= 2.0 * self._m
        u = 2.0 ** -53
        level_err = u * amp * (3.0 * np.pi * (2.0 + (n - 1) / 2.0)
                               + 5 * _TRIG_ERR + 2 + 3 * self.levels)
        return acc, 4.0 * (level_err / (2.0 * self._m * n) + 7.0 * u)

    def params(self):
        return {"beta": self.beta, "levels": self.levels}


def _add_tent_values(acc: np.ndarray, t: np.ndarray, levels) -> np.ndarray:
    """Add sum_j a_j tri(frac(2^j t)) over (j, a_j) in ``levels`` to acc."""
    for j, a in levels:
        z = np.ldexp(t, j)          # 2^j * t, exact scaling
        u = z - np.floor(z)
        acc += a * (1.0 - np.abs(2.0 * u - 1.0))
    return acc


def _add_tent_integrals(acc: np.ndarray, t: np.ndarray, levels) -> np.ndarray:
    """Add the integrals from 0 to t of the tents in ``levels`` to acc."""
    for j, a in levels:
        z = np.ldexp(t, j)
        k = np.floor(z)
        u = z - k
        tent_int = np.where(u <= 0.5, u * u, 2.0 * u - u * u - 0.5)
        acc += a * np.ldexp(0.5 * k + tent_int, -j)
    return acc


class TentTrain(Potential):
    """Superposition of periodic tents vanishing on dyadic grids.

    Level j contributes a_j * tri(frac(2^j t)) with tri(u) = 1 - |2u - 1|:
    a tent of height a_j and period 2^{-j} that is zero at every k/2^j.
    Left Darboux sums on the dyadic grid of step 2^{-m} therefore miss
    every level j >= m entirely, which is the point of the family.

    Evaluation reads node tables for the first min(L, 16) levels: one
    lookup and one linear (or, for the antiderivative, quadratic) cell term
    per point, instead of one pass per level.
    """

    kind = "TentTrain"

    def __init__(self, amplitudes: Sequence[float]):
        amps = tuple(float(a) for a in amplitudes)
        if not all(0.0 < a < math.inf for a in amps):
            raise ValueError("tent amplitudes must be > 0 and finite")
        # 2^(j + 1) in the Holder constant overflows past 1022 levels
        if len(amps) > 1022:
            raise ValueError(f"a tent train takes at most 1022 levels, got "
                             f"{len(amps)}")
        self.amplitudes = amps
        self.levels = len(amps)
        lip = sum(a * 2.0 ** (j + 1) for j, a in enumerate(amps, start=1))
        super().__init__(sup_norm=sum(amps),
                         holder_meta=HolderCertificate(1.0, lip))
        # Levels 1..J kink only on the nodes k/2^(J+1), between which q is
        # linear and its integral quadratic.  Tabulate q and the integral at
        # the nodes with the per-level formulas, so both are bit-exact there;
        # levels above J are added per level on top of the table.
        levels = list(enumerate(amps, start=1))
        table_levels = min(self.levels, _TENT_TABLE_LEVELS)
        self._table_bits = table_levels + 1
        self._tail = levels[table_levels:]
        nodes = np.ldexp(np.arange(2.0 ** self._table_bits + 1),
                         -self._table_bits)
        head = levels[:table_levels]
        self._node_q = _add_tent_values(np.zeros_like(nodes), nodes, head)
        # dq[-1] = 0 so that t = 1 reads the last node with offset 0
        self._node_dq = np.append(np.diff(self._node_q), 0.0)
        self._node_int = _add_tent_integrals(np.zeros_like(nodes), nodes,
                                             head)

    def _cell(self, t):
        """Node index i and offset u in [0, 1) with t = (i + u) / 2^(J+1)."""
        z = np.ldexp(t, self._table_bits)
        i = np.floor(z)
        z -= i
        return i.astype(np.intp), z

    def _eval(self, t):
        i, u = self._cell(t)
        acc = np.take(self._node_dq, i)
        acc *= u
        acc += np.take(self._node_q, i)
        return _add_tent_values(acc, t, self._tail)

    def _antiderivative(self, t):
        i, u = self._cell(t)
        cell = np.take(self._node_dq, i)
        cell *= 0.5 * u
        cell += np.take(self._node_q, i)
        cell *= u
        acc = np.take(self._node_int, i)
        acc += np.ldexp(cell, -self._table_bits)
        return _add_tent_integrals(acc, t, self._tail)

    def lattice_sums(self, lattice, n):
        """The fine grid (`_fine_grid_sums`) within e = 4 (L E + 2 delta + 2
        (n + 1) u (S + delta)) at E = ``_FINE_SLOP``, a margin of 4 over
        this proof, which drops (1 + O(nu)) factors.  With u = 2^-53, S =
        sup_norm and J of the L levels tabulated, the computed q is off by
        at most delta = (3L + 8) u S: a node value by (J + 1) u S (J exact
        tents times a_j, summed), the cell term fl(fl(dq f) + q_i), f exact
        and q linear on the cell, by three of those (dq reads two) and u S
        per rounding: (3J + 6) u S; each of T = L - J tail levels (2^j t and
        frac exact, the tent off by u) by 2 u a_j + u S.  So a sample and
        its fine point, at most E apart, read values within L E + 2 delta,
        L the Holder constant (beta = 1; clipping into [0, 1] moves no
        sample apart).  Summing n values in [0, S + delta], in any order,
        errs by (n - 1) u n (S + delta); the division by n and the product
        with w add u (S + delta) w each.
        """
        u = 2.0 ** -53
        delta = (3 * self.levels + 8) * u * self.sup_norm
        return _fine_grid_sums(self, lattice, n, 4.0 * (
            self.holder_meta.constant * _FINE_SLOP + 2.0 * delta
            + 2.0 * (n + 1) * u * (self.sup_norm + delta)))

    def corner_floor(self, m):
        """Levels j >= m vanish at every dyadic sample, leaving half their
        mass as error; levels j < m cost at most their variation spread
        over the 2^m subintervals."""
        amps = self.amplitudes
        keep = 0.5 * sum(amps[m - 1:])
        lost = sum(a * 2.0 ** (j - m + 1)
                   for j, a in enumerate(amps[:m - 1], start=1))
        return keep - lost

    def params(self):
        return {"amplitudes": list(self.amplitudes)}


@dataclass(frozen=True)
class CantorConstruction:
    """Exact record of a truncated fat-Cantor construction.

    ``merged_open_set`` is the disjoint normal form of the intervals
    removed at levels 1..depth, and ``complement_measure`` the exact
    Lebesgue measure of what survives.
    """

    depth: int
    merged_open_set: tuple[tuple[Fraction, Fraction], ...]
    complement_measure: Fraction


class CantorIndicator(PiecewiseConstant):
    """Indicator of a positive-measure nowhere-dense set, ``depth`` >= 1.

    Around every dyadic point k/2^n (n = 1..depth) an open interval of
    half-width 2^{-(2n+2)} is removed, clipped to half-size at 0 and 1.
    Level n removes total length 2^{-(n+1)}, so the survivor keeps
    measure >= 1/2 at every depth.  All arithmetic is exact rational;
    ``construction`` records the result.  The raw interval count before
    merging is capped at ``_CANTOR_MAX_PIECES``.
    """

    kind = "CantorIndicator"

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        raw_count = 2 ** (depth + 1) - 2 + depth  # sum of 2^n + 1, n <= depth
        if raw_count > _CANTOR_MAX_PIECES:
            raise ResourceLimitError(f"depth {depth} needs {raw_count} "
                                     f"intervals > cap {_CANTOR_MAX_PIECES}")
        # integer numerators over 2^(2 depth + 2), which every level's
        # endpoints share; Fractions only for the merged endpoints
        denom = 2 ** (2 * depth + 2)
        merged_num = _merge_open_intervals(
            iv for n in range(1, depth + 1)
            for iv in _cantor_level_intervals(n, depth))
        merged = tuple((Fraction(lo, denom), Fraction(hi, denom))
                       for lo, hi in merged_num)
        bps: list[Fraction] = [Fraction(0)]
        vals: list[float] = []
        for lo, hi in merged:
            if lo > bps[-1]:
                vals.append(1.0)
                bps.append(lo)
            vals.append(0.0)
            bps.append(hi)
        super().__init__(bps, vals)
        self.depth = depth
        self.construction = CantorConstruction(
            depth, merged,
            Fraction(denom - sum(hi - lo for lo, hi in merged_num), denom))

    @staticmethod
    def corner_width(m: int) -> float:
        """eps_m = 1/(3*4^{m+1}): the left sums of step 2^{-m} over the
        window (eps_m/2, 1 - eps_m/2) vanish identically."""
        return 1.0 / (3.0 * 2.0 ** (2 * m + 2))

    def corner_hints(self, n=1):
        """The windows (1 - eps_m/2, eps_m/2) for m = 1..depth, and for n
        not a power of two the window (eps_m/2 + n/2^m, eps_m/2), with 2^m
        the smallest power of two above n, when m <= depth: its samples lie
        eps_m/2 right of the points k/2^m, inside intervals removed at
        levels <= m, so its left sums at n vanish too."""
        hints = [(1.0 - 0.5 * eps, 0.5 * eps)
                 for eps in map(self.corner_width, range(1, self.depth + 1))]
        m = (n - 1).bit_length()
        if n & (n - 1) and m <= self.depth:
            half = 0.5 * self.corner_width(m)
            hints.append((half + n / 2.0 ** m, half))
        return hints

    def params(self):
        return {"depth": self.depth}


def _cantor_level_intervals(n: int, depth: int):
    """The open intervals removed at level n <= depth, left to right, as
    integer numerators over the common denominator 2^(2 depth + 2)."""
    one = 2 ** (2 * depth + 2)
    hw = 2 ** (2 * (depth - n))  # 1/2^(2n+2)
    step = one >> n  # 1/2^n
    yield 0, hw
    for c in range(step, one, step):
        yield c - hw, c + hw
    yield one - hw, one


def _merge_open_intervals(ivs):
    """Disjoint normal form of a union of open intervals (exact)."""
    merged: list[list] = []
    for lo, hi in sorted(ivs):
        # touching open intervals stay separate: their shared endpoint
        # is not removed, so (a,b) u (b,c) is not an interval
        if merged and lo < merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def build_cantor(depth: int) -> tuple[CantorIndicator, CantorConstruction]:
    """``CantorIndicator(depth)`` with its construction record."""
    q = CantorIndicator(depth)
    return q, q.construction


def build_tent_train(amplitudes: Sequence[float]) -> TentTrain | Constant:
    """Continuous piecewise-linear demonstrator of slow convergence.

    Args:
        amplitudes: tent heights a_1..a_L, all > 0.  An empty list yields
            the zero potential.
    """
    amps = list(amplitudes)
    if not amps:
        return Constant(0.0)
    return TentTrain(amps)


def _level_count(value) -> int:
    count = int(value)
    if count < 0:
        raise ValueError(f"must be >= 0, got {count}")
    return count


def _tent_from_spec(param):
    """From 'amplitudes', or 'harmonic=L': the amplitudes 1/j, j = 1..L."""
    levels = param("harmonic", _level_count, None)
    if levels is None:
        return partial(build_tent_train, param("amplitudes", float, many=True))
    return lambda: build_tent_train([1.0 / j for j in range(1, levels + 1)])


# The only table of potential kind names: every name and alias that
# from_spec (and so the CLI) accepts, lower case without '_' or '-'.  Each
# builder reads its parameters through from_spec's ``param`` and returns a
# zero-argument constructor, so a misspelt parameter fails before any build.
_SPEC_KINDS = {alias: build for aliases, build in (
    (("constant",), lambda param: partial(Constant, param("c", float, 1.0))),
    (("linear",), lambda param: partial(Linear, param("slope", float, 1.0),
                                        param("intercept", float, 0.0))),
    (("piecewiseconstant", "piecewise", "pw"),
     lambda param: partial(
         PiecewiseConstant,
         param("breakpoints", lambda b: Fraction(str(b)), many=True),
         param("values", float, many=True))),
    (("holderweierstrass", "weierstrass", "weier"),
     lambda param: partial(HolderWeierstrass, param("beta", float),
                           param("levels", int))),
    (("tenttrain", "tent"), _tent_from_spec),
    (("cantorindicator", "cantor"),
     lambda param: partial(CantorIndicator, param("depth", int))),
) for alias in aliases}


def from_spec(spec: dict) -> Potential:
    """Resolve a {"kind": ..., "params": {...}} description to a Potential.

    A missing required parameter, one that does not convert, or one that
    the kind does not read raises a ValueError naming kind and parameter,
    before the potential is built.
    """
    try:
        kind = str(spec["kind"])
    except (KeyError, TypeError):
        raise ValueError("potential spec needs a 'kind' key") from None
    build = _SPEC_KINDS.get(kind.replace("_", "").replace("-", "").lower())
    if build is None:
        raise ValueError(f"unknown potential kind {kind!r}")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("'params' must be a mapping")
    read = []

    def param(key, conv, default=_REQUIRED, many=False):
        """params[key] through conv (itemwise for a list when many)."""
        read.append(key)
        if key not in params:
            if default is _REQUIRED:
                raise ValueError(
                    f"potential kind {kind!r} needs parameter {key!r}")
            return default
        value = params[key]
        try:
            if not many:
                return conv(value)
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"expected a list, got {value!r}")
            return [conv(v) for v in value]
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"potential kind {kind!r}: bad parameter "
                             f"{key!r} ({exc})") from None

    make = build(param)
    unused = ", ".join(repr(key) for key in params if key not in read)
    if unused:
        raise ValueError(f"potential kind {kind!r}: unused parameter {unused} "
                         f"(it reads {', '.join(map(repr, read))})")
    return make()
