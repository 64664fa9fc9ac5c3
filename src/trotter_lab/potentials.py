"""Families of bounded non-negative potentials q on [0, 1].

Each potential knows how to evaluate itself at scalar or array arguments,
carries a certified upper bound on its sup norm, and has a closed-form
antiderivative.  ``Constant`` is the zero-slope ``Linear``.  Discontinuous
families keep exact rational breakpoints so that downstream quadrature is
exact.  The family rules that the search, the semigroup and the rate
checks read are methods: the certified left-sum error bound over windows
up to a given width (every family has one), corner hints, the dyadic
corner floor and step breakpoints.
``from_spec`` alone turns kind names, aliases and parameters (such as a
tent train's ``harmonic=L``) into potentials, and rejects unread ones.

Value convention at jumps: a piecewise potential takes the value of the
piece on [a, b) at its left endpoint, and the value of the last piece at
t = 1.  This pins an everywhere-defined representative; it differs from
the underlying a.e. class only on the finite breakpoint set.

Step potentials find the piece of a point in a table over the 2^16 dyadic
cells [c/2^16, (c+1)/2^16); only points in the cells that a breakpoint
splits fall back to a binary search (``searchsorted``) over the
breakpoints, so the result is the same as searching every point.
"""

from __future__ import annotations

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
# block of the piece-count kernel, sample points per block of the sampled
# one.  A block's handful of float64 temporaries (256 kB each) then stays
# within a 2 MiB L2 cache, where multi-MB blocks ran up to 2.5x slower; in
# a sweep over 2^14, 2^15 and 2^16, 2^15 was fastest or tied on both
# kernels.  Row sums do not depend on the block, so the size changes no
# result.
_PIECE_BLOCK = 1 << 15
_SAMPLE_CHUNK = 1 << 15
# TentTrain tabulates its first levels on a dyadic node grid; 16 levels
# take 2^17 + 1 nodes, about 3 MB for the three tables.
_TENT_TABLE_LEVELS = 16
# PiecewiseConstant tabulates the piece of each of 2^16 dyadic cells, 512 kB
# of indices.
_STEP_TABLE_BITS = 16
# Cap on the raw interval count of a fat-Cantor construction; depth 18 is
# the deepest under it.
_CANTOR_MAX_PIECES = 1 << 20


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

    Starts from ceil((b-s)/h) and steps it by one until the sample points,
    computed with the sampled kernel's own expression, straddle b.  The
    points are non-decreasing in k, so the count then matches the sampled
    kernel's right-open convention bit for bit.
    """
    w = t - s
    h = w / n
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.clip(np.ceil((b - s) / h), 0, n)
    # h == 0 puts every sample at s; rows with t < s (h < 0) start at 0 or
    # n, never move in the loop, and are resampled by the caller
    k = np.where(h > 0, est, np.where(s < b, n, 0)).astype(np.int64)
    while True:
        down = (k > 0) & (s + w * ((k - 1) / n) >= b)
        up = (k < n) & (s + w * (k / n) < b)
        step = up.astype(np.int64) - down
        if not step.any():
            return k
        k += step


@dataclass(frozen=True)
class HolderCertificate:
    """Certifies |q(x) - q(y)| <= constant * |x - y|**beta on [0, 1]."""

    beta: float
    constant: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("Holder exponent must lie in (0, 1]")
        if self.constant < 0.0:
            raise ValueError("Holder constant must be >= 0")

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
        step_breakpoints: float breakpoints 0 = b_0 < ... < b_K = 1 of a
            step function, or None for every other family.
    """

    kind: str = "Abstract"
    step_breakpoints: np.ndarray | None = None

    def __init__(self, sup_norm: float,
                 holder_meta: HolderCertificate | None = None):
        if sup_norm < 0.0:
            raise ValueError("sup_norm must be >= 0")
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

    def corner_hints(self) -> list[tuple[float, float]]:
        """Windows (t, s) known to nearly maximize the left-sum error, which
        a sup search probes first; none by default."""
        return []

    def corner_floor(self, m: int) -> float | None:
        """A proven lower bound on the left-sum error at the long-window
        corner (1, 0+) for n = 2^m, or None when the family has none."""
        return None

    def left_sum_kernel(self, n: int) -> str:
        """Which kernel `left_sums` runs at n: "closed-form", "piece-count"
        or "sampled"."""
        return "sampled"

    def left_sums(self, t: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
        """Left Riemann sums over the windows [s_i, t_i] on n equal steps.

        ``t`` and ``s`` are matching 1-D float arrays whose entries
        ``quadrature.left_darboux_sums`` has already checked against [0, 1],
        so exact kernels check nothing.  This default samples q at
        s + k*(t-s)/n for k = 0..n-1, about ``_SAMPLE_CHUNK`` points at a
        time in one buffer per call, and still checks (and clips) the
        samples through ``__call__``; families with an exact kernel
        override it, and tests keep this loop as their reference.
        """
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
            out[i:i + block] = self(xi).mean(axis=1) * w[:, 0]
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
        if c < 0.0:
            raise ValueError("constant potential must be >= 0")
        self.c = float(c)
        super().__init__(slope=0.0, intercept=c)

    def params(self):
        return {"c": self.c}


class PiecewiseConstant(Potential):
    """Right-open step function with exact rational breakpoints.

    Pieces are [b_i, b_{i+1}) with value values[i]; q(1) takes the last
    value.  Breakpoints must start at 0, end at 1, strictly increase.
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
        if any(v < 0.0 for v in vals):
            raise ValueError("piece values must be >= 0")
        self.breakpoints = bps
        self.values = vals
        self.step_breakpoints = np.array([float(b) for b in bps])
        self._vals = np.array(vals)
        widths = np.diff(self.step_breakpoints)
        self._cum = np.concatenate(([0.0], np.cumsum(self._vals * widths)))
        # Piece of each dyadic cell, or -1 where a breakpoint splits it; the
        # piece index is monotone in t, so a cell whose two ends share a
        # piece holds no breakpoint.  The last entry is the piece of t = 1.
        edges = np.ldexp(np.arange(2.0 ** _STEP_TABLE_BITS + 1),
                         -_STEP_TABLE_BITS)
        first = self._search_piece(edges[:-1])
        last = self._search_piece(np.nextafter(edges[1:], 0.0))
        self._cell_piece = np.append(np.where(first == last, first, -1),
                                     len(vals) - 1)
        super().__init__(sup_norm=max(vals))

    @property
    def internal_breakpoint_count(self) -> int:
        """Number of jump locations strictly inside (0, 1)."""
        return len(self.breakpoints) - 2

    def _search_piece(self, t):
        idx = np.searchsorted(self.step_breakpoints, t, side="right") - 1
        return np.clip(idx, 0, len(self._vals) - 1)

    def _piece_index(self, t):
        """Piece of each t in [0, 1]: a cell-table read, with a binary
        search only for the points in cells that a breakpoint splits."""
        idx = np.take(self._cell_piece,
                      np.ldexp(t, _STEP_TABLE_BITS).astype(np.intp))
        mixed = idx < 0
        if mixed.any():
            idx[mixed] = self._search_piece(t[mixed])
        return idx

    def _eval(self, t):
        return np.take(self._vals, self._piece_index(t))

    def _antiderivative(self, t):
        idx = self._piece_index(t)
        return (self._cum[idx]
                + self._vals[idx] * (t - self.step_breakpoints[idx]))

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
        breakpoints b, in O(K) per window when K < n.

        The sum is (n v_0 + sum_b (n - k_b) dv_b) / n * (t - s) with k_b the
        samples left of b and dv_b the jump at b, which for integer-valued
        steps is bit-equal to the sampled mean.  Windows with t < s, whose
        samples run right to left, are sampled.
        """
        if self.left_sum_kernel(n) == "sampled":
            return super().left_sums(t, s, n)
        bp = self.step_breakpoints[1:-1]
        jumps = np.diff(self._vals)
        out = np.empty(t.shape)
        block = max(1, _PIECE_BLOCK // max(1, len(bp)))
        for i in range(0, len(t), block):
            tt = t[i:i + block, None]
            ss = s[i:i + block, None]
            k = _samples_left_of(bp, tt, ss, n)
            total = n * self._vals[0] + ((n - k) * jumps).sum(axis=1)
            out[i:i + block] = total / n * (tt[:, 0] - ss[:, 0])
        back = t < s
        if back.any():
            out[back] = super().left_sums(t[back], s[back], n)
        return out

    def params(self):
        return {"breakpoints": [str(b) for b in self.breakpoints],
                "values": list(self.values)}


class HolderWeierstrass(Potential):
    """Lacunary cosine sum, Holder continuous of exponent beta.

    q(t) = (M + sum_j 2^{-j beta} cos(2^j pi t)) / (2M) with
    M = sum_j 2^{-j beta}, so 0 <= q <= 1 for every beta and level count.
    """

    kind = "HolderWeierstrass"

    def __init__(self, beta: float, levels: int):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if levels < 1:
            raise ValueError("levels must be >= 1")
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

    def left_sums(self, t, s, n):
        """Sums each level in closed form with the Dirichlet kernel

            sum_k cos(w(s + k h)) = sin(n th)/sin(th) * cos(w s + (n-1) th)

        with th = w h / 2.  Angles are kept in units of pi: for w = pi 2^j,
        th/pi = 2^{j-1} h is an exact ldexp.  Shifting it by an integer
        leaves the sum unchanged, so only its offset d in [-1/2, 1/2] from
        the nearest integer enters; sin(pi n d)/sin(pi d) stays accurate to
        a few ulps of n near resonance and is n at resonance (d == 0).
        """
        h = (t - s) / n
        acc = np.zeros_like(h)
        for j, a in enumerate(self._amps, start=1):
            d = np.ldexp(h, j - 1)
            d -= np.rint(d)
            resonant = d == 0.0
            safe = np.where(resonant, 0.5, d)
            ratio = np.where(resonant, float(n),
                             np.sin(np.pi * n * safe) / np.sin(np.pi * safe))
            phase = np.fmod(np.ldexp(s, j), 2.0) + (n - 1) * d
            acc += a * ratio * np.cos(np.pi * phase)
        return (t - s) * (self._m + acc / n) / (2.0 * self._m)

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
        if any(a <= 0.0 for a in amps):
            raise ValueError("tent amplitudes must be > 0")
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
        merged = _merge_open_intervals(
            iv for n in range(1, depth + 1) for iv in _cantor_level_intervals(n))
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
            depth, merged, 1 - sum((hi - lo for lo, hi in merged), Fraction(0)))

    @staticmethod
    def corner_width(m: int) -> float:
        """eps_m = 1/(3*4^{m+1}): the left sums of step 2^{-m} over the
        window (eps_m/2, 1 - eps_m/2) vanish identically."""
        return 1.0 / (3.0 * 2.0 ** (2 * m + 2))

    def corner_hints(self):
        """The windows (1 - eps_m/2, eps_m/2) for m = 1..depth."""
        return [(1.0 - 0.5 * eps, 0.5 * eps)
                for eps in map(self.corner_width, range(1, self.depth + 1))]

    def params(self):
        return {"depth": self.depth}


def _cantor_level_intervals(n: int):
    """The open intervals removed at level n, left to right."""
    hw = Fraction(1, 2 ** (2 * n + 2))
    yield Fraction(0), hw
    for k in range(1, 2 ** n):
        c = Fraction(k, 2 ** n)
        yield c - hw, c + hw
    yield Fraction(1) - hw, Fraction(1)


def _merge_open_intervals(ivs):
    """Disjoint normal form of a union of open intervals (exact)."""
    merged: list[list[Fraction]] = []
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


def _tent_from_spec(param):
    """From 'amplitudes', or 'harmonic=L': the amplitudes 1/j, j = 1..L."""
    levels = param("harmonic", int, None)
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
