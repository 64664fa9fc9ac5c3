"""Exact left-sum kernels against the sampled loop and an mpmath reference.

`Potential.left_sums` on the base class is the sampled reference: it
evaluates q at s + (t-s)*(k/n).  Constant, Linear and HolderWeierstrass sum
in closed form; PiecewiseConstant and CantorIndicator count samples per
piece once their interior breakpoints are fewer than n.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import cache, partial

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import trotter_lab as tl
from trotter_lab import potentials, sup_search
from trotter_lab.potentials import Potential
from trotter_lab.sup_search import default_hints
from conftest import exact_lattice_sums

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
unit = st.floats(min_value=0.0, max_value=1.0)
steps = st.integers(min_value=1, max_value=2048)

STEPS = (tl.PiecewiseConstant([0.0, 0.25, 0.5, 1.0], [1.0, 0.0, 2.0]),
         tl.PiecewiseConstant([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                               Fraction(1)], [1.0, 0.0, 2.0]),
         tl.PiecewiseConstant([0.0, 0.3, 0.7, 1.0], [0.3, 1.7, 0.1]))


def sampled(q, t, s, n):
    t, s = np.atleast_1d(t).astype(float), np.atleast_1d(s).astype(float)
    return Potential.left_sums(q, t, s, n)


def kernel(q, t, s, n):
    return tl.left_darboux_sums(q, t, s, n)


def mp_left_sum(q, t, s, n):
    """Left sum of a HolderWeierstrass over exact float endpoints, 40 digits."""
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(s), mpmath.mpf(t)
        h = (hi - lo) / n
        amps = [mpmath.mpf(float(a)) for a in q._amps]
        total = mpmath.mpf(0)
        for k in range(n):
            x = lo + k * h
            total += sum(a * mpmath.cospi(2 ** j * x)
                         for j, a in enumerate(amps, start=1))
        m = mpmath.fsum(amps)
        return float(h * (n * m + total) / (2 * m))


def test_kernel_selection():
    q3, _ = tl.build_cantor(3)
    assert tl.Constant(2.0).left_sum_kernel(4) == "closed-form"
    assert tl.Linear().left_sum_kernel(4) == "closed-form"
    assert tl.HolderWeierstrass(0.5, 10).left_sum_kernel(4) == "closed-form"
    assert tl.build_tent_train([1.0, 0.5]).left_sum_kernel(4096) == "sampled"
    assert q3.internal_breakpoint_count == 16
    assert q3.left_sum_kernel(16) == "sampled"
    assert q3.left_sum_kernel(17) == "piece-count"


@pytest.mark.parametrize("steps", [
    tl.PiecewiseConstant([0, 1], [0.3]),
    tl.PiecewiseConstant([0, Fraction(1, 2), 1], [0.3, 0.3])],
    ids=["one-piece", "equal-pieces"])
def test_jump_free_steps_are_the_constant(steps):
    # a breakpoint between equal values is no jump: both potentials are one
    # piece, and their integral and left sums round like Constant(0.3)'s
    assert steps.internal_breakpoint_count == 0
    assert list(steps.step_breakpoints) == [0.0, 1.0]
    assert steps.certified_upper_bound(1) == 0.0
    const = tl.Constant(0.3)
    rng = np.random.default_rng(5)
    t, s = rng.random((2, 2000))
    t, s = np.maximum(t, s), np.minimum(t, s)
    assert np.array_equal(steps.antiderivative(t), const.antiderivative(t))
    for n in (1, 3, 16, 1000):
        assert steps.left_sum_kernel(n) == "piece-count"
        assert np.array_equal(kernel(steps, t, s, n), kernel(const, t, s, n))
        assert not tl.riemann_errors(steps, t, s, n).any()


@PROPERTY
@given(t=unit, s=unit, n=steps, c=st.floats(0.0, 10.0),
       slope=st.floats(-2.0, 2.0))
def test_affine_matches_sampled(t, s, n, c, slope):
    for q in (tl.Constant(c), tl.Linear(slope, max(0.0, -slope))):
        assert abs(kernel(q, t, s, n)[0] - sampled(q, t, s, n)[0]) <= 1e-12


@PROPERTY
@given(t=unit, s=unit, n=steps, beta=st.floats(0.05, 0.95),
       levels=st.integers(1, 12))
def test_weierstrass_matches_sampled(t, s, n, beta, levels):
    q = tl.HolderWeierstrass(beta, levels)
    assert abs(kernel(q, t, s, n)[0] - sampled(q, t, s, n)[0]) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(t=unit, s=unit, n=st.integers(1, 64))
def test_weierstrass_matches_mpmath_at_24_levels(t, s, n):
    # past ~20 levels the sampled loop drifts with the phase roundoff
    q = tl.HolderWeierstrass(0.5, 24)
    assert abs(kernel(q, t, s, n)[0] - mp_left_sum(q, t, s, n)) <= 1e-12


@pytest.mark.parametrize("t, s, n", [
    (1.0, 1e-9, 8),       # 2^{j-1} h within 1e-6 of an integer for j > 3
    (1.0, 1e-9, 512),
    (0.75, 0.25, 4),      # 2^{j-1} h an exact integer for j >= 4
    (0.5, 0.25, 1024),
    # t - s = 0.375 (1 + 1e-12): large near-integer 2^{j-1} h, full mantissa
    (0.37858658930054934, 0.0035865893001743032, 3),
])
@pytest.mark.parametrize("levels", [10, 24])
def test_weierstrass_resonant_windows(t, s, n, levels):
    q = tl.HolderWeierstrass(0.5, levels)
    assert abs(kernel(q, t, s, n)[0] - mp_left_sum(q, t, s, n)) <= 1e-12


def weierstrass_per_window(q, t, s, n):
    """The closed-form Weierstrass left sums with every term computed per
    window, as the kernel did before it shared the terms of equal widths."""
    h = (t - s) / n
    acc = np.zeros_like(h)
    for j, a in enumerate(q._amps, start=1):
        d = np.ldexp(h, j - 1)
        d -= np.rint(d)
        resonant = d == 0.0
        safe = np.where(resonant, 0.5, d)
        ratio = np.where(resonant, float(n),
                         np.sin(np.pi * n * safe) / np.sin(np.pi * safe))
        phase = np.fmod(np.ldexp(s, j), 2.0) + (n - 1) * d
        acc += a * ratio * np.cos(np.pi * phase)
    return (t - s) * (q._m + acc / n) / (2.0 * q._m)


@pytest.mark.parametrize("levels", [1, 10, 24])
@pytest.mark.parametrize("n", [1, 3, 8, 512])
def test_weierstrass_shared_width_terms_are_bit_equal(n, levels):
    # the lattice's 32,896 windows have 1,022 distinct widths; random
    # windows, both orientations, nearly all distinct
    q = tl.HolderWeierstrass(0.5, levels)
    lat = sup_search.coarse_lattice(q, [n], tl.SearchConfig())
    ts, ss = lat.ts, lat.ss
    rng = np.random.default_rng(n * 100 + levels)
    t = np.concatenate((ts, rng.uniform(0.0, 1.0, 3000), [0.0, 1.0, 0.5]))
    s = np.concatenate((ss, rng.uniform(0.0, 1.0, 3000), [0.0, 0.0, 0.5]))
    want = weierstrass_per_window(q, t, s, n)
    assert q.left_sums(t, s, n).tobytes() == want.tobytes()


@PROPERTY
@given(t=unit, s=unit, n=steps, which=st.integers(0, len(STEPS) - 1))
def test_steps_match_sampled(t, s, n, which):
    q = STEPS[which]
    assert abs(kernel(q, t, s, n)[0] - sampled(q, t, s, n)[0]) <= 1e-12


@PROPERTY
@given(t=unit, s=unit, n=steps, depth=st.integers(1, 6))
def test_cantor_matches_sampled_exactly(t, s, n, depth):
    q, _ = tl.build_cantor(depth)
    assert kernel(q, t, s, n)[0] == sampled(q, t, s, n)[0]


def _brute_samples_left_of(b, t, s, n):
    """sum(s + w*(k/n) < b) over k < n, sample by sample."""
    points = s[:, :, None] + (t - s)[:, :, None] * (np.arange(n) / n)
    return (points < b[None, :, None]).sum(axis=2)


window = st.one_of(st.tuples(unit, unit), unit.map(lambda x: (x, x)))


@PROPERTY
@given(windows=st.lists(window, min_size=1, max_size=8),
       free=st.lists(unit, max_size=4),
       on_sample=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2047)),
                          max_size=4),
       n=st.integers(1, 64))
@example(windows=[(0.5, 0.5), (0.2, 0.7), (0.9, 0.1)], free=[0.5],
         on_sample=[(2, 0), (1, 0), (0, 0)], n=1)
@example(windows=[(1.0, 0.0), (0.3, 0.3), (0.25, 0.75)], free=[],
         on_sample=[(0, 1), (0, 2), (0, 3)], n=4)
def test_samples_left_of_counts_like_brute_force(windows, free, on_sample, n):
    # breakpoints anywhere and on sample points, which the right-open count
    # leaves out; windows with t == s and t < s among them
    t = np.array([w[0] for w in windows])[:, None]
    s = np.array([w[1] for w in windows])[:, None]
    on = [(i % len(windows), k % n) for i, k in on_sample]
    b = np.array(free + [s[i, 0] + (t[i, 0] - s[i, 0]) * (k / n)
                         for i, k in on])
    assume(len(b))
    got = potentials._samples_left_of(b, t, s, n)
    forward = t[:, 0] >= s[:, 0]
    assert np.array_equal(got[forward],
                          _brute_samples_left_of(b, t, s, n)[forward])
    # samples of a window with t < s run right to left: its count is n or
    # 0 by s < b alone, and the piece-count kernel samples such windows
    back = ~forward
    assert np.array_equal(got[back], np.where(s[back] < b, n, 0))


# step families of the shared count: the 3-piece pw, Cantor depths 3 and 6
# (K = 16, 88), a step with non-integer values and one with no jump
COUNT_FAMILIES = (STEPS[1], tl.build_cantor(3)[0], tl.build_cantor(6)[0],
                  STEPS[2], tl.PiecewiseConstant([0, Fraction(1, 2), 1],
                                                 [0.3, 0.3]))


def _brute_piece_count_sums(q, t, s, n):
    """The piece-count rule at n alone with a sample-by-sample count: no
    jump rounds like the antiderivative, and windows with t < s sample."""
    if not q.internal_breakpoint_count:
        return q._vals[0] * t - q._vals[0] * s
    bp = q.step_breakpoints[1:-1]
    k = _brute_samples_left_of(bp, t[:, None], s[:, None], n)
    total = n * q._vals[0] + ((n - k) * np.diff(q._vals)).sum(axis=1)
    out = total / n * (t - s)
    back = t < s
    out[back] = sampled(q, t[back], s[back], n)
    return out


# an endpoint anywhere, or on a breakpoint of the family (index mod K + 2)
endpoint = st.tuples(st.booleans(), st.integers(0, 1 << 20), unit)


@PROPERTY
@given(which=st.integers(0, len(COUNT_FAMILIES) - 1),
       ends=st.lists(st.tuples(endpoint, endpoint, st.booleans()),
                     min_size=1, max_size=8),
       above=st.integers(1, 24), twos=st.integers(0, 3),
       three=st.booleans())
@example(which=1, ends=[((True, 17, 0.0), (True, 0, 0.0), False),
                        ((True, 0, 0.0), (True, 17, 0.0), False),
                        ((True, 9, 0.0), (True, 3, 0.0), False),
                        ((True, 5, 0.0), (True, 2, 0.0), False),
                        ((True, 4, 0.0), (True, 4, 0.0), True)],
         above=15, twos=3, three=False)
def test_one_count_is_bit_equal_to_each_n(which, ends, above, twos, three):
    # every piece-count n that divides N reads ceil(k_b(N) / (N/n)) off the
    # count at N: windows on breakpoints (dyadic ones for Cantor, which
    # the samples hit exactly), t == s and t < s among them
    q = COUNT_FAMILIES[which]
    bps = [float(b) for b in q.breakpoints]

    def at(end):
        on_bp, i, x = end
        return bps[i % len(bps)] if on_bp else x

    t = np.array([at(a) for a, _, _ in ends])
    s = np.array([at(a) if same else at(b) for a, b, same in ends])
    k = q.internal_breakpoint_count
    top = (k + above) * 2 ** twos * (3 if three else 1)
    group = [n for n in range(k + 1, top + 1) if top % n == 0]
    for n, got in zip(group, q.piece_count_left_sums(t, s, group)):
        assert q.left_sum_kernel(n) == "piece-count"
        want = _brute_piece_count_sums(q, t, s, n)
        assert got.tobytes() == want.tobytes(), (q, n)
        assert got.tobytes() == kernel(q, t, s, n).tobytes(), (q, n)


def _aligned_windows(q):
    bps = [float(b) for b in q.breakpoints]
    pairs = [(hi, lo) for lo in bps for hi in bps if lo <= hi]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 17, 64, 1000])
def test_breakpoint_aligned_windows_are_exact(n):
    for q in STEPS[:2] + (tl.build_cantor(3)[0],):
        t, s = _aligned_windows(q)
        assert np.array_equal(kernel(q, t, s, n), sampled(q, t, s, n))


@pytest.mark.parametrize("n", [41, 42, 100, 240, 1000])
def test_lattice_windows_are_exact(n):
    # ceil((b-s)/h) misses the sampled count here for some pairs, e.g.
    # (t, s, b) = (8/63, 0, 1/42) at n = 240
    q = tl.PiecewiseConstant([Fraction(k, 42) for k in range(43)],
                             [float(k % 3) for k in range(42)])
    i, j = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    s = (i / 63).ravel()
    t = np.minimum(1.0, s + (j / 63).ravel())
    assert np.array_equal(kernel(q, t, s, n), sampled(q, t, s, n))


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_cantor_dyadic_corners(depth):
    q, _ = tl.build_cantor(depth)
    k = q.internal_breakpoint_count
    for m in range(1, depth + 3):
        eps = 1.0 / (3.0 * 2.0 ** (2 * m + 2))
        t, s = [1.0 - 0.5 * eps], [0.5 * eps]
        for n in {2 ** m, k, k + 1, 2 * k}:
            got = kernel(q, t, s, n)
            assert np.array_equal(got, sampled(q, t, s, n))
            if m <= depth and n == 2 ** m:
                assert got[0] == 0.0


def test_cantor_depth_10_sampled_sums_match_search_oracle():
    # K = 1320 >= n, so these sums sample q, which reads its cell table
    q, _ = tl.build_cantor(10)
    bp = np.array([float(b) for b in q.breakpoints])
    vals = np.array(q.values)
    rng = np.random.default_rng(4)
    s = rng.uniform(0.0, 1.0, 200)
    t = rng.uniform(s, 1.0)
    for m in range(1, 11):
        n = 2 ** m
        assert q.left_sum_kernel(n) == "sampled"
        hints = default_hints(q, n)
        tt = np.concatenate((t, [p.t for p in hints]))
        ss = np.concatenate((s, [p.s for p in hints]))
        xi = ss[:, None] + (tt - ss)[:, None] * (np.arange(n) / n)
        idx = np.clip(np.searchsorted(bp, xi, side="right") - 1,
                      0, len(vals) - 1)
        want = vals[idx].mean(axis=1) * (tt - ss)
        assert np.array_equal(kernel(q, tt, ss, n), want), m


def test_equal_endpoints_give_zero():
    zoo = (tl.Constant(1.0), tl.Linear(0.5, 0.25), tl.HolderWeierstrass(0.3, 12),
           tl.build_cantor(3)[0], tl.build_tent_train([1.0, 0.5]), *STEPS)
    ends = [0.0, 0.25, 1.0 / 3.0, 0.5, 1.0]
    for q in zoo:
        for n in (1, 7, 4096):
            got = kernel(q, ends, ends, n)
            assert np.all(got == 0.0), (q, n)


@pytest.mark.parametrize("n", [2, 16, 17, 100])
def test_batch_bit_equal_to_scalar(n):
    rng = np.random.default_rng(11)
    s = rng.uniform(0.0, 1.0, 40)
    t = rng.uniform(s, 1.0)
    q3, _ = tl.build_cantor(3)
    for q in (tl.Linear(0.5, 0.25), tl.HolderWeierstrass(0.5, 12), q3, *STEPS):
        batch = kernel(q, t, s, n)
        for i in range(len(t)):
            assert batch[i] == kernel(q, [t[i]], [s[i]], n)[0], (q, n)


@pytest.mark.parametrize("t, s", [
    ([math.nan], [0.1]), ([0.5], [math.nan]), ([1.5], [0.1]), ([0.5], [-0.1])])
def test_exact_kernels_reject_bad_endpoints(t, s):
    for q in (tl.Constant(1.0), tl.Linear(), tl.HolderWeierstrass(0.5, 4),
              tl.build_cantor(2)[0]):
        with pytest.raises(ValueError):
            kernel(q, t, s, 64)


def _block_cases(n):
    """(potential, n, interior breakpoints) for each kernel path at n."""
    cantor, _ = tl.build_cantor(3)
    k = cantor.internal_breakpoint_count
    return [(tl.build_tent_train([1.0, 0.5, 0.25, 0.125]), n, 0),
            (cantor, 1 + n % k, k),                 # K >= n: sampled
            (cantor, k + n, k),                     # K < n: piece-count
            (STEPS[1], 2 + n, 2)]                   # a pw step, piece-count


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(windows=st.lists(st.tuples(unit, unit), min_size=1, max_size=12),
       n=steps)
def test_block_size_does_not_change_left_sums(windows, n):
    t = np.array([w[0] for w in windows])
    s = np.array([w[1] for w in windows])
    for q, n_q, k in _block_cases(n):
        sums = []
        # one row per block, three rows per block, the default
        for chunk, piece in ((1, 1), (3 * n_q, 3 * max(1, k)),
                             (potentials._SAMPLE_CHUNK,
                              potentials._PIECE_BLOCK)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(potentials, "_SAMPLE_CHUNK", chunk)
                mp.setattr(potentials, "_PIECE_BLOCK", piece)
                sums.append(kernel(q, t, s, n_q))
        assert sums[0].tobytes() == sums[1].tobytes() == sums[2].tobytes(), (
            q, n_q)


def test_sampled_kernel_holds_one_block():
    # 1000 windows at n = 4096 are 32 MB of sample points; the kernel
    # builds and reduces them one L2-sized block at a time
    q = tl.build_tent_train([1.0, 0.5, 0.25])
    s = np.linspace(0.0, 0.5, 1000)
    tracemalloc.start()
    try:
        kernel(q, s + 0.5, s, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_sampled_kernel_refuses_n_over_its_cap(monkeypatch):
    # n above _SAMPLE_MAX raises before any allocation (n = 2^40 would take
    # 8 TiB); with the cap lowered to 64, n = 64 still samples
    q = tl.build_tent_train([1.0, 0.5])
    tracemalloc.start()
    try:
        with pytest.raises(tl.ResourceLimitError,
                           match=r"^n 1099511627776 > cap 4194304 of the "):
            kernel(q, [0.75], [0.25], 2 ** 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(potentials, "_SAMPLE_MAX", 64)
    assert kernel(q, [0.75], [0.25], 64) == sampled(q, 0.75, 0.25, 64)
    with pytest.raises(tl.ResourceLimitError, match="n 65 > cap 64"):
        kernel(q, [0.75], [0.25], 65)


@pytest.mark.parametrize("n", [2 ** 30, 2 ** 40])
def test_exact_kernels_take_any_n(n):
    # closed forms and piece counts allocate nothing per sample: at n far
    # over the sampled kernel's cap they still sum, within 1/n of the
    # integral for the Lipschitz Weierstrass sum and Cantor's few jumps
    for q in (tl.HolderWeierstrass(0.5, 10), tl.Linear(),
              tl.build_cantor(4)[0]):
        integral = q.antiderivative(0.75) - q.antiderivative(0.25)
        assert abs(kernel(q, [0.75], [0.25], n)[0] - integral) <= 1e-6


# sampled-kernel families of a sweep: tent:harmonic=6, the depth-10 Cantor
# indicator (K = 1320) and a step with non-integer values (K = 1100), each
# with K >= n on every list below
SWEEP_FAMILIES = (
    tl.build_tent_train([1.0 / j for j in range(1, 7)]),
    tl.build_cantor(10)[0],
    tl.PiecewiseConstant([Fraction(i, 1101) for i in range(1102)],
                         [0.3 + (0.37 * i) % 1.9 for i in range(1101)]))
SWEEP_LISTS = ([1, 2, 3, 4, 6, 12], [3, 5, 7], [2 ** m for m in range(3, 11)],
               [12, 16, 18, 24, 36, 48, 72])
# step potentials whose sweeps above include piece-count n: the 3-piece pw
# (K = 2), Cantor depth 3 (K = 16) and the non-integer-valued step (K = 2)
STEP_SWEEP_FAMILIES = (STEPS[1], tl.build_cantor(3)[0], STEPS[2])
# families with their own lattice kernel (`Potential.lattice_sums`)
HOOK_SWEEP_FAMILIES = (tl.HolderWeierstrass(0.5, 10),
                       tl.HolderWeierstrass(0.3, 90))


# every family with each lattice kernel: the kernel itself (Constant,
# Linear), the piece count and the fine grid (steps), the fine grid within
# a slop (tents) and angle addition (Weierstrass)
LATTICE_FAMILIES = ((tl.Constant(0.7), tl.Linear(0.5, 0.25))
                    + SWEEP_FAMILIES + STEP_SWEEP_FAMILIES
                    + HOOK_SWEEP_FAMILIES)


def test_sweep_lattice_sums_are_within_their_slop(monkeypatch):
    # the hook answers every n of every family: within slop (t - s) of n's
    # own sums, a slop of at most 1e-9, and with slop 0, as for Constant,
    # Linear, every step potential and every n whose fine grid is over the
    # cap, bit for bit.  Piece-count n that do not divide the sweep's
    # largest are counted alone.  At the cap of 769 points the tent's fine
    # grids of n >= 64 at grid 24, and of n >= 32 at grid 33, are over it
    for cap in (potentials._FINE_MAX, 24 * 32 + 1):
        monkeypatch.setattr(potentials, "_FINE_MAX", cap)
        alone, over = set(), set()
        for q, grid, ns in itertools.product(
                LATTICE_FAMILIES, [2, 3, 7, 24, 33], SWEEP_LISTS):
            lat = sup_search.coarse_lattice(q, ns,
                                            tl.SearchConfig(coarse_grid=grid))
            ts, ss = lat.ts, lat.ss
            assert len(ts) == grid * (grid + 1) // 2
            for n in ns:
                sums, slop = q.lattice_sums(lat, n)
                want = kernel(q, ts, ss, n)
                assert 0 <= slop <= 1e-9, n
                assert slop == 0 or q.step_breakpoints is None, n
                assert np.all(np.abs(sums - want) <= slop * (ts - ss)), n
                if slop == 0:
                    assert sums.tobytes() == want.tobytes(), n
                if isinstance(q, tl.TentTrain):
                    assert (slop == 0) == ((grid - 1) * n + 1 > cap), n
                    if slop == 0:
                        over.add(n)
                if (q.left_sum_kernel(n) == "piece-count"
                        and n not in lat.cache["piece-count"]):
                    alone.add(q)
            want = q.antiderivative(ts) - q.antiderivative(ss)
            assert lat.integ.tobytes() == want.tobytes()
        assert alone == set(STEP_SWEEP_FAMILIES)
        assert bool(over) == (cap == 24 * 32 + 1)


@pytest.mark.parametrize("grid, every", [(24, 1), (256, 97)])
def test_fine_grid_sums_above_the_old_cap_are_the_kernel(grid, every):
    # the depth-12 Cantor indicator (K = 5232 >= n, so n samples) at n
    # whose fine grids at grid 256 hold 0.5M and 1M points: its fine-grid
    # sums are the kernel's bit for bit, checked on every window at grid 24
    # and on every 97th at grid 256
    q = tl.build_cantor(12)[0]
    ns = [2048, 4096]
    lat = sup_search.coarse_lattice(q, ns, tl.SearchConfig(coarse_grid=grid))
    for n in ns:
        assert q.left_sum_kernel(n) == "sampled"
        sums, slop = q.lattice_sums(lat, n)
        assert slop == 0
        want = kernel(q, lat.ts[::every], lat.ss[::every], n)
        assert sums[::every].tobytes() == want.tobytes(), n


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.01, 0.99), levels=st.integers(1, 40),
       grid=st.sampled_from([2, 3, 7, 24, 33, 256]),
       ns=st.lists(st.one_of(st.integers(1, 4096),
                             st.sampled_from([2 ** k for k in range(13)])),
                   min_size=1, max_size=3, unique=True))
@example(beta=0.5, levels=1022, grid=24, ns=[1, 7, 64, 4096])
def test_weierstrass_lattice_sums_are_within_their_slop(beta, levels, grid,
                                                        ns):
    # angle addition from the phase tables against the closed form on
    # every window, at n that divide others of the list and n that do not;
    # past about 82 levels 2^j s is even at every lattice point
    q = tl.HolderWeierstrass(beta, levels)
    lat = sup_search.coarse_lattice(q, ns, tl.SearchConfig(coarse_grid=grid))
    for n in ns:
        sums, slop = q.lattice_sums(lat, n)
        assert 0 < slop <= 1e-9, n
        want = q.left_sums(lat.ts, lat.ss, n)
        assert np.all(np.abs(sums - want) <= slop * (lat.ts - lat.ss)), n


@pytest.mark.parametrize("top", [2.0, 2.0 ** 20 + 2.0],
                         ids=["phases", "widths"])
def test_numpy_sin_and_cos_are_within_the_assumed_error(top):
    # the Weierstrass lattice slop takes numpy's sin and cos within
    # _TRIG_ERR units of 2^-53 at p x, x in [0, 2), and at p y and p (x +
    # y), |y| <= (n - 1)/2, with p = fl(pi); arrays, as there.  Quarter
    # multiples of pi land on the zeros and extremes
    rng = np.random.default_rng(31)
    x = np.concatenate((rng.uniform(-top, top, 1000), np.arange(-8, 9) / 4,
                        top - np.arange(9) / 4))
    theta = np.pi * x
    bound = potentials._TRIG_ERR * 2.0 ** -53
    with mpmath.workdps(40):
        for f, ref in ((np.cos, mpmath.cos), (np.sin, mpmath.sin)):
            got = f(theta)
            err = max(abs(mpmath.mpf(float(g)) - ref(mpmath.mpf(float(a))))
                      for g, a in zip(got, theta))
            assert err <= bound, (f, float(err) / 2.0 ** -53)


def test_weierstrass_lattice_peaks_below_the_closed_form():
    # at 1022 levels only the first ~82 have a phase table; the tables and
    # the per-n blocks of 2^15 entries peak below the closed form, which
    # holds a few lattice-sized arrays per level
    q = tl.HolderWeierstrass(0.5, 1022)
    lat = sup_search.coarse_lattice(q, [64], tl.SearchConfig())
    ts, ss = lat.ts, lat.ss
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: q.lattice_sums(lat, 64),
                    lambda: q.left_sums(ts, ss, 64)):
            tracemalloc.reset_peak()
            got = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks
    (sums, slop), want = q.lattice_sums(lat, 64), got
    assert np.all(np.abs(sums - want) <= slop * (ts - ss))


def test_fine_grids_over_the_cap_are_summed_alone(monkeypatch):
    # with the cap at 24 fine points only n = 1 fits at grid 24: the hook
    # gives the kernel's sums above it, with slop 0, and every report of a
    # sweep is the one a search on exactly summed windows gives alone
    monkeypatch.setattr(potentials, "_FINE_MAX", 24)
    cfg = tl.SearchConfig(coarse_grid=24, refine_levels=1)
    for q in SWEEP_FAMILIES:
        for ns in ([1, 2, 3, 4, 6, 12], [3, 5, 7]):
            lattice = cache(partial(sup_search.coarse_lattice, q, ns, cfg))
            lat = lattice()
            for n in ns[ns[0] == 1:]:
                sums, slop = q.lattice_sums(lat, n)
                assert slop == 0
                assert sums.tobytes() == kernel(q, lat.ts, lat.ss, n).tobytes()
            for n in ns:
                for search in (tl.sup_riemann_error, tl.sup_symbol):
                    got = search(q, n, cfg, lattice=lattice)
                    with exact_lattice_sums():
                        want = search(q, n, cfg)
                    assert repr(got) == repr(want), (q, n)


def _lattice_samples(grid, n):
    """(sample, fine point) of every lattice window and k < n, the sample
    as the sampled kernel forms it."""
    a = sup_search._S_MIN
    axis = np.linspace(a, 1.0, grid)
    i, j = np.tril_indices(grid)
    s = axis[j][:, None]
    x = (axis[i][:, None] - s) * (np.arange(n) / n) + s
    m = j[:, None] * n + (i - j)[:, None] * np.arange(n)
    h = (1.0 - a) / ((grid - 1) * n)
    return x, potentials._fine_points(m.astype(float), h, a)


@pytest.mark.parametrize("grid, ns", [(2, [1, 2, 3, 1024]),
                                      (3, [1, 5, 7, 96, 1000]),
                                      (24, [1, 2, 3, 24, 100, 1024]),
                                      (256, [1, 2, 3, 7, 16])])
def test_lattice_samples_lie_within_slop_of_the_fine_grid(grid, ns):
    # the roundoff lemma behind the fine grids: sample k of window (i, j)
    # is within E of the fine point m = jn + (i - j)k: by the error
    # analysis at most 20 units of 2^-53, where E is 32 units
    for n in ns:
        x, y = _lattice_samples(grid, n)
        gap = np.abs(x - y).max()
        assert gap <= 20 * 2.0 ** -53 < potentials._FINE_SLOP, (grid, n, gap)


def _random_step(draw, pieces, integer_values):
    """A PiecewiseConstant with ``pieces`` pieces at random rational
    breakpoints, integer or float values."""
    cuts = draw(st.lists(st.integers(1, 9999), min_size=pieces - 1,
                         max_size=pieces - 1, unique=True))
    value = (st.integers(0, 3).map(float) if integer_values else
             st.floats(0.0, 2.0, allow_subnormal=False))
    vals = draw(st.lists(value, min_size=pieces, max_size=pieces))
    return tl.PiecewiseConstant(
        [Fraction(0), *sorted(Fraction(c, 10000) for c in cuts),
         Fraction(1)], vals)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), pieces=st.integers(2, 48), integer_values=st.booleans(),
       grid=st.sampled_from([2, 3, 7, 24, 33]))
def test_fine_grid_sums_are_bit_equal_to_the_kernel(data, pieces,
                                                    integer_values, grid):
    # every sampled n, dividing the sweep's largest or not, and windows
    # with d = i - j >= n, whose rows are copied before they are summed
    q = _random_step(data.draw, pieces, integer_values)
    k = q.internal_breakpoint_count
    assume(k >= 1)
    ns = data.draw(st.lists(st.integers(1, k), min_size=1, max_size=4,
                            unique=True))
    lat = sup_search.coarse_lattice(q, ns, tl.SearchConfig(coarse_grid=grid))
    for n in ns:
        sums, slop = q.lattice_sums(lat, n)
        assert not np.any(slop)
        assert sums.tobytes() == kernel(q, lat.ts, lat.ss, n).tobytes(), n


@pytest.mark.parametrize("offset", [0, 1, -3, 31], ids=lambda o: f"ulps{o}")
def test_breakpoint_near_a_fine_point_resamples_its_windows(offset,
                                                           monkeypatch):
    # a breakpoint on the fine point m = 992 (grid 24, n = 64), or up to 31
    # ulps from it, among 96 others: the windows that read m are resampled,
    # and the sums stay the kernel's.  On the point, 3 of the 40 samples
    # that read m fall left of it, where q(sample) != q(y_m)
    grid, n, m, a = 24, 64, 992, sup_search._S_MIN
    h = (1.0 - a) / ((grid - 1) * n)
    y_m = float(potentials._fine_points(float(m), h, a))
    b = y_m + offset * np.spacing(y_m)
    x, y = _lattice_samples(grid, n)
    reads = x[y == y_m]
    assert len(reads) == 40 and (reads < y_m).sum() == 3
    # 97 interior breakpoints, at least n, so n samples
    cuts = sorted({Fraction(k, 97) for k in range(1, 97)} | {Fraction(b)})
    q = tl.PiecewiseConstant([0, *cuts, 1],
                             [0.25 + 1.25 * (i % 2) for i in range(98)])
    assert q.left_sum_kernel(n) == "sampled"
    lat = sup_search.coarse_lattice(q, [1, n],
                                    tl.SearchConfig(coarse_grid=grid))
    resampled = []
    sampled = tl.Potential.left_sums

    def recording(self, t, s, n):
        resampled.append(len(t))
        return sampled(self, t, s, n)

    monkeypatch.setattr(tl.Potential, "left_sums", recording)
    sums, slop = q.lattice_sums(lat, n)
    monkeypatch.undo()
    assert len(resampled) == 1 and 0 < resampled[0] < len(lat.ts)
    assert not np.any(slop)
    assert sums.tobytes() == kernel(q, lat.ts, lat.ss, n).tobytes()
