"""Discretized semigroup actions, symbol norms, and the oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trotter_lab as tl
from trotter_lab import semigroup, sup_search
from trotter_lab.semigroup import _shifted


def _smooth(m, p=2.0):
    return tl.GridFunction.from_callable(lambda t: np.sin(np.pi * t) ** 2, m, p)


def _random_gf(rng, m, p=2.0):
    vals = rng.normal(size=m) + 1j * rng.normal(size=m)
    return tl.GridFunction(vals, p)


def test_gridfunction_norms():
    f = tl.GridFunction(np.array([3.0, -4.0, 0.0, 0.0]), p=1.0)
    assert f.norm() == pytest.approx(7.0 / 4.0)
    g = tl.GridFunction(np.array([3.0, -4.0, 0.0, 0.0]), p=2.0)
    assert g.norm() == pytest.approx(5.0 / 2.0)
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            tl.GridFunction(np.array([1.0]), p=p)
    with pytest.raises(ValueError):
        tl.GridFunction(np.array([]).reshape(0), p=2.0)


def test_gridfunction_nodes_and_sub():
    f = _smooth(8)
    assert np.allclose(f.nodes(), (np.arange(8) + 0.5) / 8)
    with pytest.raises(ValueError):
        _ = f - _smooth(16)


def test_shift_identity_and_nilpotent():
    rng = np.random.default_rng(0)
    f = _random_gf(rng, 64)
    out0 = tl.apply_shift(0.0, f)
    assert np.array_equal(out0.samples, f.samples)
    for tau in (1.0, 1.5, 7.0):
        out = tl.apply_shift(tau, f)
        assert np.all(out.samples == 0.0)
    with pytest.raises(ValueError):
        tl.apply_shift(-0.1, f)


def test_shift_indicator_example():
    m = 64
    nodes = (np.arange(m) + 0.5) / m
    f = tl.GridFunction((nodes < 0.5).astype(float))
    out = tl.apply_shift(0.5, f)
    want = (nodes >= 0.5).astype(float)
    assert np.array_equal(out.samples.real, want)


def test_shift_rounding_warning():
    f = _smooth(64)
    with pytest.warns(tl.GridResolutionWarning):
        tl.apply_shift(1.0 / 3.0, f)


def test_mult_examples():
    rng = np.random.default_rng(1)
    f = _random_gf(rng, 128)
    out0 = tl.apply_mult_semigroup(tl.Linear(), 0.0, f)
    assert np.array_equal(out0.samples, f.samples)

    out = tl.apply_mult_semigroup(tl.Constant(1.0), 1.0, f)
    assert np.allclose(out.samples, math.exp(-1.0) * f.samples, rtol=0, atol=1e-15)

    qc, cons = tl.build_cantor(2)
    nodes = f.nodes()
    out = tl.apply_mult_semigroup(qc, 1.0, f)
    inside = qc(nodes) == 0.0
    assert np.array_equal(out.samples[inside], f.samples[inside])
    assert np.allclose(out.samples[~inside], math.exp(-1.0) * f.samples[~inside],
                       rtol=0, atol=1e-15)


def test_exact_matches_shift_for_zero_potential():
    rng = np.random.default_rng(2)
    f = _random_gf(rng, 256)
    a = tl.apply_exact(tl.Constant(0.0), 0.25, f)
    b = tl.apply_shift(0.25, f)
    assert np.array_equal(a.samples, b.samples)


def test_exact_constant_two_paths():
    rng = np.random.default_rng(3)
    f = _random_gf(rng, 256)
    tau = 0.25
    a = tl.apply_exact(tl.Constant(2.0), tau, f)
    b = tl.apply_mult_semigroup(tl.Constant(2.0), tau, tl.apply_shift(tau, f))
    assert np.max(np.abs(a.samples - b.samples)) < 1e-12


def test_exact_semigroup_law():
    q = tl.HolderWeierstrass(0.5, 6)
    f = _smooth(4096)
    one = tl.apply_exact(q, 0.375, f)
    two = tl.apply_exact(q, 0.25, tl.apply_exact(q, 0.125, f))
    assert np.max(np.abs(one.samples - two.samples)) < 1e-12


def test_exact_nilpotent():
    f = _smooth(128)
    for tau in (1.0, 2.5):
        assert np.all(tl.apply_exact(tl.Linear(), tau, f).samples == 0.0)
        assert np.all(tl.apply_trotter(tl.Linear(), tau, 4, f).samples == 0.0)


def test_trotter_constant_equals_exact():
    rng = np.random.default_rng(4)
    f = _random_gf(rng, 512)
    for n in (1, 2, 8):
        a = tl.apply_trotter(tl.Constant(1.5), 0.5, n, f)
        b = tl.apply_exact(tl.Constant(1.5), 0.5, f)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-12


def test_trotter_n1_closed_form():
    m, tau = 2048, 0.5
    q = tl.Linear()
    f = _smooth(m)
    out = tl.apply_trotter(q, tau, 1, f)
    ts = f.nodes()
    r = round(tau * m)
    want = np.zeros(m, dtype=complex)
    # single step: damp at the source point t - tau, then shift
    want[r:] = np.exp(-tau * q(ts[:m - r])) * f.samples[:m - r]
    assert np.max(np.abs(out.samples - want)) < 1e-15


def _trotter_step_loop(q, tau, n, f):
    """The step-by-step product: damp, then shift by the rounded step, n times."""
    r = int(round((tau / n) * f.m))
    damp = np.exp(-(tau / n) * q(f.nodes()))
    g = f.samples
    for _ in range(n):
        g = _shifted(damp * g, r)
    return g


@pytest.mark.parametrize("m, tau, n", [
    (512, 0.01, 64),    # r = 0: every step damps in place
    (512, 1.5, 4),      # n r > m: the product is zero
    (512, 1.0, 8),      # tau = 1, n r = m
    (1000, 1.0, 3),     # tau = 1, n r = m - 1: one landing cell
    (1024, 0.3, 7),     # misaligned tau: r = round(43.9) = 44
    (1000, 0.37, 5),    # m not divisible by r = 74
    (4096, 0.5, 64),
])
def test_trotter_bit_equal_to_step_loop(monkeypatch, zoo, m, tau, n):
    rng = np.random.default_rng(m + n)
    real = tl.GridFunction(rng.standard_normal(m))
    cplx = _random_gf(rng, m)

    def no_step_copies(*args):
        raise AssertionError("apply_trotter shifted the grid once per step")

    for name, q in zoo:
        for f in (real, cplx):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = _trotter_step_loop(q, tau, n, f)
                with monkeypatch.context() as mp:
                    mp.setattr(semigroup, "_shifted", no_step_copies)
                    got = tl.apply_trotter(q, tau, n, f).samples
            assert got.tobytes() == want.tobytes(), (name, m, tau, n)


def _per_tau_grid_per_seed(q, tau, n):
    """The symbol grid search with one linspace per refinement seed."""
    ts = np.linspace(tau, 1.0, semigroup._T_GRID)
    vals = semigroup._symbol_gaps(q, tau, n, ts)
    best = float(vals.max())
    best_t = float(ts[int(np.argmax(vals))])
    spacing = (1.0 - tau) / (semigroup._T_GRID - 1)
    for _ in range(semigroup._T_REFINE_LEVELS):
        seeds = ts[np.argsort(-vals)[:8]]
        pts = np.concatenate([
            np.linspace(t0 - spacing, t0 + spacing,
                        sup_search._REFINE_FACTOR + 1)
            for t0 in seeds])
        ts = np.clip(pts, tau, 1.0)
        vals = semigroup._symbol_gaps(q, tau, n, ts)
        cand = float(vals.max())
        if cand > best:
            best = cand
            best_t = float(ts[int(np.argmax(vals))])
        spacing = 2.0 * spacing / sup_search._REFINE_FACTOR
    return best, best_t


def test_refinement_rows_bit_equal_to_linspace_per_seed(monkeypatch):
    # a zero step in one row (the seed 1.0) must not move the other rows
    seeds = np.array([1.0, 1e-4, 3.3e-4, 7e-4])
    for spacing in (1e-17, 2.5e-4 / 3.0):
        rows = np.linspace(seeds - spacing, seeds + spacing,
                           sup_search._REFINE_FACTOR + 1, axis=1).ravel()
        want = np.concatenate([
            np.linspace(t0 - spacing, t0 + spacing,
                        sup_search._REFINE_FACTOR + 1) for t0 in seeds])
        assert rows.tobytes() == want.tobytes(), spacing

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return linspace(*args, **kwargs)

    linspace = np.linspace
    cases = [(tl.Linear(), 0.3, 7), (tl.HolderWeierstrass(0.5, 8), 0.125, 16),
             (tl.build_tent_train([1.0, 0.5, 0.25]), 1.0 / 3.0, 4),
             (tl.Linear(0.5, 0.25), 0.999, 64)]
    for q, tau, n in cases:
        want = _per_tau_grid_per_seed(q, tau, n)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(np, "linspace", counted)
            got = semigroup._per_tau_grid(q, tau, n)
        assert got == want, (q, tau, n)
        # the first grid, then one call per refinement round
        assert len(calls) == 1 + semigroup._T_REFINE_LEVELS


def test_trotter_subgrid_warning():
    f = _smooth(64)
    with pytest.warns(tl.GridResolutionWarning):
        tl.apply_trotter(tl.Linear(), 0.5, 128, f)


def test_contractivity(zoo):
    rng = np.random.default_rng(5)
    m = 512
    for p in (1.0, 2.0, 4.0):
        f = _random_gf(rng, m, p)
        base = f.norm()
        for name, q in zoo:
            for tau in (0.125, 0.375):  # grid-aligned, no warnings
                for out in (tl.apply_shift(tau, f),
                            tl.apply_mult_semigroup(q, tau, f),
                            tl.apply_exact(q, tau, f),
                            tl.apply_trotter(q, tau, 4, f)):
                    assert out.norm() <= base + 1e-12, (name, p, tau)


def test_closed_form_agreement():
    # apply_trotter against the product-symbol formula. Step potentials
    # are tested at grid-aligned tau only: misaligned per-step rounding
    # can push a sample across a jump, which the stated envelope does not
    # cover; continuous q tolerates arbitrary tau.
    cases = [
        (tl.Linear(), 0.25, 5),               # misaligned (1024*0.25/5)
        (tl.HolderWeierstrass(0.5, 6), 0.25, 7),
        (tl.build_cantor(2)[0], 0.25, 4),      # aligned
        (tl.build_cantor(2)[0], 0.5, 16),      # aligned
    ]
    m = 1024
    f = _smooth(m)
    ts = f.nodes()
    for q, tau, n in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = tl.apply_trotter(q, tau, n, f)
        r_step = round(tau * m / n)
        r_total = n * r_step
        ok = np.arange(m) >= r_total
        shifted = np.zeros(m, dtype=complex)
        shifted[r_total:] = f.samples[:m - r_total]
        sums = tl.left_darboux_sums(q, ts[ok], np.clip(ts[ok] - tau, 0.0, 1.0), n)
        want = np.zeros(m, dtype=complex)
        want[ok] = np.exp(-sums) * shifted[ok]
        err = np.max(np.abs(out.samples - want))
        assert err <= 2.0 * q.sup_norm * (n / m + 1.0 / m) + 1e-12, (q.kind, tau, n)


def test_per_tau_trivial():
    assert tl.per_tau_operator_norm(tl.Linear(), 0.0, 4) == 0.0
    for tau in np.linspace(0.0, 1.0, 9):
        assert tl.per_tau_operator_norm(tl.Constant(2.0), float(tau), 5) <= 1e-15
    with pytest.raises(ValueError):
        tl.per_tau_operator_norm(tl.Linear(), 1.5, 4)
    with pytest.raises(ValueError):
        tl.per_tau_operator_norm(tl.Linear(), 0.5, 0)


def test_per_tau_linear_sup_over_grid():
    vals = [tl.per_tau_operator_norm(tl.Linear(), j / 256, 10)
            for j in range(257)]
    top = max(vals)
    assert math.exp(-1.0) * 0.05 - 1e-3 <= top <= 0.05 + 1e-9
    assert vals[0] == 0.0
    assert vals[256] == 0.0  # nilpotent horizon


def test_per_tau_grid_ties_follow_the_search_order(monkeypatch):
    # a constant symbol ties exactly across t, so the seeds and t* come from
    # the tie-break: largest value, then smallest s = t - tau (smallest t)
    q = tl.Constant(0.7)
    gaps = semigroup._symbol_gaps
    for tau, n in ((0.3, 7), (0.125, 16), (0.37, 5)):
        probed = []

        def recorded(q, tau, n, ts):
            probed.append((ts, gaps(q, tau, n, ts)))
            return probed[-1][1]

        with monkeypatch.context() as mp:
            mp.setattr(semigroup, "_symbol_gaps", recorded)
            value, t_star = semigroup._per_tau_grid(q, tau, n)
        ts = np.concatenate([t for t, _ in probed])
        vals = np.concatenate([v for _, v in probed])
        top = vals.max()
        assert np.count_nonzero(vals == top) > 1, (tau, n)
        assert (value, t_star) == (top, ts[vals == top].min()), (tau, n)
        side = sup_search._REFINE_FACTOR + 1
        for (t0, v0), (t1, _) in zip(probed, probed[1:]):
            want = np.sort(t0[v0 == v0.max()])[:semigroup._T_TOP]
            centers = t1.reshape(-1, side)[:, side // 2]
            assert np.allclose(centers, want, rtol=0, atol=1e-12), (tau, n)


def test_per_tau_exact_vs_dense_grid():
    # step-potential path is event-exact; a dense grid must agree from below
    q2, _ = tl.build_cantor(2)
    for tau, n in ((0.5, 4), (0.9, 16), (0.3, 3)):
        exact = tl.per_tau_operator_norm(q2, tau, n)
        ts = np.linspace(tau + 1e-9, 1.0 - 1e-12, 100_001)
        u = np.exp(-(q2.antiderivative(ts) - q2.antiderivative(ts - tau)))
        v = np.exp(-tl.left_darboux_sums(q2, ts, ts - tau, n))
        dense = float(np.max(np.abs(u - v)))
        assert exact >= dense - 1e-12
        assert exact <= dense + 5e-4


def test_oracle_constant_near_zero():
    val = tl.operator_norm_oracle(tl.Constant(1.0), 0.5, 4, 2.0, m=2048)
    assert val <= 1e-12


def test_oracle_reaches_symbol_norm():
    m = 8192
    tau = 255.0 / 256.0  # grid-aligned: tau*m/n integral for n=10
    want = tl.per_tau_operator_norm(tl.Linear(), tau, 10)
    for p in (1.0, 2.0, 4.0):
        got = tl.operator_norm_oracle(tl.Linear(), tau, 10, p, m=m)
        assert got >= 0.95 * want, p
        assert got <= want + 2.0 * tl.Linear().sup_norm / m + 1e-12, p


def test_oracle_upper_bound_invariant():
    q2, _ = tl.build_cantor(2)
    m = 4096
    want = tl.per_tau_operator_norm(q2, 0.5, 4)
    got = tl.operator_norm_oracle(q2, 0.5, 4, 2.0, m=m)
    assert got <= want + 2.0 * q2.sup_norm / m + 1e-9


def test_oracle_validation():
    with pytest.raises(ValueError):
        tl.operator_norm_oracle(tl.Linear(), 1.5, 4, 2.0)
    # the maps behind the oracle reject a negative tau and n < 1
    q, f = tl.Linear(), _smooth(16)
    for apply in (lambda tau: tl.apply_mult_semigroup(q, tau, f),
                  lambda tau: tl.apply_exact(q, tau, f),
                  lambda tau: tl.apply_trotter(q, tau, 4, f)):
        with pytest.raises(ValueError, match="tau must be >= 0"):
            apply(-0.1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        tl.apply_trotter(q, 0.5, 0, f)


def test_oracle_nilpotent_tau():
    # at tau = 1 with step-aligned n both maps vanish: every quotient is 0
    val = tl.operator_norm_oracle(tl.Linear(), 1.0, 8, 2.0, m=1024)
    assert val == 0.0


def test_oracle_holds_one_test_function():
    # at m = 2^16 the oracle holds one test function, the constant, and
    # its two images: a few 1 MB vectors
    q = tl.Linear()
    tracemalloc.start()
    try:
        tl.operator_norm_oracle(q, 0.5, 4, 2.0, m=1 << 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# one member of each potential family
def _full_sweep(q, taus, n):
    """Every tau's symbol norm, then the largest (norm, tau, t*): the sweep
    without pruning, which the pruned one must reproduce."""
    return max((norm, tau, t_star) for tau in taus
               for norm, t_star in [semigroup._per_tau_norm_argmax(q, tau, n)])


SWEEP_FAMILIES = {
    "linear": tl.Linear(),
    "tent": tl.build_tent_train([1.0 / j for j in range(1, 5)]),
    "weier": tl.HolderWeierstrass(0.5, 6),
    "pw": tl.PiecewiseConstant([0.0, 1.0 / 3.0, 0.5, 1.0], [1.0, 0.0, 2.0]),
    "cantor": tl.build_cantor(3)[0],
    "constant": tl.Constant(0.7),
    # a step potential without jumps: a zero ceiling, and symbols of
    # 1.1e-16 from roundoff that only the slack lets the sweep see
    "one-piece": tl.PiecewiseConstant([0.0, 1.0], [0.3]),
}


def _memoized_per_tau(monkeypatch):
    """Record each per-tau call and compute each (q, tau, n) once."""
    per_tau = semigroup._per_tau_norm_argmax
    memo, calls = {}, []

    def recorded(q, tau, n):
        calls.append(tau)
        key = (id(q), tau, n)
        if key not in memo:
            memo[key] = per_tau(q, tau, n)
        return memo[key]

    monkeypatch.setattr(semigroup, "_per_tau_norm_argmax", recorded)
    return calls


@pytest.mark.parametrize("name", sorted(SWEEP_FAMILIES))
def test_pruned_sweep_equals_full_sweep(name, monkeypatch):
    q = SWEEP_FAMILIES[name]
    _memoized_per_tau(monkeypatch)
    for n in (1, 3, 16):
        for grid in (7, 32):
            taus = [j / grid for j in range(1, grid + 1)]
            assert tl.sup_over_taus(q, taus, n) == _full_sweep(q, taus, n), (
                n, grid)


def test_pruned_sweep_skips_taus_on_linear(monkeypatch):
    calls = _memoized_per_tau(monkeypatch)
    q = tl.Linear()
    taus = [j / 256 for j in range(1, 257)]
    for n, swept in ((4, 51), (16, 56), (64, 57)):
        calls.clear()
        got = tl.sup_over_taus(q, taus, n)
        assert len(calls) == swept < len(taus), n
        assert got == _full_sweep(q, taus, n), n


def test_pruned_sweep_needs_its_roundoff_slack(monkeypatch):
    # without the slack the sweep stops at the first tau whose roundoff
    # symbol beats the zero ceilings, and misses the larger tau of the tie
    q = SWEEP_FAMILIES["one-piece"]
    taus = [j / 100 for j in range(1, 101)]
    want = _full_sweep(q, taus, 3)
    assert want[0] > q.certified_upper_bound(3, want[1]) == 0.0
    assert tl.sup_over_taus(q, taus, 3) == want
    monkeypatch.setattr(semigroup, "_PRUNE_SLACK", 0.0)
    assert tl.sup_over_taus(q, taus, 3) != want


def test_sweep_argument_errors():
    with pytest.raises(ValueError, match="non-empty"):
        tl.sup_over_taus(tl.Linear(), [], 4)
    with pytest.raises(ValueError):
        tl.sup_over_taus(tl.Linear(), [0.5, 1.5], 4)
    with pytest.raises(ValueError):
        tl.sup_over_taus(tl.Linear(), [0.5], 0)


ORACLE_FAMILIES = (
    tl.Constant(1.0), tl.Linear(), tl.Linear(slope=0.5, intercept=0.25),
    tl.PiecewiseConstant([0.0, 0.25, 0.5, 1.0], [1.0, 0.0, 2.0]),
    tl.HolderWeierstrass(0.5, 8),
    tl.build_tent_train([1.0 / j for j in range(1, 7)]),
    tl.build_cantor(3)[0])
ORACLE_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                           database=None)


@st.composite
def aligned_cases(draw):
    """(q, tau, n, m) with tau on the m-point grid and tau m / n an integer."""
    q = draw(st.sampled_from(ORACLE_FAMILIES))
    m = 1 << draw(st.integers(4, 12))
    n = draw(st.integers(1, 64))
    return q, n * draw(st.integers(0, m // n)) / m, n, m


def _quotient(q, tau, n, f):
    diff = tl.apply_exact(q, tau, f) - tl.apply_trotter(q, tau, n, f)
    return diff.norm() / f.norm()


@ORACLE_PROPERTY
@given(case=aligned_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_bounds_gaussian_quotients(case, seed):
    q, tau, n, m = case
    rng = np.random.default_rng(seed)
    for p in (1.0, 2.0, 4.0):
        f = tl.GridFunction(rng.standard_normal(m), p)
        assert _quotient(q, tau, n, f) <= (
            tl.operator_norm_oracle(q, tau, n, p, m=m) * (1.0 + 1e-12)), p


@ORACLE_PROPERTY
@given(case=aligned_cases())
def test_oracle_same_for_every_p_when_aligned(case):
    q, tau, n, m = case
    values = {tl.operator_norm_oracle(q, tau, n, p, m=m) for p in (1.0, 2.0, 4.0)}
    assert len(values) == 1


@ORACLE_PROPERTY
@given(case=aligned_cases())
def test_oracle_reaches_the_bump_at_t_star(case):
    # the width-1 indicator whose damped window lands at the symbol's t*
    q, tau, n, m = case
    _, t_star = semigroup._per_tau_norm_argmax(q, tau, n)
    cell = min(m - 1, max(0, round(t_star * m - 0.5))) - round(tau * m)
    assume(cell >= 0)
    bump = np.zeros(m)
    bump[cell] = 1.0
    assert tl.operator_norm_oracle(q, tau, n, 2.0, m=m) >= _quotient(
        q, tau, n, tl.GridFunction(bump))


@ORACLE_PROPERTY
@given(case=aligned_cases())
def test_oracle_below_symbol_norm_plus_slack(case):
    q, tau, n, m = case
    assert tl.operator_norm_oracle(q, tau, n, 2.0, m=m) <= (
        tl.per_tau_operator_norm(q, tau, n) + 2.0 * q.sup_norm / m + 1e-12)


@ORACLE_PROPERTY
@given(q=st.sampled_from(ORACLE_FAMILIES), m=st.integers(8, 128),
       n=st.integers(2, 16), cells=st.integers(1, 128),
       p=st.sampled_from((1.0, 2.0, 4.0)))
def test_oracle_misaligned_is_the_best_unit_delta(q, m, n, cells, p):
    tau = min(cells, m) / m
    assume(round(tau * m) != n * round(tau / n * m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tl.GridResolutionWarning)
        got = tl.operator_norm_oracle(q, tau, n, p, m=m)
        brute = max(_quotient(q, tau, n, tl.GridFunction(np.eye(m)[k], p))
                    for k in range(m))
    assert got == pytest.approx(brute, rel=1e-12, abs=0.0)


def test_strong_curve_examples():
    f = _smooth(2048)
    curve = tl.strong_convergence_curve(tl.Constant(1.0), f, 0.5, [1, 2, 4])
    assert all(resid <= 1e-12 for _, resid in curve)

    q3, _ = tl.build_cantor(3)
    curve = tl.strong_convergence_curve(q3, f, 0.5, [2, 8, 32, 128])
    resids = [r for _, r in curve]
    assert resids[-1] < 0.25 * resids[0]  # strong convergence kicks in

    with pytest.raises(ValueError):
        tl.strong_convergence_curve(q3, f, 0.5, [4, 2])
    with pytest.raises(ValueError):
        tl.strong_convergence_curve(q3, f, 0.5, [])


def test_strong_curve_no_warnings_when_aligned():
    f = _smooth(4096)
    q3, _ = tl.build_cantor(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tl.strong_convergence_curve(q3, f, 0.5, [2, 4, 8, 16])
