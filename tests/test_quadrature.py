"""Integrals, left sums, pointwise errors, and the propagator sandwich."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import trotter_lab as tl


def _random_pairs(rng, count, s_floor=1e-6):
    s = rng.uniform(s_floor, 1.0, count)
    t = rng.uniform(s, 1.0)
    return t, s


def test_deltapair_validation():
    pt = tl.DeltaPair(0.7, 0.2)
    assert pt.width == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tl.DeltaPair(0.5, 0.6)  # s > t
    with pytest.raises(ValueError):
        tl.DeltaPair(0.5, 0.0)  # open at s = 0
    with pytest.raises(ValueError):
        tl.DeltaPair(1.2, 0.1)


def test_integrate_examples():
    corner = tl.DeltaPair(1.0, 1e-9)
    assert abs(tl.integrate(tl.Constant(1.0), corner) - (1.0 - 1e-9)) < 1e-15
    assert abs(tl.integrate(tl.Linear(), corner) - 0.5) < 1e-9
    q3, _ = tl.build_cantor(3)
    pt = tl.DeltaPair(1.0 - 1.0 / 384, 1.0 / 384)
    assert tl.integrate(q3, pt) >= 21.0 / 32 - 2.0 / 384


def test_left_sum_examples():
    rng = np.random.default_rng(0)
    t, s = _random_pairs(rng, 20)
    for c in (0.5, 2.0):
        q = tl.Constant(c)
        for ti, si in zip(t, s):
            got = tl.left_darboux_sum(q, tl.DeltaPair(ti, si), 7)
            assert abs(got - c * (ti - si)) < 1e-14
    got = tl.left_darboux_sum(tl.Linear(), tl.DeltaPair(1.0, 1e-9), 4)
    assert abs(got - 0.375) < 1e-8
    q2, _ = tl.build_cantor(2)
    corner = tl.DeltaPair(1.0 - 1.0 / 384, 1.0 / 384)
    assert tl.left_darboux_sum(q2, corner, 4) == 0.0


def test_left_sum_matches_bruteforce(zoo):
    # independent route: plain python accumulation
    rng = np.random.default_rng(1)
    for name, q in zoo:
        for n in (1, 3, 17):
            t, s = _random_pairs(rng, 3)
            for ti, si in zip(t, s):
                brute = sum(q(si + k * (ti - si) / n) for k in range(n))
                brute *= (ti - si) / n
                got = tl.left_darboux_sum(q, tl.DeltaPair(ti, si), n)
                assert abs(got - brute) < 1e-12, (name, n)


def test_riemann_error_examples():
    for n in (1, 4, 100):
        assert tl.riemann_error(tl.Constant(3.0), tl.DeltaPair(0.9, 0.2), n) < 1e-14
    for n in (2, 10, 64):
        r = tl.riemann_error(tl.Linear(), tl.DeltaPair(1.0, 1e-9), n)
        assert abs(r - 1.0 / (2 * n)) < 1e-8
    q3, _ = tl.build_cantor(3)
    corner = tl.DeltaPair(1.0 - 1.0 / 384, 1.0 / 384)
    assert tl.riemann_error(q3, corner, 4) >= 21.0 / 32 - 2.0 / 384


@given(c=st.floats(0.0, 1e3), t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0),
       n=st.integers(1, 10 ** 6), linear=st.booleans())
def test_constant_left_sums_have_no_roundoff(c, t, s, n, linear):
    # a certified bound of 0 must not be broken by roundoff
    q = tl.Linear(slope=0.0, intercept=c) if linear else tl.Constant(c)
    assert tl.riemann_errors(q, t, s, n)[0] == 0.0


def test_linear_closed_form_invariant():
    # R_n = slope * (t-s)^2 / (2n) exactly, for 100 random pairs
    rng = np.random.default_rng(2)
    t, s = _random_pairs(rng, 100)
    for slope, intercept in ((1.0, 0.0), (0.5, 0.25)):
        q = tl.Linear(slope=slope, intercept=intercept)
        for n in (3, 8, 41):
            got = tl.riemann_errors(q, t, s, n)
            want = slope * (t - s) ** 2 / (2 * n)
            assert np.max(np.abs(got - want)) < 1e-10


def test_batch_matches_scalar(zoo):
    rng = np.random.default_rng(3)
    t, s = _random_pairs(rng, 16)
    for name, q in zoo:
        batch = tl.riemann_errors(q, t, s, 9)
        for i in range(len(t)):
            one = tl.riemann_error(q, tl.DeltaPair(t[i], s[i]), 9)
            assert batch[i] == one, name


def test_propagator_examples():
    gap = tl.propagators(tl.Constant(1.0), tl.DeltaPair(1.0, 1e-9), 5)
    assert abs(gap.u - math.exp(-1.0)) < 1e-8
    assert gap.u == gap.v_n
    assert gap.gap == 0.0

    zero = tl.propagators(tl.Constant(0.0), tl.DeltaPair(0.8, 0.3), 5)
    assert zero.u == 1.0 and zero.v_n == 1.0

    lin = tl.propagators(tl.Linear(), tl.DeltaPair(1.0, 1e-9), 10)
    assert math.exp(-1.0) * 0.05 - 1e-9 <= lin.gap <= 0.05 + 1e-12


def test_pointwise_sandwich(zoo):
    rng = np.random.default_rng(4)
    for name, q in zoo:
        damp = math.exp(-q.sup_norm)
        for _ in range(50):
            t, s = _random_pairs(rng, 1)
            n = int(rng.integers(1, 1025))
            pt = tl.DeltaPair(float(t[0]), float(s[0]))
            gap = tl.propagators(q, pt, n)
            r = tl.riemann_error(q, pt, n)
            assert gap.gap <= r + 1e-12, name
            assert gap.gap >= damp * r - 1e-12, name


def test_propagator_values_in_unit_interval(zoo):
    rng = np.random.default_rng(5)
    t, s = _random_pairs(rng, 10)
    for name, q in zoo:
        for i in range(len(t)):
            g = tl.propagators(q, tl.DeltaPair(t[i], s[i]), 6)
            assert 0.0 < g.u <= 1.0 and 0.0 < g.v_n <= 1.0, name
            assert g.gap == abs(g.u - g.v_n)


def test_cocycle(zoo):
    # U(t,s) = U(t,r) U(r,s) for any intermediate r
    rng = np.random.default_rng(6)
    for name, q in zoo:
        for _ in range(25):
            s, r, t = np.sort(rng.uniform(1e-6, 1.0, 3))
            if s == r or r == t:
                continue
            u_ts = math.exp(-tl.integrate(q, tl.DeltaPair(t, s)))
            u_tr = math.exp(-tl.integrate(q, tl.DeltaPair(t, r)))
            u_rs = math.exp(-tl.integrate(q, tl.DeltaPair(r, s)))
            assert abs(u_ts - u_tr * u_rs) < 1e-12, name


def test_monotone_left_sum_bound():
    # classical bound for monotone integrands, used as a sanity oracle
    rng = np.random.default_rng(7)
    q = tl.Linear()
    t, s = _random_pairs(rng, 50)
    for n in (2, 9, 33):
        r = tl.riemann_errors(q, t, s, n)
        cap = (t - s) / n * (q(t) - q(s))
        assert np.all(r <= cap + 1e-15)


def test_riemann_error_nonnegative(zoo):
    rng = np.random.default_rng(8)
    t, s = _random_pairs(rng, 64)
    for name, q in zoo:
        assert np.all(tl.riemann_errors(q, t, s, 5) >= 0.0), name
