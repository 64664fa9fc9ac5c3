"""Rate fitting, Landau verdicts, and the slow-convergence table."""

import math

import numpy as np
import pytest

import trotter_lab as tl
from trotter_lab.sup_search import SearchTrace

SMALL = tl.SearchConfig(coarse_grid=32, refine_levels=2)


def _poly_points(c, slope, ns):
    return [(n, c * n ** slope) for n in ns]


def test_fit_exact_inverse_n():
    fit = tl.fit_loglog(_poly_points(0.7, -1.0, [2, 4, 8, 16, 32, 64]))
    assert abs(fit.slope + 1.0) < 1e-6
    assert fit.verdict == "POLY_RATE"
    assert fit.verdict_label == "POLY_RATE(1.00)"
    assert fit.rms_residual < 1e-10
    assert fit.n_range == (2, 64)


@pytest.mark.parametrize("slope", [-0.25, -0.5, -1.0])
def test_fit_recovers_planted_slopes(slope):
    # values must dip below the non-convergence floor within the sweep:
    # the floor rule is an iff on the dyadic subsequence minimum
    ns = [2 ** k for k in range(3, 12)]
    fit = tl.fit_loglog(_poly_points(0.5, slope, ns))
    assert abs(fit.slope - slope) <= 0.02
    assert fit.verdict == "POLY_RATE"


def test_fit_exact_zero():
    fit = tl.fit_loglog([(n, 1e-15) for n in (2, 4, 8, 16)])
    assert fit.verdict == "EXACT_ZERO"
    assert fit.slope == 0.0


def test_fit_non_convergent():
    # flat on the dyadic subsequence, well above the floor
    pts = [(2, 0.61), (4, 0.6), (8, 0.62), (16, 0.6), (32, 0.61)]
    fit = tl.fit_loglog(pts)
    assert fit.verdict == "NON_CONVERGENT"
    assert set(fit.subsequence) == {2, 4, 8, 16, 32}


def test_fit_slower_than_poly_flat():
    ns = [2 ** k for k in range(2, 10)]
    pts = [(n, 0.05 + 0.001 / n) for n in ns]
    fit = tl.fit_loglog(pts)
    assert fit.verdict == "SLOWER_THAN_POLY"
    assert fit.slope > -0.05


def test_fit_noisy_steep_is_not_poly():
    # decaying but far from a clean power law: residual cap kicks in
    ns = [2 ** k for k in range(2, 12)]
    pts = [(n, (1.0 / n) * math.exp(0.4 * (-1) ** k))
           for k, n in enumerate(ns)]
    fit = tl.fit_loglog(pts)
    assert fit.verdict == "SLOWER_THAN_POLY"
    assert fit.rms_residual > 0.05


def test_fit_validation():
    with pytest.raises(ValueError):
        tl.fit_loglog([(2, 1.0), (4, 0.5), (8, 0.25)])  # too few
    with pytest.raises(ValueError):
        tl.fit_loglog([(2, 1.0), (2, 0.5), (8, 0.25), (16, 0.1)])
    with pytest.raises(ValueError):
        tl.fit_loglog([(2, 1.0), (4, -0.5), (8, 0.25), (16, 0.1)])
    with pytest.raises(ValueError):
        # all but three collapse below the zero threshold
        tl.fit_loglog([(2, 0.5), (4, 0.25), (8, 0.125), (16, 0.0), (32, 0.0)])


def test_fit_explicit_subsequence():
    # the floor test reads only the powers of two in the sweep
    pts = [(3, 0.6), (4, 0.59), (6, 0.61), (8, 0.6), (12, 0.62)]
    fit = tl.fit_loglog(pts)
    assert fit.verdict == "NON_CONVERGENT"
    assert fit.subsequence == (4, 8)
    # a dip below the floor off the powers of two is not read
    fit = tl.fit_loglog(pts[:2] + [(6, 0.05)] + pts[3:])
    assert fit.verdict == "NON_CONVERGENT"
    # with fewer than two powers of two the floor test reads every n
    for ns in ((3, 5, 6, 7, 9), (3, 4, 5, 6, 7)):
        pts = [(n, 0.6) for n in ns]
        fit = tl.fit_loglog(pts)
        assert fit.subsequence == ns
        assert fit.verdict == "NON_CONVERGENT"
        fit = tl.fit_loglog(pts[:-1] + [(ns[-1], 0.05)])
        assert fit.verdict != "NON_CONVERGENT"


def test_fit_ci_covers_truth_on_noisy_data():
    rng = np.random.default_rng(17)
    ns = [2 ** k for k in range(2, 12)]
    pts = [(n, (2.0 / n ** 0.5) * math.exp(rng.normal(0.0, 0.02)))
           for n in ns]
    fit = tl.fit_loglog(pts)
    assert abs(fit.slope + 0.5) <= fit.slope_ci + 0.02
    assert fit.slope_ci < 0.1


def test_verdict_stability_under_point_removal():
    ns = [2 ** k for k in range(2, 12)]
    sweeps = [
        _poly_points(0.9, -1.0, ns),
        [(n, 0.6 + 0.01 * (k % 2)) for k, n in enumerate(ns)],
        _poly_points(1.1, -0.5, ns),
    ]
    for pts in sweeps:
        base = tl.fit_loglog(pts).verdict
        for drop in range(len(pts)):
            sub = [p for i, p in enumerate(pts) if i != drop]
            assert tl.fit_loglog(sub).verdict == base


def test_holder_check_weierstrass():
    q = tl.HolderWeierstrass(0.5, 8)
    reports = [tl.sup_riemann_error(q, n, SMALL) for n in (4, 16, 64, 256)]
    check = tl.holder_bound_check(q, reports)
    assert check.passed
    assert all(margin >= 0.0 for _, margin in check.margins)
    assert check.violations == ()


def test_holder_check_linear_margins():
    q = tl.Linear()
    reports = [tl.sup_riemann_error(q, n, SMALL) for n in (4, 8, 16, 32)]
    check = tl.holder_bound_check(q, reports)
    assert check.passed
    for n, margin in check.margins:
        assert abs(margin - 1.0 / (2 * n)) < 1e-6


def test_holder_check_requires_certificate():
    q3, _ = tl.build_cantor(3)
    with pytest.raises(ValueError):
        tl.holder_bound_check(q3, [])


def test_holder_check_flags_violation():
    q = tl.Linear()
    fake = tl.SearchReport(
        n=4, value=0.9, argmax=tl.DeltaPair(1.0, 1e-9),
        method=SearchTrace((0.9,), 1))
    check = tl.holder_bound_check(q, [fake])
    assert not check.passed
    assert check.violations == ((4, 0.9, 0.25),)


def test_tent_floor_frozen_value():
    q = tl.build_tent_train([1.0 / j for j in range(1, 13)])
    want = 0.5 * sum(1.0 / j for j in range(2, 13)) - 1.0
    assert abs(q.corner_floor(2) - want) < 1e-12
    assert abs(want - 0.0516053391053391) < 1e-12


def test_corner_floor_only_on_tents(zoo):
    for name, q in zoo:
        assert (q.corner_floor(3) is None) == (name != "tent"), name
    q = tl.build_tent_train([1.0 / j for j in range(1, 13)])
    tab = tl.slow_convergence_check(q, [2, 5])
    assert tab.bound_margins == tuple(
        (m, r - q.corner_floor(m)) for m, r, _ in tab.rows)
    assert tl.slow_convergence_check(tl.Linear(), [2, 5]).bound_margins == ()


def test_slow_convergence_table():
    q = tl.build_tent_train([1.0 / j for j in range(1, 13)])
    tab = tl.slow_convergence_check(q, list(range(2, 11)))
    assert tab.passed
    assert tab.ratios_increasing and tab.bounds_hold
    ms = [m for m, _, _ in tab.rows]
    assert ms == list(range(2, 11))
    ratios = [ratio for _, _, ratio in tab.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    for (m, value, ratio), (_, margin) in zip(tab.rows, tab.bound_margins):
        assert margin >= 0.0
        assert ratio == pytest.approx(value * 2 ** m)


def test_slow_convergence_single_tent():
    q = tl.build_tent_train([1.0])
    tab = tl.slow_convergence_check(q, [1])
    m, value, _ = tab.rows[0]
    assert m == 1
    assert value >= 0.5 - 1e-6  # a1/2 at the corner


def test_slow_convergence_empty_train():
    q = tl.build_tent_train([])
    tab = tl.slow_convergence_check(q, [1, 2, 3])
    assert all(value <= 1e-12 for _, value, _ in tab.rows)


def test_slow_convergence_validation():
    q = tl.build_tent_train([1.0, 0.5])
    with pytest.raises(ValueError):
        tl.slow_convergence_check(q, [0, 1])


def test_decreasing_to_zero_reflection():
    # continuous families head to zero along the sweep; the indicator
    # family stays pinned near its measure on the dyadic subsequence
    ns = [2 ** k for k in range(3, 10)]
    lin = [tl.sup_riemann_error(tl.Linear(), n, SMALL).value for n in ns]
    assert all(b < a for a, b in zip(lin, lin[1:]))
    assert lin[-1] < 1e-3

    q = tl.HolderWeierstrass(0.5, 8)
    wei = [tl.sup_riemann_error(q, n, SMALL).value for n in ns]
    assert all(b < a for a, b in zip(wei, wei[1:]))

    tent = tl.build_tent_train([1.0 / j for j in range(1, 7)])
    corner = tl.DeltaPair(1.0, 1e-9)
    tv = [tl.riemann_error(tent, corner, 2 ** m) for m in range(1, 9)]
    assert all(b <= a + 1e-12 for a, b in zip(tv, tv[1:]))
    assert tv[-1] < 1e-6

    q3, _ = tl.build_cantor(3)
    for m in (1, 2, 3):
        eps = 1.0 / (3.0 * 2.0 ** (2 * m + 2))
        pt = tl.DeltaPair(1.0 - 0.5 * eps, 0.5 * eps)
        assert tl.riemann_error(q3, pt, 2 ** m) >= 0.49
