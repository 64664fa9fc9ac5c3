"""Finite-dimensional product-formula checks: telescoping and O(1/n)."""

import math

import numpy as np
import pytest

import trotter_lab as tl
from trotter_lab.matrix_lie import _draw_pair


def test_expm_zero_and_diagonal():
    assert np.allclose(tl.expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    got = tl.expm(np.diag([-1.0, 0.5]))
    assert np.allclose(np.diag(got), [math.exp(-1.0), math.exp(0.5)], atol=1e-14)


def test_expm_nilpotent():
    n = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(tl.expm(n), np.eye(2) + n, atol=1e-14)


def test_expm_validation():
    with pytest.raises(ValueError):
        tl.expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        tl.expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(OverflowError):
        tl.expm(np.diag([300.0, 0.0]))


def test_expm_cap_is_on_the_two_norm():
    # ||diag(150, 150)||_F = 212 > 200 = cap, but its 2-norm is 150
    got = tl.expm(np.diag([150.0, 150.0]))
    assert np.allclose(np.diag(got), [math.exp(150.0)] * 2, rtol=1e-12)
    with pytest.raises(OverflowError):
        tl.expm(np.diag([250.0, 1.0]))


def test_spectral_norm_known_values():
    assert tl.spectral_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-10)
    assert tl.spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, abs=1e-10)
    assert tl.spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = np.linalg.norm(mat, 2)
        got = tl.spectral_norm(mat)
        assert abs(got - want) <= 1e-8 * max(1.0, want)


def test_telescoping_trivial():
    z = np.zeros((3, 3))
    assert tl.telescoping_residual(z, z, 1.0, 4) == 0.0


def test_telescoping_seeded_pairs():
    # the identity is algebraic; residual must sit at roundoff scale
    for seed in range(20):
        dim = 2 + seed % 7
        a, b = tl.random_matrix_pair(dim, 2.0, seed)
        tau = 0.25 + 1.75 * ((seed * 0.37) % 1.0)
        resid = tl.telescoping_residual(a, b, tau, 8)
        scale = math.exp(tl.spectral_norm(a) + tl.spectral_norm(b))
        assert resid <= 1e-12 * scale, seed


def test_telescoping_n1():
    a, b = tl.random_matrix_pair(4, 1.5, 11)
    resid = tl.telescoping_residual(a, b, 1.0, 1)
    assert resid <= 1e-13


def test_lie_error_commuting_is_zero():
    a = np.diag([0.5, 1.0, 2.0])
    b = np.diag([1.5, 0.25, 0.75])
    for n, err in tl.lie_error(a, b, 1.0, [1, 4, 16]):
        assert err <= 1e-12


def test_lie_error_nilpotent_rate():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = a.T.copy()
    ns = [2 ** k for k in range(4, 13)]
    pts = tl.lie_error(a, b, 1.0, ns)
    fit = tl.fit_loglog(pts)
    assert abs(fit.slope + 1.0) <= 0.1
    assert fit.verdict.startswith("POLY_RATE")


def test_lie_error_n_times_error_bounded():
    a, b = tl.random_matrix_pair(4, 1.0, 3)
    pts = tl.lie_error(a, b, 1.0, [2 ** k for k in range(2, 10)])
    scaled = [n * e for n, e in pts]
    assert max(scaled) <= 3.0 * np.median(scaled)


def test_lie_error_validation():
    a, b = tl.random_matrix_pair(3, 1.0, 0)
    with pytest.raises(ValueError):
        tl.lie_error(a, b, 1.0, [4, 2])
    with pytest.raises(ValueError):
        tl.lie_error(a, b, 1.0, [])
    with pytest.raises(ValueError):
        tl.telescoping_residual(a, b, 1.0, 0)
    with pytest.raises(ValueError, match="share a dimension"):
        tl.telescoping_residual(a, np.eye(2), 1.0, 4)
    with pytest.raises(ValueError, match="n must be >= 1"):
        tl.lie_error(a, b, 1.0, [0, 2])
    with pytest.raises(ValueError, match="dim must be >= 1"):
        tl.random_matrix_pair(0, 1.0, 0)
    for bound in (0.0, -1.0):
        with pytest.raises(ValueError, match="norm_bound must be > 0"):
            tl.random_matrix_pair(3, bound, 0)


def test_random_pair_determinism_and_norms():
    a1, b1 = tl.random_matrix_pair(5, 2.0, 42)
    a2, b2 = tl.random_matrix_pair(5, 2.0, 42)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert tl.spectral_norm(a1) <= 2.0 + 1e-9
    assert tl.spectral_norm(b1) <= 2.0 + 1e-9
    a3, _ = tl.random_matrix_pair(5, 2.0, 43)
    assert not np.array_equal(a1, a3)


def _telescoping_by_powers(A, B, tau, n):
    """The identity summed from two lists of n matrix powers, as a reference."""
    step = tau / n
    P = tl.expm(-step * A) @ tl.expm(-step * B)
    E = tl.expm(-step * (A + B))
    lhs = np.linalg.matrix_power(P, n) - tl.expm(-tau * (A + B))
    eye = np.eye(A.shape[0], dtype=complex)
    p_pows, e_pows = [eye], [eye]
    for _ in range(n - 1):
        p_pows.append(p_pows[-1] @ P)
        e_pows.append(e_pows[-1] @ E)
    rhs = sum(p_pows[n - 1 - k] @ (P - E) @ e_pows[k] for k in range(n))
    return tl.spectral_norm(lhs - rhs)


@pytest.mark.parametrize("dim", [4, 16, 48])
@pytest.mark.parametrize("n", [1, 2, 8, 33])
def test_telescoping_running_sum_matches_powers(dim, n):
    for seed in range(3):
        a, b = tl.random_matrix_pair(dim, 2.0, seed)
        got = tl.telescoping_residual(a, b, 1.0, n)
        assert abs(got - _telescoping_by_powers(a, b, 1.0, n)) <= 1e-13
    z = np.zeros((dim, dim))
    assert tl.telescoping_residual(z, z, 1.0, n) == 0.0


def _draw_by_hand(dim, norm_bound, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = tl.spectral_norm(g)
        out.append(g * (norm_bound * rng.uniform(0.3, 1.0) / s))
    return out


@pytest.mark.parametrize("dim", [4, 16])
def test_drawn_target_norms_bound_the_true_norms(dim):
    # the lie check scales by e^{target_a + target_b}; targets at or below
    # the true norms keep that check at least as strict as exact norms
    for seed in range(32):
        a, b, norm_a, norm_b = _draw_pair(dim, 2.0, seed)
        for got, want in zip((a, b), _draw_by_hand(dim, 2.0, seed)):
            assert np.array_equal(got, want)
        for mat, target in ((a, norm_a), (b, norm_b)):
            assert target <= np.linalg.norm(mat, 2) <= target * (1 + 1e-3), seed
