"""Finite-dimensional product-formula checks: telescoping and O(1/n)."""

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trotter_lab as tl
from trotter_lab.cli import main
from trotter_lab.matrix_lie import _NORM_CAP, _THETA, _draw_pair

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_expm_zero_and_diagonal():
    for dim in (0, 1, 2, 5, 16):
        assert np.array_equal(tl.expm(np.zeros((dim, dim))), np.eye(dim))
    got = tl.expm(np.diag([-1.0, 0.5]))
    assert np.allclose(np.diag(got), [math.exp(-1.0), math.exp(0.5)], atol=1e-14)


def test_expm_nilpotent():
    n = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(tl.expm(n), np.eye(2) + n, atol=1e-14)


def test_expm_validation():
    with pytest.raises(ValueError):
        tl.expm(np.ones((2, 3)))
    # a NaN or inf entry makes max|a_ij| non-finite, which starts the scan
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="entries must be finite"):
            tl.expm(np.array([[bad, 0.0], [0.0, 0.0]]))
    with pytest.raises(OverflowError):
        tl.expm(np.diag([300.0, 0.0]))
    # |a_11| = 2.4e308 overflows to inf, and so does the 2-norm; pytest
    # turns any RuntimeWarning on the way into an error
    with pytest.raises(OverflowError, match="matrix norm inf exceeds cap"):
        tl.expm(np.array([[1.7e308 + 1.7e308j, 0.0], [0.0, 0.0]]))


def test_expm_cap_is_on_the_two_norm():
    # ||diag(150, 150)||_F = 212 > 200 = cap, but its 2-norm is 150
    got = tl.expm(np.diag([150.0, 150.0]))
    assert np.allclose(np.diag(got), [math.exp(150.0)] * 2, rtol=1e-12)
    with pytest.raises(OverflowError):
        tl.expm(np.diag([250.0, 1.0]))


# 1-norm intervals (low, high] that select each Taylor degree unscaled, and
# degree 20 on A / 2^3 with s = 3 squarings
_BRANCHES = {f"m{m}": (low, _THETA[m])
             for low, m in zip([0.0, *_THETA.values()], _THETA)}
_BRANCHES["m20s3"] = (4 * _THETA[20], 8 * _THETA[20])
# the bands of the Pade [m/m] thresholds of Higham (2005), kept as wider
# norms between and past the Taylor ones: m13 reads degree 20 with 1 or 2
# squarings, m13s3 reads degree 20 with 4 or 5
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}
_BRANCHES.update({"m3": (0.0, _PADE_THETA[3]),
                  "m5": (_PADE_THETA[3], _PADE_THETA[5]),
                  "m7": (_PADE_THETA[5], _PADE_THETA[7]),
                  "m13": (_PADE_THETA[9], _PADE_THETA[13]),
                  "m13s3": (4 * _PADE_THETA[13], 8 * _PADE_THETA[13])})


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
@pytest.mark.parametrize("branch", [*_BRANCHES, "cap"])
def test_expm_matches_mpmath(dim, branch):
    # the relative condition number of e^A grows like ||A||, so near the
    # cap of 200 a correct kernel reads up to 2e-14 here; the bound is five
    # times that, and a wrong coefficient or power reads 1e-10 or worse
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if branch == "cap":
        a = g * (0.95 * _NORM_CAP / np.linalg.norm(g, 2))
    else:
        low, high = _BRANCHES[branch]
        a = g * ((low + high) / 2 / np.abs(g).sum(axis=0).max())
        assert low < np.abs(a).sum(axis=0).max() <= high
    with mpmath.workdps(30):
        want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(),
                        dtype=complex)
    got = tl.expm(a)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _taylor_theta(m):
    """The largest theta with sum_{k>m} |c_k| theta^{k-1} <= 2^-53.

    c_k are the coefficients of log(e^{-x} T_m(x)) = log T_m(x) - x, from
    (log f)' = f'/f.  They decay like rho^-k, rho the nearest zero of T_m
    (1.9 at m = 4 to 6.5 at m = 20, each above 4 theta_m), so the terms
    after the first 40 past m change the sum by less than 4^-40 of it.
    """
    terms = m + 40
    with mpmath.workdps(40):
        f = [1 / mpmath.factorial(k) if k <= m else mpmath.mpf(0)
             for k in range(terms + 1)]
        g = [mpmath.mpf(0)] * (terms + 1)
        for k in range(1, terms + 1):
            g[k] = f[k] - sum(j * g[j] * f[k - j] for j in range(1, k)) / k
        c = [float(abs(g[k])) for k in range(m + 1, terms + 1)]
    low, high = 0.0, 10.0
    for _ in range(60):
        mid = (low + high) / 2
        if sum(ck * mid ** k for k, ck in enumerate(c, m)) <= 2.0 ** -53:
            low = mid
        else:
            high = mid
    return low


def test_taylor_thresholds_match_their_backward_error_bound():
    for m, theta in _THETA.items():
        assert float(f"{_taylor_theta(m):.5g}") == float(f"{theta:.5g}"), m


@pytest.mark.parametrize("dim", [0, 1, 16, 96])
def test_expm_takes_no_solve(dim, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expm called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    norm1 = max(np.abs(g).sum(axis=0).max(initial=0.0), 1.0)
    # every degree unscaled, then degree 20 with 1 to 7 squarings
    for target in [*_THETA.values(), 2.5, 50.0, 150.0]:
        got = tl.expm(g * (target / norm1))
        assert got.shape == (dim, dim) and np.all(np.isfinite(got))


def test_spectral_norm_known_values():
    assert tl.spectral_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-10)
    assert tl.spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, abs=1e-10)
    assert tl.spectral_norm(np.zeros((4, 4))) == 0.0
    assert tl.spectral_norm(np.diag([1.7e308 + 1.7e308j, 0.0])) == math.inf


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = np.linalg.norm(mat, 2)
        got = tl.spectral_norm(mat)
        assert abs(got - want) <= 1e-8 * max(1.0, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
       exponent=st.floats(-8.0, 2.0))
def test_spectral_norm_is_exact_at_every_scale(dim, seed, exponent):
    # an absolute stopping rule stops early once ||cG||^2 is far below 1
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = 10.0 ** exponent * g
    want = np.linalg.norm(mat, 2)
    assert abs(tl.spectral_norm(mat) - want) <= 1e-12 * want


@pytest.mark.parametrize("dim", [1, 2, 16, 96])
@pytest.mark.parametrize("exponent", [-300, -200, 0, 200, 300])
def test_spectral_norm_survives_extreme_entry_scales(dim, exponent):
    # a Gram matrix of the unscaled (or Frobenius-scaled) entries overflows
    # or underflows here; pytest turns the RuntimeWarning into an error
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = 10.0 ** exponent * g
    want = np.linalg.norm(mat, 2)
    assert abs(tl.spectral_norm(mat) - want) <= 1e-12 * want
    assert tl.spectral_norm(np.zeros((dim, dim))) == 0.0


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
    for bound in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="norm_bound must be > 0"):
            tl.random_matrix_pair(3, bound, 0)


def test_non_finite_and_overflowing_tau():
    # a non-finite tau gives non-finite exponents, refused as bad entries;
    # tau = 1e300 gives finite ones beyond the cap
    a, b = tl.random_matrix_pair(3, 1.0, 0)
    checks = (lambda tau: tl.telescoping_residual(a, b, tau, 8),
              lambda tau: tl.lie_error(a, b, tau, [1, 4]))
    for check in checks:
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="entries must be finite"):
                check(tau)
        with pytest.raises(OverflowError, match="exceeds cap"):
            check(1e300)


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
# n = 2, 8: doubling only; 3, 5, 6, 33: doubling plus increment at some bits
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8, 33])
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
    # the lie check scales by e^{target_a + target_b}; targets equal to the
    # true norms up to roundoff make that check the one with exact norms
    for seed in range(32):
        a, b, norm_a, norm_b = _draw_pair(dim, 2.0, seed)
        for got, want in zip((a, b), _draw_by_hand(dim, 2.0, seed)):
            assert np.array_equal(got, want)
        for mat, target in ((a, norm_a), (b, norm_b)):
            assert abs(np.linalg.norm(mat, 2) - target) <= 1e-12 * target, seed


@pytest.mark.parametrize("experiment, rows", [
    ("lie --n 16..4096 --trials 400 --dim 16", 10),
    ("lie --n 16..2048 --trials 100 --dim 48", 9),
    ("lie --n 16..1024 --trials 40 --dim 96", 8),
], ids=["dim16", "dim48", "dim96"])
def test_lie_rows_match_the_bench_reference(experiment, rows):
    # lie_error still reads its norms from the power iteration whose values
    # the reference rows hold, and its absolute stopping rule can move on
    # pairs that the spectral norm draws differently by roundoff; the
    # check's own tolerances apply
    spec = importlib.util.spec_from_file_location("bench_check",
                                                  BENCH / "check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    argv = f"{experiment} --seed 3".split()
    reference = json.loads((BENCH / "reference.json").read_text())
    want = [r for r in reference[" ".join(argv)]
            if r[0] in ("lie/error", "lie/telescoping")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--format", "json"]) == 0
    got = [r for r in check.compact_rows(json.loads(out.getvalue())["rows"])
           if r[0] in ("lie/error", "lie/telescoping")]
    assert [r[:2] for r in got] == [r[:2] for r in want]
    assert len(got) == rows
    for (command, n, value, verdict), (_, _, ref, ref_verdict) in zip(got, want):
        assert abs(value - ref) <= check.REL_TOL * abs(ref) + check.ABS_TOL, (
            command, n)
        assert verdict == ref_verdict
