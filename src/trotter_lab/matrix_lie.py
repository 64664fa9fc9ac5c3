"""Finite-dimensional splitting identities: telescoping sum and O(1/n) rate.

Matrices are plain complex ndarrays.  The matrix exponential delegates to
scipy's scaling-and-squaring Pade implementation behind a cap of 200 on
the operator 2-norm; the Frobenius norm bounds the 2-norm from above, so
the cap costs one cheap norm unless the Frobenius norm exceeds it.  scipy
is imported on the first `expm` call, so importing the package does not
load it.  `spectral_norm` is the operator 2-norm from one Hermitian
eigenvalue problem, the largest eigenvalue of the max-abs-scaled Gram
matrix.  Only `lie_error` still reads its norms from `_power_norm`, a power
iteration to a fixed absolute tolerance, because the recorded `lie/error`
reference rows hold that iteration's values.

`telescoping_residual` sums the telescoping identity by binary doubling,
carrying the powers of P and E along, so n steps take O(log n) matrix
products.  The random pairs come from `_draw_pair`, which also returns each
matrix's target norm, the norm it was scaled to; the `lie` experiment scales
its residual check by e^{norm_a + norm_b} from those targets instead of
estimating the norms again.
"""

from __future__ import annotations

import math

import numpy as np

# _power_norm stops when the Rayleigh quotient moves by at most
# _NORM_TOL * max(|lam|, 1), or after _NORM_MAX_ITER steps
_NORM_TOL = 1e-10
_NORM_MAX_ITER = 10000
# expm refuses matrices whose operator 2-norm exceeds this
_NORM_CAP = 200.0


def _as_square(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def spectral_norm(M) -> float:
    """Largest singular value, the root of the top eigenvalue of M^H M.

    M is first divided by its largest entry modulus c, so the Gram matrix
    neither overflows nor underflows at any entry scale; the zero matrix
    has norm exactly 0.
    """
    A = _as_square(M)
    c = float(np.max(np.abs(A)))
    if c == 0.0:
        return 0.0
    X = A / c
    lam = float(np.linalg.eigvalsh(X.conj().T @ X)[-1])
    return c * math.sqrt(max(lam, 0.0))


def _power_norm(M) -> float:
    """Largest singular value via power iteration on M*M.

    The stopping tolerance is absolute while |lam| < 1, so on `lie_error`'s
    small differences this reads up to about 1e-2 low; the recorded
    `lie/error` reference rows hold those values.
    """
    A = _as_square(M)
    d = A.shape[0]
    H = A.conj().T @ A
    v = np.ones(d, dtype=complex)
    v += 1e-3 * np.sin(np.arange(d) + 1.0)  # break symmetric ties
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    lam = 0.0
    w = H @ v
    for _ in range(_NORM_MAX_ITER):
        nw = math.sqrt(np.vdot(w, w).real)
        if nw == 0.0:
            return 0.0
        v = w / nw
        # H v is both this step's Rayleigh quotient and the next iterate
        w = H @ v
        lam = float(np.vdot(v, w).real)
        if abs(lam - lam_prev) <= _NORM_TOL * max(abs(lam), 1.0):
            break
        lam_prev = lam
    return math.sqrt(max(lam, 0.0))


def expm(M) -> np.ndarray:
    """e^M by scaling and squaring; refuses norms beyond ``_NORM_CAP``."""
    import scipy.linalg  # the only scipy use; kept off the import path

    A = _as_square(M)
    # ||A||_2 <= ||A||_F, so spectral_norm only runs near the cap
    if np.linalg.norm(A) > _NORM_CAP:
        nrm = spectral_norm(A)
        if nrm > _NORM_CAP:
            raise OverflowError(
                f"matrix norm {nrm:.3g} exceeds cap {_NORM_CAP:.3g}")
    return scipy.linalg.expm(A)


def telescoping_residual(A, B, tau: float, n: int) -> float:
    """Defect of the telescoping identity for the n-step splitting.

    With P = e^{-tau A/n} e^{-tau B/n} and E = e^{-tau (A+B)/n},
    P^n - e^{-tau(A+B)} equals sum_{k<n} P^{n-1-k} (P - E) E^k exactly;
    the returned spectral norm of the difference is pure roundoff.  With
    X_m = sum_{k<m} P^{m-1-k} (P - E) E^k, so X_1 = P - E, the bits of n
    below the top one turn X_m into X_{2m} = P^m X_m + X_m E^m and, on a
    set bit, X_{m+1} = P X_m + (P - E) E^m, carrying P^m and E^m along:
    O(log n) matrix products, 12 at n = 8.  The left side keeps the fourth
    exponential e^{-tau(A+B)} rather than E^n, so the check also tests that
    the exponentials compose.
    """
    A = _as_square(A)
    B = _as_square(B)
    if A.shape != B.shape:
        raise ValueError("A and B must share a dimension")
    if n < 1:
        raise ValueError("n must be >= 1")
    step = tau / n
    P = expm(-step * A) @ expm(-step * B)
    E = expm(-step * (A + B))
    mid = P - E
    rhs, p_pow, e_pow = mid, P, E
    for bit in bin(n)[3:]:
        rhs = p_pow @ rhs + rhs @ e_pow
        p_pow = p_pow @ p_pow
        e_pow = e_pow @ e_pow
        if bit == "1":
            rhs = P @ rhs + mid @ e_pow
            p_pow = P @ p_pow
            e_pow = e_pow @ E
    lhs = p_pow - expm(-tau * (A + B))
    return spectral_norm(lhs - rhs)


def lie_error(A, B, tau: float, ns: list[int]) -> list[tuple[int, float]]:
    """Splitting error ||(e^{-tau A/n} e^{-tau B/n})^n - e^{-tau(A+B)}||_2."""
    A = _as_square(A)
    B = _as_square(B)
    if not ns:
        raise ValueError("ns must be non-empty")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")
    target = expm(-tau * (A + B))
    out = []
    for n in ns:
        if n < 1:
            raise ValueError("n must be >= 1")
        step = tau / n
        P = expm(-step * A) @ expm(-step * B)
        out.append((n, _power_norm(np.linalg.matrix_power(P, n) - target)))
    return out


def random_matrix_pair(dim: int, norm_bound: float, seed: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Seeded complex pair with spectral norms between 0.3 and 1 of the bound."""
    return _draw_pair(dim, norm_bound, seed)[:2]


def _draw_pair(dim: int, norm_bound: float, seed: int
               ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """`random_matrix_pair` plus the target norm each matrix was scaled to.

    A Gaussian draw G is scaled by target / ||G||, so each target equals
    the true norm up to roundoff.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0.0 < norm_bound < math.inf:
        raise ValueError(
            f"norm_bound must be > 0 and finite, got {norm_bound}")
    rng = np.random.default_rng(seed)

    def draw() -> tuple[np.ndarray, float]:
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = spectral_norm(G)
        target = norm_bound * rng.uniform(0.3, 1.0)
        return G * (target / s), target

    (A, norm_a), (B, norm_b) = draw(), draw()
    return A, B, norm_a, norm_b
