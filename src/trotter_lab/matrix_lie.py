"""Finite-dimensional splitting identities: telescoping sum and O(1/n) rate.

Matrices are plain complex ndarrays, and numpy is the only dependency.
`expm` is the scaling-and-squaring Pade method of N. J. Higham, "The
scaling and squaring method for the matrix exponential revisited", SIAM J.
Matrix Anal. Appl. 26(4), 2005: the first degree m in {3, 5, 7, 9} whose
threshold theta_m bounds the 1-norm of A, else m = 13 on A / 2^s and s
squarings.  It refuses matrices whose operator 2-norm exceeds a cap of 200;
d * max|a_ij| bounds the 2-norm from above, so the cap costs no norm
computation unless that bound exceeds it.  `spectral_norm` is the operator
2-norm from one Hermitian eigenvalue problem, the largest eigenvalue of the
max-abs-scaled Gram matrix.  Only `lie_error` still reads its norms from
`_power_norm`, a power iteration to a fixed absolute tolerance, because the
recorded `lie/error` reference rows hold that iteration's values.

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
# Higham (2005), Table 2.3: the largest 1-norm of A at which the [m/m] Pade
# approximant of e^A has a backward error below the double unit roundoff
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}
# numerator coefficients b_k = (2m - k)! / (k! (m - k)!), so b_m = 1; the
# denominator's are (-1)^k b_k
_PADE = {m: [math.factorial(2 * m - k)
             / (math.factorial(k) * math.factorial(m - k))
             for k in range(m + 1)] for m in _THETA}


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
    has norm exactly 0, and one whose largest modulus overflows has inf.
    """
    A = _as_square(M)
    c = float(np.max(np.abs(A)))
    if c == 0.0 or c == math.inf:  # an entry modulus can overflow
        return c
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


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant (V - U)^{-1} (V + U) of e^A.

    U holds the odd and V the even terms of the numerator.  Degree 13
    evaluates its terms above A^6 through A^6, as in Higham (2005), so
    every degree takes at most six matrix products and one solve.
    """
    b = _PADE[m]
    a2 = A @ A
    pows = [a2]
    while len(pows) < (3 if m == 13 else m // 2):
        pows.append(pows[-1] @ a2)
    u = b[3] * a2
    v = b[2] * a2
    for k, p in enumerate(pows[1:], 2):
        u += b[2 * k + 1] * p
        v += b[2 * k] * p
    if m == 13:
        a4, a6 = pows[1:]
        u += a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        v += a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
    diag = slice(None, None, A.shape[0] + 1)  # of the flattened matrix
    u.reshape(-1)[diag] += b[1]
    v.reshape(-1)[diag] += b[0]
    U = A @ u
    return np.linalg.solve(v - U, v + U)


def expm(M) -> np.ndarray:
    """e^M by Pade scaling and squaring; refuses norms beyond ``_NORM_CAP``."""
    A = _as_square(M)
    moduli = np.abs(A)
    # ||A||_2 <= ||A||_F <= d max|a_ij|, so spectral_norm only runs near
    # the cap; the product is a Python float and overflows to inf silently.
    # initial=0.0 lets the 0 x 0 matrix through, its own exponential
    if A.shape[0] * float(moduli.max(initial=0.0)) > _NORM_CAP:
        nrm = spectral_norm(A)
        if nrm > _NORM_CAP:
            raise OverflowError(
                f"matrix norm {nrm:.3g} exceeds cap {_NORM_CAP:.3g}")
    norm1 = float(moduli.sum(axis=0).max(initial=0.0))
    for m in (3, 5, 7, 9):
        if norm1 <= _THETA[m]:
            return _pade(A, m)
    s = max(0, math.ceil(math.log2(norm1 / _THETA[13])))
    X = _pade(A * 2.0 ** -s, 13)
    for _ in range(s):
        X = X @ X
    return X


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
