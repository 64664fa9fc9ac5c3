"""Finite-dimensional splitting identities: telescoping sum and O(1/n) rate.

Matrices are plain complex ndarrays, and numpy is the only dependency.
`expm` is Taylor scaling and squaring with the degree thresholds theta_m of
A. H. Al-Mohy and N. J. Higham, SIAM J. Sci. Comput. 33(2), 2011: the first
m in {4, 6, 9, 12, 16} with theta_m >= ||A||_1, else m = 20 on A / 2^s and
s squarings.  The Paterson-Stockmeyer scheme (SIAM J. Comput. 2(1), 1973)
evaluates T_m in 2 to 7 matrix products and no linear solve.  It refuses
matrices whose operator 2-norm exceeds a cap of 200; d * max|a_ij| bounds
the 2-norm from above, so the cap costs no norm computation unless that
bound exceeds it, and the entries are scanned for NaN and inf only when
that maximum is not finite.  `spectral_norm` is the operator 2-norm from
one Hermitian eigenvalue problem, the largest eigenvalue of the
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
# Al-Mohy & Higham (2011): theta_m is the largest theta with sum_{k>m}
# |c_k| theta^{k-1} <= 2^-53, c_k the coefficients of log(e^{-x} T_m(x)), a
# backward error bound; Paterson-Stockmeyer evaluates T_m in blocks of p powers
_THETA = {4: 3.3971688399769617e-4, 6: 9.065656407595102e-3,
          9: 8.957760203223342e-2, 12: 0.299615891381158,
          16: 0.7802874256626574, 20: 1.4382525968043367}
_BLOCK = {4: 2, 6: 3, 9: 3, 12: 4, 16: 4, 20: 5}
# row j holds the coefficients 1/(jp + i)! of A^0 .. A^p in block B_j; only
# the top block reads A^p, whose coefficient is 1/m! (p divides every m)
_COEF = {m: np.array([[1.0 / math.factorial(j * p + i)
                       if i < p or j == m // p - 1 else 0.0
                       for i in range(p + 1)] for j in range(m // p)])
         for m, p in _BLOCK.items()}


def _square(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    return A


def _as_square(M) -> np.ndarray:
    A = _square(M)
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


def _taylor(A: np.ndarray, m: int, s: int) -> np.ndarray:
    """T_m(A / 2^s), squared s times.

    The p + 1 powers I, A, .., A^p take p - 1 products, and one real product
    of the coefficient table with them gives every block B_j; Horner's rule
    on T_m = sum_j B_j (A^p)^j takes m / p - 1 more.  Every product writes
    into one workspace, so a call allocates it and the returned copy only.
    """
    p, q, d = _BLOCK[m], m // _BLOCK[m], A.shape[0]
    work = np.empty((p + q + 2, d, d), dtype=complex)
    pows, blocks, buf = work[:p + 1], work[p + 1:-1], work[-1]
    pows[0] = np.eye(d)
    np.multiply(A, 2.0 ** -s, out=pows[1])
    for k in range(2, p + 1):
        np.matmul(pows[k - 1], pows[1], out=pows[k])
    np.matmul(_COEF[m], pows.view(np.float64).reshape(p + 1, 2 * d * d),
              out=blocks.view(np.float64).reshape(q, 2 * d * d))
    X = blocks[-1]
    for block in blocks[-2::-1]:
        np.matmul(X, pows[p], out=buf)
        block += buf
        X = block
    for _ in range(s):
        np.matmul(X, X, out=buf)
        X, buf = buf, X
    return X.copy()


def expm(M) -> np.ndarray:
    """e^M by Taylor scaling and squaring; refuses norms over ``_NORM_CAP``."""
    A = _square(M)
    moduli = np.abs(A)
    # only a NaN or inf entry makes max|a_ij| non-finite, so only then is the
    # finiteness scan run; initial=0.0 lets the 0 x 0 matrix through
    amax = float(moduli.max(initial=0.0))
    if not math.isfinite(amax):
        _as_square(A)
    # ||A||_2 <= ||A||_F <= d max|a_ij|, so spectral_norm only runs near
    # the cap; the product is a Python float and overflows to inf silently
    if A.shape[0] * amax > _NORM_CAP:
        nrm = spectral_norm(A)
        if nrm > _NORM_CAP:
            raise OverflowError(
                f"matrix norm {nrm:.3g} exceeds cap {_NORM_CAP:.3g}")
    norm1 = float(moduli.sum(axis=0).max(initial=0.0))
    for m, theta in _THETA.items():
        if norm1 <= theta:
            return _taylor(A, m, 0)
    return _taylor(A, 20, math.ceil(math.log2(norm1 / _THETA[20])))


def telescoping_residual(A, B, tau: float, n: int) -> float:
    """Defect of the telescoping identity for the n-step splitting.

    With P = e^{-tau A/n} e^{-tau B/n} and E = e^{-tau (A+B)/n},
    P^n - e^{-tau(A+B)} equals sum_{k<n} P^{n-1-k} (P - E) E^k exactly;
    the returned spectral norm of the difference is pure roundoff.  With
    X_m = sum_{k<m} P^{m-1-k} (P - E) E^k, so X_1 = P - E, the bits of n
    below the top one turn X_m into X_{2m} = P^m X_m + X_m E^m and, on a
    set bit, X_{m+1} = P^m (P - E) + X_m E, carrying P^m and E^m along
    (the last round's E^m is never read, so it is not formed): O(log n)
    matrix products, 11 at n = 8.  The left side keeps the fourth
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
    bits = bin(n)[3:]
    for i, bit in enumerate(bits, 1):
        rhs = p_pow @ rhs + rhs @ e_pow
        p_pow = p_pow @ p_pow
        if bit == "1":
            rhs = p_pow @ mid + rhs @ E
            p_pow = P @ p_pow
        if i < len(bits):
            e_pow = e_pow @ e_pow @ E if bit == "1" else e_pow @ e_pow
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
