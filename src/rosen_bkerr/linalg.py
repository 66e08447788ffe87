"""Dense complex linear-algebra kernels shared by the whole package.

Hermitian parts, definite and semidefinite generalized eigenvalue
pencils, positive-semidefinite null spaces and smallest singular values,
all with numpy alone (one BLAS).  All functions accept array-likes,
promote to complex128, reject non-finite input, and treat nominally
Hermitian matrices defensively by symmetrizing.

Each matrix verdict is made here once: ``require_psd`` decides "positive
semidefinite", ``semidefinite_pencil_smallest`` "zero right-hand side".
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EigenConvergenceError",
    "IndefiniteMatrixError",
    "NotPositiveDefiniteError",
    "ZERO_TOL",
    "ZeroPencilError",
    "as_complex_matrix",
    "definite_pencil_smallest",
    "fix_phase",
    "hermitian_part",
    "norm1",
    "normalize",
    "psd_nullspace",
    "require_psd",
    "semidefinite_pencil_smallest",
    "smallest_singular_value",
    "threshold",
]


# Eigenvalues at or below threshold(_NULL_TOL, ||M||_1) count as zero in
# every null space and every semidefinite pencil denominator of the package.
_NULL_TOL = 1e-10
# The floating-point noise level of every other numerically-zero test.
ZERO_TOL = 1e-12


class EigenConvergenceError(RuntimeError):
    """The eigenvalue iteration failed to converge."""


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite failed its factorization."""


class ZeroPencilError(NotPositiveDefiniteError):
    """A semidefinite pencil's right-hand side is numerically zero."""


class IndefiniteMatrixError(ValueError):
    """A nominally positive-semidefinite matrix has a significantly negative eigenvalue."""


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a fresh finite complex128 2-d array in
    C order."""
    arr = np.array(a, dtype=np.complex128, copy=True, order="C")
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _direction(x, n: int, name: str = "x") -> np.ndarray:
    """The one rule for a vector read only through its direction: x as a
    finite nonzero complex vector of length n, else ValueError naming
    ``name``.  An x whose largest real or imaginary part lies outside
    [2^-500, 2^500] is scaled by the power of two that brings it into
    [0.5, 1): exact, and squaring x then neither overflows nor underflows."""
    x = np.array(x, dtype=np.complex128, copy=True).ravel()
    if x.size != n:
        raise ValueError(f"{name} must have length {n}")
    parts = x.view(np.float64)
    big = float(np.abs(parts).max())  # one reduction: NaN or inf unless x is finite
    if not 0.0 < big < np.inf:
        raise ValueError(f"{name} must be finite and nonzero")
    if not 2.0**-500 <= big <= 2.0**500:
        x = np.ldexp(parts, -np.frexp(big)[1]).view(np.complex128)
    return x


def norm1(m) -> float:
    """Matrix 1-norm (maximum absolute column sum); 0.0 for empty input."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 1))


def threshold(tol: float, scale: float) -> float:
    """The package's one rule for "numerically zero": tol * max(1, scale),
    absolute below scale 1 and relative to scale above it."""
    return tol * max(1.0, scale)


def require_psd(wmin: float, scale: float, name: str) -> None:
    """The package's one PSD verdict: IndefiniteMatrixError unless the smallest
    eigenvalue ``wmin`` is at least -ZERO_TOL times the 1-norm ``scale``."""
    if wmin < -ZERO_TOL * scale:
        raise IndefiniteMatrixError(
            f"{name} is not positive semidefinite (smallest eigenvalue {wmin:.3e})"
        )


def normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / nrm


def fix_phase(v) -> np.ndarray:
    """Rotate ``v`` by a unit scalar so its largest-magnitude entry is real
    positive, that entry set exactly to its magnitude: a phase-fixed vector
    is its own fix_phase."""
    v = np.asarray(v, dtype=np.complex128)
    if v.size == 0:
        return v.copy()
    j = int(np.argmax(np.abs(v)))
    a = v[j]
    mag = abs(a)
    if mag == 0.0 or a == mag:
        return v.copy()
    out = v * (a.conjugate() / mag)
    out[j] = mag
    return out


def hermitian_part(m, name: str = "matrix") -> np.ndarray:
    """The Hermitian part (m + m*)/2 of a square matrix."""
    m = as_complex_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return (m + m.conj().T) / 2.0


def definite_pencil_smallest(m, n) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of the Hermitian pencil (M, N) with N positive
    definite, plus a unit eigenvector.

    Reduces via the Cholesky factor N = L L* to a standard Hermitian
    problem on L^{-1} M L^{-*} (triangular solves by ``np.linalg.solve``).
    The value is the quotient v*Mv / v*Nv that the returned v attains, not
    the reduced eigenvalue, which drifts from it as N grows ill-conditioned.
    Raises NotPositiveDefiniteError when the factorization fails, signalling
    the caller to take a semidefinite or infeasible branch.
    """
    M = hermitian_part(m, "pencil left-hand side")
    N = hermitian_part(n, "pencil right-hand side")
    if M.shape != N.shape:
        raise ValueError(f"pencil shapes differ: {M.shape} vs {N.shape}")
    try:
        L = np.linalg.cholesky(N)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "pencil right-hand side is not positive definite"
        ) from exc
    t = np.linalg.solve(L, M)
    a = np.linalg.solve(L, t.conj().T).conj().T
    a = (a + a.conj().T) / 2.0
    try:
        w, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"pencil eigendecomposition failed: {exc}") from exc
    v = np.linalg.solve(L.conj().T, vecs[:, 0])
    v = fix_phase(v / np.linalg.norm(v))
    return float(np.real(np.vdot(v, M @ v)) / np.real(np.vdot(v, N @ v))), v


def _psd_split(M: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the Hermitian positive-semidefinite M (as columns)
    and the mask of its numerically zero eigenvalues: those at or below
    threshold(_NULL_TOL, ||M||_1).  ``require_psd`` judges its smallest
    eigenvalue."""
    w, V = np.linalg.eigh(M)
    scale = norm1(M)
    require_psd(float(w[0]) if w.size else 0.0, scale, name)
    return V, w <= threshold(_NULL_TOL, scale)


def semidefinite_pencil_smallest(m, n) -> tuple[float, np.ndarray]:
    """Infimum of the Rayleigh quotient (y* M y)/(y* N y) over y* N y > 0,
    for Hermitian M and positive-semidefinite N, plus an attaining unit
    vector.

    When N is singular, minimizing out the null-space component of y
    replaces M by its Schur complement onto the numerically positive
    subspace of N; that requires M restricted to null(N) to be positive
    definite (otherwise NotPositiveDefiniteError).  The returned y
    satisfies M y = value * N y, and value is the Rayleigh quotient
    y*My / y*Ny of that y.  A right-hand side with no eigenvalue above the
    null-space threshold, the empty one included, raises ZeroPencilError.
    """
    M = hermitian_part(m, "pencil left-hand side")
    N = hermitian_part(n, "pencil right-hand side")
    if M.shape != N.shape:
        raise ValueError(f"pencil shapes differ: {M.shape} vs {N.shape}")
    W, null = _psd_split(N, "pencil right-hand side")
    if null.all():
        raise ZeroPencilError("pencil right-hand side is numerically zero")
    if not null.any():
        return definite_pencil_smallest(M, N)
    P = W[:, ~null]
    Z = W[:, null]
    mpp = P.conj().T @ M @ P
    mpz = P.conj().T @ M @ Z
    mzz = Z.conj().T @ M @ Z
    mzz = (mzz + mzz.conj().T) / 2.0
    try:
        Lz = np.linalg.cholesky(mzz)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "pencil numerator is singular on the null space of the denominator"
        ) from exc
    # Schur complement of the null-space block of M.
    Y = np.linalg.solve(Lz, mpz.conj().T)
    schur = mpp - Y.conj().T @ Y
    npp = P.conj().T @ N @ P
    _, u = definite_pencil_smallest(schur, npp)
    yz = -np.linalg.solve(Lz.conj().T, Y @ u)
    y = fix_phase(normalize(P @ u + Z @ yz))
    return float(np.real(np.vdot(y, M @ y)) / np.real(np.vdot(y, N @ y))), y


def psd_nullspace(m) -> np.ndarray:
    """Orthonormal basis (as columns, possibly zero of them) of the numerical
    null space of a positive-semidefinite matrix.

    Eigenvalues at or below threshold(_NULL_TOL, ||M||_1) count as zero;
    ``require_psd`` judges the smallest.
    """
    V, null = _psd_split(hermitian_part(m), "matrix")
    return V[:, null].copy()


def smallest_singular_value(m) -> float:
    """Smallest singular value of a square matrix (never negative)."""
    M = as_complex_matrix(m)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    s = np.linalg.svd(M, compute_uv=False)
    return max(float(s[-1]), 0.0)
