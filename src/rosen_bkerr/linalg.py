"""Dense complex linear-algebra kernels shared by the whole package.

Hermitian parts, definite and semidefinite generalized eigenvalue
pencils, positive-semidefinite null spaces and smallest singular values,
all with numpy alone (one BLAS).  All functions accept array-likes,
promote to complex128, reject non-finite input, and treat nominally
Hermitian matrices defensively by symmetrizing.

Each matrix verdict is made here once: ``require_psd`` decides "positive
semidefinite", ``semidefinite_pencil_smallest`` "zero right-hand side",
``eigenvalues_above`` "lambda_min(M) > t" and ``is_diagonal`` "M is
diagonal".  A verdict of the form "lambda_min(M) > t" costs one Cholesky
factorization, not an eigenvalue solve (Sylvester's law of inertia), and
the spectrum of a diagonal matrix is read off its diagonal: an eigenvalue
solve runs only where its output is used.
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
    "eigenvalues_above",
    "fix_phase",
    "hermitian_part",
    "is_diagonal",
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
    return float(np.abs(m).sum(axis=0).max())


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


def eigenvalues_above(m: np.ndarray, t: float) -> bool:
    """The package's one test of "lambda_min(M) > t" for a Hermitian M: by
    Sylvester's law of inertia, exactly when M - tI is positive definite,
    that is when its Cholesky factorization succeeds.  Only the lower
    triangle of M is read."""
    shifted = np.array(m, dtype=np.complex128)
    shifted.reshape(-1)[:: len(shifted) + 1] -= t
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def is_diagonal(m: np.ndarray) -> bool:
    """The package's one test of "M is diagonal": no nonzero entry off the
    diagonal of the square M."""
    return np.count_nonzero(m) == np.count_nonzero(m.diagonal())


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

    Reduces to a standard Hermitian problem on L^{-1} M L^{-*}: for a
    diagonal N, L = N^{1/2} and the reduction is a scaling; otherwise L is
    the Cholesky factor of N = L L* (triangular solves by
    ``np.linalg.solve``).  The value is the quotient v*Mv / v*Nv that the
    returned v attains, not the reduced eigenvalue, which drifts from it as
    N grows ill-conditioned.  Raises NotPositiveDefiniteError when N is not
    positive definite (a diagonal entry at or below 0, or a failed
    factorization), signalling the caller to take a semidefinite or
    infeasible branch.
    """
    M = hermitian_part(m, "pencil left-hand side")
    N = hermitian_part(n, "pencil right-hand side")
    if M.shape != N.shape:
        raise ValueError(f"pencil shapes differ: {M.shape} vs {N.shape}")
    not_definite = "pencil right-hand side is not positive definite"
    diagonal = is_diagonal(N)
    if diagonal:
        d = N.diagonal().real
        if not np.all(d > 0.0):
            raise NotPositiveDefiniteError(not_definite)
        r = 1.0 / np.sqrt(d)
        a = M * r[:, None] * r
    else:
        try:
            L = np.linalg.cholesky(N)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(not_definite) from exc
        t = np.linalg.solve(L, M)
        a = np.linalg.solve(L, t.conj().T).conj().T
    a = (a + a.conj().T) / 2.0
    try:
        w, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"pencil eigendecomposition failed: {exc}") from exc
    v = vecs[:, 0] * r if diagonal else np.linalg.solve(L.conj().T, vecs[:, 0])
    v = fix_phase(v / np.linalg.norm(v))
    return float(np.real(np.vdot(v, M @ v)) / np.real(np.vdot(v, N @ v))), v


def _null_mask(w: np.ndarray, scale: float, name: str) -> np.ndarray:
    """The mask of the numerically zero eigenvalues ``w`` of a Hermitian
    positive-semidefinite matrix of 1-norm ``scale``: those at or below
    threshold(_NULL_TOL, scale).  ``require_psd`` judges the smallest."""
    require_psd(float(w.min()) if w.size else 0.0, scale, name)
    return w <= threshold(_NULL_TOL, scale)


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

    N's spectrum is its diagonal where N is diagonal, and the Schur step
    then splits the coordinates by index.
    """
    M = hermitian_part(m, "pencil left-hand side")
    N = hermitian_part(n, "pencil right-hand side")
    if M.shape != N.shape:
        raise ValueError(f"pencil shapes differ: {M.shape} vs {N.shape}")
    scale = norm1(N)
    if is_diagonal(N):
        w, W = N.diagonal().real, None
    else:
        w, W = np.linalg.eigh(N)
    null = _null_mask(w, scale, "pencil right-hand side")
    if null.all():
        raise ZeroPencilError("pencil right-hand side is numerically zero")
    if not null.any():
        return definite_pencil_smallest(M, N)
    # in N's eigenbasis, where N is diag(w)
    mw = M if W is None else W.conj().T @ M @ W
    pos = ~null
    mpp = mw[np.ix_(pos, pos)]
    mpz = mw[np.ix_(pos, null)]
    mzz = mw[np.ix_(null, null)]
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
    _, u = definite_pencil_smallest(schur, np.diag(w[pos]))
    y = np.empty(len(w), dtype=np.complex128)
    y[pos] = u
    y[null] = -np.linalg.solve(Lz.conj().T, Y @ u)
    if W is not None:
        y = W @ y
    y = fix_phase(normalize(y))
    return float(np.real(np.vdot(y, M @ y)) / np.real(np.vdot(y, N @ y))), y


def psd_nullspace(m) -> np.ndarray:
    """Orthonormal basis (as columns, possibly zero of them) of the numerical
    null space of a positive-semidefinite matrix.

    Eigenvalues at or below threshold(_NULL_TOL, ||M||_1) count as zero;
    ``require_psd`` judges the smallest.  An M that passes
    ``eigenvalues_above`` at that threshold has none, and is positive
    semidefinite: its empty basis takes no eigenvalue solve.
    """
    M = hermitian_part(m)
    scale = norm1(M)
    if eigenvalues_above(M, threshold(_NULL_TOL, scale)):
        return np.zeros((len(M), 0), dtype=np.complex128)
    w, V = np.linalg.eigh(M)
    return V[:, _null_mask(w, scale, "matrix")].copy()


def smallest_singular_value(m) -> float:
    """Smallest singular value of a square matrix (never negative)."""
    M = as_complex_matrix(m)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    s = np.linalg.svd(M, compute_uv=False)
    return max(float(s[-1]), 0.0)
