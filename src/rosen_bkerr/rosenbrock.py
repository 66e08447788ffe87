"""Rosenbrock system matrices and the Hermitian data of their backward errors.

A system couples a first-order pencil with a matrix polynomial:

    S(z) = [[A - z I, B],
            [C,       P(z)]],      P(z) = sum_j z^j poly_coeffs[j],

with A of order r, P of order n and degree d.  ``assemble_error_matrices``
packages, for a fixed shift, the Gram matrices of the two block rows of
S(lambda) together with the coordinate projectors and the polynomial
weight gamma that every backward-error formula consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = ["ErrorMatrices", "RosenbrockSystem", "assemble_error_matrices"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def aggregate_norm(*blocks) -> float:
    """The root of the summed squared Frobenius norms of the blocks."""
    return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks)))


def transposed_blocks(a, b, c, poly) -> tuple:
    """The blocks (A^T, C^T, B^T, P_j^T) of the transposed system, copied."""
    return a.T.copy(), c.T.copy(), b.T.copy(), tuple(m.T.copy() for m in poly)


@dataclass(frozen=True)
class RosenbrockSystem:
    """Immutable container for the blocks A (r x r), B (r x n), C (n x r)
    and the d+1 polynomial coefficients (each n x n)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    poly_coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        A = linalg.as_complex_matrix(self.A, "A")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        r = A.shape[0]
        if r == 0:
            raise ValueError("A must be nonempty")
        B = linalg.as_complex_matrix(self.B, "B")
        if B.shape[0] != r:
            raise ValueError(f"B must have {r} rows, got shape {B.shape}")
        n = B.shape[1]
        if n == 0:
            raise ValueError("B must have at least one column")
        C = linalg.as_complex_matrix(self.C, "C")
        if C.shape != (n, r):
            raise ValueError(f"C must have shape ({n}, {r}), got {C.shape}")
        coeffs = tuple(self.poly_coeffs)
        if not coeffs:
            raise ValueError("poly_coeffs must contain at least the degree-0 coefficient")
        frozen_coeffs = []
        for j, mat in enumerate(coeffs):
            mj = linalg.as_complex_matrix(mat, f"poly_coeffs[{j}]")
            if mj.shape != (n, n):
                raise ValueError(
                    f"poly_coeffs[{j}] must have shape ({n}, {n}), got {mj.shape}"
                )
            frozen_coeffs.append(_frozen(mj))
        object.__setattr__(self, "A", _frozen(A))
        object.__setattr__(self, "B", _frozen(B))
        object.__setattr__(self, "C", _frozen(C))
        object.__setattr__(self, "poly_coeffs", tuple(frozen_coeffs))

    @property
    def r(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.B.shape[1]

    @property
    def d(self) -> int:
        return len(self.poly_coeffs) - 1

    def poly_at(self, z) -> np.ndarray:
        """Evaluate P(z) by Horner's scheme."""
        z = complex(z)
        acc = np.array(self.poly_coeffs[-1], copy=True)
        for coeff in reversed(self.poly_coeffs[:-1]):
            acc = acc * z + coeff
        return acc

    def evaluate(self, z) -> np.ndarray:
        """The (r+n) x (r+n) block matrix S(z)."""
        z = complex(z)
        top = np.hstack([self.A - z * np.eye(self.r), self.B])
        bottom = np.hstack([self.C, self.poly_at(z)])
        return np.vstack([top, bottom])

    def norm(self) -> float:
        """Aggregate norm of A, B, C and every polynomial coefficient."""
        return aggregate_norm(self.A, self.B, self.C, *self.poly_coeffs)

    def transpose(self) -> "RosenbrockSystem":
        """The system whose evaluation is S(z)^T: swaps B and C transposed,
        transposes A and every coefficient.  An involution."""
        return RosenbrockSystem(*transposed_blocks(self.A, self.B, self.C, self.poly_coeffs))


@dataclass(frozen=True)
class ErrorMatrices:
    """Shift-dependent Hermitian data: g1 and g2 are the Gram matrices of the
    two block rows of S(lam), h1 and h2 the complementary coordinate
    projectors onto the leading r and trailing n coordinates, and gamma the
    weight sum_j |lam|^(2j)."""

    g1: np.ndarray
    g2: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    gamma: float
    lam: complex
    asymmetry: float

    @property
    def h_lambda(self) -> np.ndarray:
        """The weighting h1 + gamma * h2 of the second block row."""
        return self.h1 + self.gamma * self.h2


def assemble_error_matrices(system: RosenbrockSystem, lam) -> ErrorMatrices:
    lam = complex(lam)
    r, n = system.r, system.n
    row1 = np.hstack([system.A - lam * np.eye(r), system.B])
    row2 = np.hstack([system.C, system.poly_at(lam)])
    g1, asym1 = linalg.hermitian_part(row1.conj().T @ row1, "g1")
    g2, asym2 = linalg.hermitian_part(row2.conj().T @ row2, "g2")
    diag = np.zeros(r + n)
    diag[:r] = 1.0
    h1 = np.diag(diag).astype(np.complex128)
    h2 = np.eye(r + n, dtype=np.complex128) - h1
    t = abs(lam) ** 2
    gamma = float(sum(t**j for j in range(system.d + 1)))
    return ErrorMatrices(
        g1=_frozen(g1),
        g2=_frozen(g2),
        h1=_frozen(h1),
        h2=_frozen(h2),
        gamma=gamma,
        lam=lam,
        asymmetry=max(asym1, asym2),
    )
