"""Rosenbrock system matrices and the Hermitian data of their backward errors.

A system couples a first-order pencil with a matrix polynomial:

    S(z) = [[A - z I, B],
            [C,       P(z)]],      P(z) = sum_j z^j poly_coeffs[j],

with A of order r, P of order n and degree d.  ``assemble_error_matrices``
packages, for a fixed shift, S(lambda), the Gram matrices of its block
rows, the coordinate projectors and the polynomial weight gamma that
every backward-error formula consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = ["ErrorMatrices", "RosenbrockSystem", "assemble_error_matrices"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RosenbrockSystem:
    """Immutable container for the blocks A (r x r), B (r x n), C (n x r)
    and the d+1 polynomial coefficients (each n x n).  A blockwise
    perturbation of a system is a system of the same shapes, and
    ``system - delta`` is the perturbed system."""

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
        """Aggregate norm of A, B, C and every polynomial coefficient: the
        root of their summed squared Frobenius norms."""
        blocks = (self.A, self.B, self.C, *self.poly_coeffs)
        return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks)))

    def transpose(self) -> "RosenbrockSystem":
        """The system whose evaluation is S(z)^T: swaps B and C transposed,
        transposes A and every coefficient.  An involution."""
        return RosenbrockSystem(self.A.T, self.C.T, self.B.T, tuple(m.T for m in self.poly_coeffs))

    def __sub__(self, other: "RosenbrockSystem") -> "RosenbrockSystem":
        """Blockwise difference of two systems of the same (r, n, d)."""
        if not isinstance(other, RosenbrockSystem):
            return NotImplemented
        if (self.r, self.n, self.d) != (other.r, other.n, other.d):
            raise ValueError(
                f"cannot subtract a system of shape (r, n, d) = "
                f"{(other.r, other.n, other.d)} from one of {(self.r, self.n, self.d)}"
            )
        return RosenbrockSystem(
            self.A - other.A,
            self.B - other.B,
            self.C - other.C,
            tuple(c - m for c, m in zip(self.poly_coeffs, other.poly_coeffs)),
        )


@dataclass(frozen=True, eq=False)
class ErrorMatrices:
    """Shift-dependent data of s = S(lam) and the weight gamma = sum_j
    |lam|^(2j).  Formed from s on each read, so that none outlives its
    reader: g1 and g2, the Gram matrices of its two block rows, and h1 and
    h2, the complementary projectors onto the leading r and trailing n
    coordinates."""

    s: np.ndarray
    r: int
    gamma: float

    @property
    def g1(self) -> np.ndarray:
        row1 = self.s[: self.r]
        return _frozen(linalg.hermitian_part(row1.conj().T @ row1, "g1"))

    @property
    def g2(self) -> np.ndarray:
        row2 = self.s[self.r :]
        return _frozen(linalg.hermitian_part(row2.conj().T @ row2, "g2"))

    @property
    def h1(self) -> np.ndarray:
        return _frozen(np.diag(np.arange(self.s.shape[0]) < self.r).astype(np.complex128))

    @property
    def h2(self) -> np.ndarray:
        return _frozen(np.diag(np.arange(self.s.shape[0]) >= self.r).astype(np.complex128))

    @property
    def h_lambda(self) -> np.ndarray:
        """The weighting h1 + gamma * h2 of the second block row."""
        return self.h1 + self.gamma * self.h2


def assemble_error_matrices(system: RosenbrockSystem, lam) -> ErrorMatrices:
    """One evaluation of S(lam); raises ValueError when lam is not finite or
    gamma overflows."""
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"the shift lam = {lam} is not finite")
    try:
        t = abs(lam) ** 2
        gamma = float(sum(t**j for j in range(system.d + 1)))
    except OverflowError:  # |lam|^2 overflows; gamma = 1 at degree 0
        gamma = math.inf if system.d else 1.0
    if not math.isfinite(gamma):
        raise ValueError(f"gamma = sum_j |lam|^(2j) overflows at |lam| = {abs(lam):.3e}")
    return ErrorMatrices(s=_frozen(system.evaluate(lam)), r=system.r, gamma=gamma)
