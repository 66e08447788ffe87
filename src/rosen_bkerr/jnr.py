"""Joint numerical range of a Hermitian triple (A1, A2, A3).

The quadratic-form map rho(x) = [x* A1 x, x* A2 x, x* A3 x] sends the unit
sphere to a compact set in R^3 whose support function in direction v is
the smallest eigenvalue of v1 A1 + v2 A2 + v3 A3, attained at the matching
eigenvector.  ``boundary_sample`` traces that boundary over a
deterministic direction grid; ``optimality_certificate`` checks the
first-order optimality of a quotient-sum minimizer through the supporting
half-space of the gradient direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, srq2

__all__ = [
    "JnrPoint",
    "OptimalityCertificate",
    "boundary_sample",
    "direction_grid",
    "optimality_certificate",
    "rho",
]


@dataclass(frozen=True, eq=False)
class JnrPoint:
    """A sampled boundary point: the probing direction, the attained image
    point, the support value (their inner product), and the unit witness
    vector realizing it."""

    direction: np.ndarray
    point: np.ndarray
    support_value: float
    witness: np.ndarray


def _hermitian_triple(matrices) -> list[np.ndarray]:
    mats = [linalg.hermitian_part(m, f"matrix {i+1}") for i, m in enumerate(matrices)]
    if len(mats) != 3:
        raise ValueError("expected exactly three matrices")
    if not (mats[0].shape == mats[1].shape == mats[2].shape):
        raise ValueError("the three matrices must share one shape")
    return mats


def _forms(mats, X: np.ndarray) -> np.ndarray:
    """[x* A1 x, x* A2 x, x* A3 x] for each column x of X, shape (3, columns),
    from one stacked matmul."""
    return srq2._block_forms(X, np.vstack(mats) @ X)


def rho(matrices, x) -> np.ndarray:
    """The real 3-vector [x* A1 x, x* A2 x, x* A3 x]; ValueError unless x is
    a finite vector of the matrices' order."""
    mats = _hermitian_triple(matrices)
    x = np.array(x, dtype=np.complex128, copy=True).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite entries")
    if x.size != len(mats[0]):
        raise ValueError(f"x must have length {len(mats[0])}")
    return _forms(mats, x.reshape(-1, 1))[:, 0]


def direction_grid(count: int) -> np.ndarray:
    """Deterministic spiral lattice of ``count`` unit directions in R^3,
    starting at the north pole [0, 0, 1]."""
    count = int(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    i = np.arange(count)
    z = 1.0 - 2.0 * i / count
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = i * (np.pi * (3.0 - np.sqrt(5.0)))
    out = np.column_stack([rad * np.cos(theta), rad * np.sin(theta), z])
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out


def boundary_sample(matrices, directions) -> list[JnrPoint]:
    """Support points of the joint numerical range for each probing
    direction, in input order."""
    mats = _hermitian_triple(matrices)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[1] != 3:
        raise ValueError("directions must be rows of length 3")
    v = dirs[:, :, None, None]
    w, vecs = np.linalg.eigh(v[:, 0] * mats[0] + v[:, 1] * mats[1] + v[:, 2] * mats[2])
    witnesses = [linalg.fix_phase(u) for u in vecs[:, :, 0]]
    points = _forms(mats, np.column_stack(witnesses)).T if witnesses else []
    return [
        JnrPoint(direction=d.copy(), point=y, support_value=float(s), witness=x)
        for d, y, s, x in zip(dirs, points, w[:, 0], witnesses)
    ]


@dataclass(frozen=True, eq=False)
class OptimalityCertificate:
    """First-order optimality data at a point x: the weights v of the
    stationarity matrix H(x) = v1 A1 + v2 A2 + v3 A3, which are the
    gradient of the scalarized objective at y = rho(x), and the support gap
    v . y - lambda_min(H(x)) = s - lambda_min(H(x)), s = x* H(x) x, which
    is nonnegative and vanishes exactly at supported boundary points."""

    grad_direction: np.ndarray
    support_gap: float


def optimality_certificate(matrices, g_params, x) -> OptimalityCertificate:
    """The certificate at x (normalized internally) of the quotient sum with
    scalars ``g_params`` = (alpha1, beta1, alpha2, beta2).  Raises
    NondifferentiablePointError exactly where ``srq2.nepv_matrix`` does."""
    alpha1, beta1, alpha2, beta2 = g_params
    problem = srq2.Srq2Problem(*_hermitian_triple(matrices), alpha1, beta1, alpha2, beta2)
    p = srq2._smooth_point(problem, x)
    return OptimalityCertificate(
        grad_direction=srq2._h_combination(problem, p.q1, p.q2, p.d1, p.d2, *np.eye(3)),
        support_gap=srq2._info(srq2._residual(problem, p), p.x).smallest_eig_gap,
    )
