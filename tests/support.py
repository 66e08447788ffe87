"""Shared fixtures and independent reference computations for the tests.

Everything here is deliberately built from primitives other than the code
under test: eigenvalues of a system come from a companion linearization
handed to scipy, backward errors of the transpose-reduced patterns come
from sampled minimization of quotient problems assembled from scratch, and
the reference three-dimensional quotient problem is hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import scipy.linalg as sla

from rosen_bkerr import srq2
from rosen_bkerr.rosenbrock import RosenbrockSystem, assemble_error_matrices

# ---------------------------------------------------------------------------
# Reference three-dimensional quotient problem (known minimizer and spurious
# second stationary point, both printed to four decimals in the source data).

EXAMPLE_A1 = np.array(
    [[0.64, -0.15, -0.38], [-0.15, 0.60, -0.22], [-0.38, -0.22, 0.56]]
)
EXAMPLE_A2 = np.array(
    [[0.73, 0.24, -0.07], [0.24, 0.52, -0.04], [-0.07, -0.04, 0.38]]
)
EXAMPLE_A3 = np.diag([0.53, 0.97, 0.38])
EXAMPLE_PARAMS = dict(alpha1=1.0, beta1=0.0, alpha2=0.0, beta2=1.0)

# rho at the two stationary points, as printed in the source data
Y_STAR_1 = np.array([0.2575, 0.4848, 0.7346])
Y_STAR_2 = np.array([0.6263, 0.3616, 0.6621])
X_STAR_1 = np.array([-0.1728, -0.7704, -0.6137])
X_STAR_2 = np.array([-0.5730, 0.6282, -0.5263])

# frozen regression values computed by this package at tol 1e-10 and
# cross-checked against the sampled oracle (agreement ~2e-16)
SOLVE_VALUE = 0.9174343715960298
RHO_AT_SOLUTION = np.array(
    [0.2575471296253532, 0.4847857355428287, 0.7346493532668888]
)


def example_problem() -> srq2.Srq2Problem:
    return srq2.Srq2Problem(
        a1=EXAMPLE_A1, a2=EXAMPLE_A2, a3=EXAMPLE_A3, **EXAMPLE_PARAMS
    )


# ---------------------------------------------------------------------------
# Random systems.


def complex_normal(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_system(rng, r, n, d) -> RosenbrockSystem:
    return RosenbrockSystem(
        A=complex_normal(rng, r, r),
        B=complex_normal(rng, r, n),
        C=complex_normal(rng, n, r),
        poly_coeffs=tuple(complex_normal(rng, n, n) for _ in range(d + 1)),
    )


def tiny_coupling_system(block: str) -> RosenbrockSystem:
    """The (3, 4, 0) system of ``default_rng(0)`` with the coupling block
    ``block`` ("B" or "C") scaled by 1e-6.  At lambda = 0.3+0.4i the pencil
    right-hand side V*H2V of pattern B (C scaled) or of pattern C (B
    scaled) is numerically zero, with a 1-norm of about 3.5e-11."""
    system = random_system(np.random.default_rng(0), 3, 4, 0)
    return replace(system, **{block: getattr(system, block) * 1e-6})


# ---------------------------------------------------------------------------
# Eigenvalues of the system matrix, independent of the package: companion
# linearization M u = z N u with u = [x1; x2; z x2; ...; z^{d-1} x2], solved
# by scipy, then polished by Newton's method on log det.


def system_eigenvalues(system: RosenbrockSystem) -> np.ndarray:
    r, n, d = system.r, system.n, system.d
    if d == 0:
        m = np.block([[system.A, system.B], [system.C, system.poly_coeffs[0]]])
        nmat = np.zeros((r + n, r + n), dtype=complex)
        nmat[:r, :r] = np.eye(r)
    else:
        k = r + n * d
        m = np.zeros((k, k), dtype=complex)
        nmat = np.zeros((k, k), dtype=complex)
        m[:r, :r] = system.A
        m[:r, r : r + n] = system.B
        nmat[:r, :r] = np.eye(r)
        for j in range(d - 1):
            rows = slice(r + j * n, r + (j + 1) * n)
            m[rows, r + (j + 1) * n : r + (j + 2) * n] = np.eye(n)
            nmat[rows, r + j * n : r + (j + 1) * n] = np.eye(n)
        last = slice(r + (d - 1) * n, k)
        m[last, :r] = system.C
        for j in range(d):
            m[last, r + j * n : r + (j + 1) * n] += system.poly_coeffs[j]
        nmat[last, r + (d - 1) * n : k] = -system.poly_coeffs[d]
    w = sla.eig(m, nmat, right=False)
    return w[np.isfinite(w)]


def newton_refine(system: RosenbrockSystem, z: complex, steps: int = 5) -> complex:
    """Polish an eigenvalue approximation via dz = -1 / tr(S(z)^-1 S'(z))."""
    r, n = system.r, system.n
    for _ in range(steps):
        s = system.evaluate(z)
        dp = np.zeros((n, n), dtype=complex)
        for j in range(1, system.d + 1):
            dp += j * z ** (j - 1) * system.poly_coeffs[j]
        ds = np.zeros_like(s)
        ds[:r, :r] = -np.eye(r)
        ds[r:, r:] = dp
        try:
            tr = np.trace(np.linalg.solve(s, ds))
        except np.linalg.LinAlgError:
            return z
        if tr == 0:
            return z
        z = z - 1.0 / tr
    return z


def refined_eigenvalues(system: RosenbrockSystem, max_count: int = 4) -> list[complex]:
    out = []
    for z in system_eigenvalues(system)[:max_count]:
        zr = newton_refine(system, complex(z))
        smin = np.linalg.svd(system.evaluate(zr), compute_uv=False)[-1]
        if smin <= 1e-10 * max(1.0, np.linalg.norm(system.evaluate(zr), 1)):
            out.append(zr)
    return out


# ---------------------------------------------------------------------------
# Direct formulations for the transpose-reduced patterns, built from the row
# equations and solved by the sampled oracle (never by the dispatch under
# test).  Row 1 is (A - lambda I) x1 + B x2, row 2 is C x1 + P(lambda) x2;
# restricting which blocks absorb each row residual yields a quotient
# problem with denominators expressed through H2 (A3 = H2, H1 = I - H2).


def _orthonormal_nullspace(g: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    w, v = np.linalg.eigh(g)
    keep = w <= tol * max(1.0, float(np.abs(g).sum(axis=0).max()))
    return v[:, keep]


def direct_backward_error(system, lam, letters, budget=4000, seed=0) -> float:
    s, r = system.evaluate(lam), system.r
    g1, g2 = ((g + g.conj().T) / 2.0 for g in (s[:r].conj().T @ s[:r], s[r:].conj().T @ s[r:]))
    h2 = np.diag(np.arange(len(s)) >= r).astype(np.complex128)
    gamma = assemble_error_matrices(system, lam).gamma
    if letters == "C":
        u = _orthonormal_nullspace(g1)
        if u.shape[1] == 0:
            return math.inf
        prob = srq2.Srq2Problem(
            a1=np.zeros((u.shape[1], u.shape[1])),
            a2=u.conj().T @ g2 @ u,
            a3=u.conj().T @ h2 @ u,
            alpha1=1.0,
            beta1=0.0,
            alpha2=1.0,
            beta2=-1.0,
        )
    elif letters == "AC":
        prob = srq2.Srq2Problem(
            a1=g1, a2=g2, a3=h2, alpha1=1.0, beta1=-1.0, alpha2=1.0, beta2=-1.0
        )
    elif letters == "BP":
        prob = srq2.Srq2Problem(
            a1=g1, a2=g2 / gamma, a3=h2, alpha1=0.0, beta1=1.0, alpha2=0.0, beta2=1.0
        )
    elif letters == "ACP":
        prob = srq2.Srq2Problem(
            a1=g1, a2=g2, a3=h2, alpha1=1.0, beta1=-1.0, alpha2=1.0, beta2=gamma - 1.0
        )
    else:
        raise ValueError(letters)
    value = srq2.brute_force_oracle(prob, budget, seed=seed)
    return math.sqrt(value) if math.isfinite(value) else math.inf
