"""Joint numerical range: quadratic-form images, support-function sampling
over the deterministic direction grid, and first-order optimality gaps."""

import numpy as np
import pytest

from rosen_bkerr import jnr, linalg, srq2
from support import (
    EXAMPLE_A1,
    EXAMPLE_A2,
    EXAMPLE_A3,
    EXAMPLE_PARAMS,
    RHO_AT_SOLUTION,
    SOLVE_VALUE,
    X_STAR_2,
    Y_STAR_2,
    example_problem,
)

TRIPLE = (EXAMPLE_A1, EXAMPLE_A2, EXAMPLE_A3)
G_PARAMS = (
    EXAMPLE_PARAMS["alpha1"],
    EXAMPLE_PARAMS["beta1"],
    EXAMPLE_PARAMS["alpha2"],
    EXAMPLE_PARAMS["beta2"],
)


def test_rho_basis_vectors_read_diagonals():
    out = jnr.rho(TRIPLE, [1.0, 0.0, 0.0])
    assert np.allclose(out, [EXAMPLE_A1[0, 0], EXAMPLE_A2[0, 0], EXAMPLE_A3[0, 0]])


def test_rho_identity_triple_is_singleton():
    eye = np.eye(4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = linalg.normalize(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert np.allclose(jnr.rho((eye, eye, eye), x), [1.0, 1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("c", [1e-3, 1e2, 1e6])
def test_rho_scales_quadratically(c):
    problem = srq2.random_problem(6, np.random.default_rng(0))
    triple = (problem.a1, problem.a2, problem.a3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.allclose(jnr.rho(triple, c * x), c**2 * jnr.rho(triple, x), rtol=1e-12, atol=0)


def test_rho_requires_three_matrices():
    with pytest.raises(ValueError):
        jnr.rho((EXAMPLE_A1, EXAMPLE_A2), [1.0, 0.0, 0.0])


def test_direction_grid_single_point_is_north_pole():
    grid = jnr.direction_grid(1)
    assert np.allclose(grid, [[0.0, 0.0, 1.0]])


def test_direction_grid_units_and_determinism():
    grid = jnr.direction_grid(400)
    assert grid.shape == (400, 3)
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(grid, jnr.direction_grid(400))
    # spiral points spread out: no two directions nearly identical
    dots = grid @ grid.T - np.eye(400)
    assert dots.max() < 1.0 - 1e-4


def test_boundary_points_satisfy_support_inequality():
    # every sampled image point must lie on the supported side of every
    # other direction's half-space
    points = jnr.boundary_sample(TRIPLE, jnr.direction_grid(120))
    ys = np.array([p.point for p in points])
    for p in points:
        assert np.min(ys @ p.direction) >= p.support_value - 1e-9


def test_boundary_witnesses_are_smallest_eigenvectors():
    points = jnr.boundary_sample(TRIPLE, jnr.direction_grid(25))
    for p in points:
        hv = sum(c * m for c, m in zip(p.direction, TRIPLE))
        resid = hv @ p.witness - p.support_value * p.witness
        assert np.linalg.norm(resid) < 1e-10
        assert p.point @ p.direction == pytest.approx(p.support_value, abs=1e-10)


def test_certificate_vanishes_at_minimizer():
    sol = srq2.solve(example_problem(), restarts=5, seed=0)
    cert = jnr.optimality_certificate(TRIPLE, G_PARAMS, sol.x)
    assert cert.support_gap <= 1e-8
    assert cert.support_gap >= -1e-10
    assert np.allclose(jnr.rho(TRIPLE, sol.x), RHO_AT_SOLUTION, atol=1e-9)
    assert srq2.objective(example_problem(), sol.x) == pytest.approx(SOLVE_VALUE, abs=1e-12)


def test_certificate_rejects_spurious_stationary_point():
    # the known spurious point fails the supporting half-space test by a
    # visible margin
    cert = jnr.optimality_certificate(TRIPLE, G_PARAMS, X_STAR_2.astype(complex))
    assert cert.support_gap > 1e-4
    assert np.allclose(jnr.rho(TRIPLE, X_STAR_2), Y_STAR_2, atol=5e-4)


def test_certificate_gap_nonnegative_at_random_points():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        cert = jnr.optimality_certificate(TRIPLE, G_PARAMS, x)
        assert cert.support_gap >= -1e-10


def _quotient_data(problem):
    params = (problem.alpha1, problem.beta1, problem.alpha2, problem.beta2)
    return (problem.a1, problem.a2, problem.a3), params


def test_certificate_uses_the_solver_threshold():
    # AP: d1 = ||x||^2 - x* A3 x with A3 = diag(1, 0, 0, 0), whose threshold
    # is 1e-12 max(1, ||I - A3||_1) = 1e-12; here d1 = 1.5e-12
    problem = srq2.random_problem(4, np.random.default_rng(3), "AP")
    assert np.array_equal(np.diag(problem.a3), [1.0, 0.0, 0.0, 0.0])
    x = np.array([np.sqrt(1.0 - 1.5e-12), np.sqrt(1.5e-12), 0.0, 0.0], dtype=complex)
    triple, params = _quotient_data(problem)
    expected = srq2.nepv_residuals(problem, x).smallest_eig_gap
    cert = jnr.optimality_certificate(triple, params, x)
    assert abs(cert.support_gap - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("template", srq2.PATTERN_TEMPLATES)
def test_certificate_is_the_nepv_gap(template):
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        problem = srq2.random_problem(n, rng, template)
        triple, params = _quotient_data(problem)
        points = [srq2.solve(problem, restarts=3, seed=n).x]
        points += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(5)]
        for x in points:
            try:
                expected = srq2.nepv_residuals(problem, x).smallest_eig_gap
            except srq2.NondifferentiablePointError:
                with pytest.raises(srq2.NondifferentiablePointError):
                    jnr.optimality_certificate(triple, params, x)
                continue
            cert = jnr.optimality_certificate(triple, params, x)
            assert abs(cert.support_gap - expected) <= 1e-12 * max(1.0, abs(expected))
            # the gradient direction holds the weights of H(x)
            h = srq2.nepv_matrix(problem, x)
            weighted = sum(v * m for v, m in zip(cert.grad_direction, triple))
            assert np.max(np.abs(weighted - h)) <= 1e-12 * np.max(np.abs(h))


def test_certificate_raises_where_nepv_matrix_raises():
    raised = 0
    rng = np.random.default_rng(5)
    for template in srq2.PATTERN_TEMPLATES * 3:
        problem = srq2.random_problem(3, rng, template, rank_deficient=True)
        triple, params = _quotient_data(problem)
        for cand in srq2.nondiff_candidates(problem):
            with pytest.raises(srq2.NondifferentiablePointError):
                srq2.nepv_matrix(problem, cand.x)
            with pytest.raises(srq2.NondifferentiablePointError):
                jnr.optimality_certificate(triple, params, cand.x)
            raised += 1
    assert raised > 0


def test_certificate_rejects_wrong_triple():
    with pytest.raises(ValueError):
        jnr.optimality_certificate((EXAMPLE_A1, EXAMPLE_A2), G_PARAMS, [1.0, 0.0, 0.0])
