"""System container and per-shift Hermitian data: evaluation, norms,
transposition, and the Gram/projector identities everything else relies on."""

import numpy as np
import pytest

from rosen_bkerr.rosenbrock import RosenbrockSystem, assemble_error_matrices

from support import random_system


def test_evaluate_scalar_constant():
    sys1 = RosenbrockSystem(A=[[0.0]], B=[[1.0]], C=[[1.0]], poly_coeffs=([[0.0]],))
    assert np.allclose(sys1.evaluate(2.0), [[-2.0, 1.0], [1.0, 0.0]])
    assert np.allclose(sys1.evaluate(0.0), [[0.0, 1.0], [1.0, 0.0]])


def test_evaluate_at_zero_is_constant_blocks():
    rng = np.random.default_rng(0)
    system = random_system(rng, r=2, n=3, d=2)
    s0 = system.evaluate(0.0)
    expect = np.block([[system.A, system.B], [system.C, system.poly_coeffs[0]]])
    assert np.allclose(s0, expect)


def test_evaluate_linear_difference():
    # for degree 1, S(z) - S(0) = z * [[-I, 0], [0, A1]]
    rng = np.random.default_rng(1)
    system = random_system(rng, r=2, n=2, d=1)
    z = 0.7 - 0.3j
    diff = system.evaluate(z) - system.evaluate(0.0)
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = -np.eye(2)
    block[2:, 2:] = system.poly_coeffs[1]
    assert np.allclose(diff, z * block)


def test_poly_at_matches_power_sum():
    rng = np.random.default_rng(2)
    system = random_system(rng, r=1, n=3, d=3)
    z = -0.4 + 1.1j
    direct = sum(z**j * cj for j, cj in enumerate(system.poly_coeffs))
    assert np.allclose(system.poly_at(z), direct)


def test_shape_validation():
    with pytest.raises(ValueError):
        RosenbrockSystem(A=[[1.0, 0.0]], B=[[1.0]], C=[[1.0]], poly_coeffs=([[1.0]],))
    with pytest.raises(ValueError):
        RosenbrockSystem(A=[[1.0]], B=[[1.0]], C=[[1.0, 0.0]], poly_coeffs=([[1.0]],))
    with pytest.raises(ValueError):
        RosenbrockSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], poly_coeffs=())


def test_norm_flattens_all_blocks():
    rng = np.random.default_rng(3)
    system = random_system(rng, r=2, n=2, d=2)
    stacked = np.concatenate(
        [m.ravel() for m in (system.A, system.B, system.C, *system.poly_coeffs)]
    )
    assert system.norm() == pytest.approx(float(np.linalg.norm(stacked)), rel=1e-14)


def test_norm_examples():
    zero = RosenbrockSystem(
        A=[[0.0]], B=[[0.0]], C=[[0.0]], poly_coeffs=([[0.0]],)
    )
    assert zero.norm() == 0.0
    ones = RosenbrockSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], poly_coeffs=([[1.0]],))
    assert ones.norm() == pytest.approx(2.0)


def test_transpose_involution_and_evaluation():
    rng = np.random.default_rng(4)
    system = random_system(rng, r=3, n=2, d=2)
    st = system.transpose()
    z = 0.2 + 0.9j
    assert np.allclose(st.evaluate(z), system.evaluate(z).T)
    back = st.transpose()
    assert np.allclose(back.A, system.A)
    assert np.allclose(back.B, system.B)
    assert np.allclose(back.C, system.C)
    for c1, c2 in zip(back.poly_coeffs, system.poly_coeffs):
        assert np.allclose(c1, c2)


def test_subtraction_requires_equal_shapes():
    rng = np.random.default_rng(5)
    system = random_system(rng, r=2, n=3, d=2)
    diff = system - random_system(rng, r=2, n=3, d=2)
    assert (diff.r, diff.n, diff.d) == (2, 3, 2)
    # broadcasting a 1 x 1 A, or zip dropping coefficients, would hide these
    for r, n, d in ((1, 3, 2), (2, 3, 0)):
        with pytest.raises(ValueError, match="cannot subtract"):
            system - random_system(rng, r=r, n=n, d=d)


def test_blocks_are_read_only():
    system = RosenbrockSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], poly_coeffs=([[1.0]],))
    with pytest.raises(ValueError):
        system.A[0, 0] = 2.0


def test_gram_matrices_sum_to_full_gram():
    rng = np.random.default_rng(5)
    system = random_system(rng, r=2, n=3, d=2)
    lam = 0.3 - 0.8j
    mats = assemble_error_matrices(system, lam)
    s = system.evaluate(lam)
    assert np.allclose(mats.g1 + mats.g2, s.conj().T @ s, atol=1e-12)
    assert np.array_equal(mats.s, s)


def test_gram_matrices_are_psd():
    rng = np.random.default_rng(6)
    system = random_system(rng, r=3, n=2, d=1)
    mats = assemble_error_matrices(system, 1.1 + 0.2j)
    for g in (mats.g1, mats.g2):
        w = np.linalg.eigvalsh(g)
        assert w[0] > -1e-12 * max(1.0, w[-1])


def test_projectors_partition_identity():
    rng = np.random.default_rng(7)
    system = random_system(rng, r=2, n=2, d=1)
    mats = assemble_error_matrices(system, 0.5)
    assert np.allclose(mats.h1 + mats.h2, np.eye(4))
    assert np.allclose(mats.h1 @ mats.h2, 0)


def test_gamma_weight_values():
    rng = np.random.default_rng(8)
    system = random_system(rng, r=1, n=2, d=2)
    assert assemble_error_matrices(system, 0.0).gamma == pytest.approx(1.0)
    # |lam| = 1 and degree 2: 1 + 1 + 1
    assert assemble_error_matrices(system, 1j).gamma == pytest.approx(3.0)
    assert assemble_error_matrices(system, 2.0).gamma == pytest.approx(1 + 4 + 16)


def test_gamma_overflow_is_a_value_error_above_degree_zero():
    # |lam|^2 overflows at 1e200; gamma = 1 at degree 0 all the same
    rng = np.random.default_rng(8)
    assert assemble_error_matrices(random_system(rng, r=1, n=2, d=0), 1e200).gamma == 1.0
    with pytest.raises(ValueError, match="gamma"):
        assemble_error_matrices(random_system(rng, r=1, n=2, d=1), 1e200)


def test_h_lambda_weighted_quadratic_form():
    rng = np.random.default_rng(9)
    system = random_system(rng, r=2, n=3, d=2)
    mats = assemble_error_matrices(system, 0.4 + 0.7j)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    form = float(np.real(np.vdot(x, mats.h_lambda @ x)))
    expect = np.linalg.norm(x[:2]) ** 2 + mats.gamma * np.linalg.norm(x[2:]) ** 2
    assert form == pytest.approx(expect, rel=1e-12)
