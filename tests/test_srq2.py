"""Quotient-sum minimizer: objective conventions, stationarity matrix against
finite differences, SCF convergence on the reference problem, degenerate
candidates, and agreement with the sampled oracle."""

import math

import numpy as np
import pytest

from rosen_bkerr import linalg, srq2
from support import (
    SOLVE_VALUE,
    X_STAR_1,
    X_STAR_2,
    example_problem,
)


def _identity_problem(params=(1.0, 0.0, 0.0, 1.0)):
    eye = np.eye(3)
    return srq2.Srq2Problem(eye, eye, eye, *params)


def test_objective_identity_matrices():
    problem = _identity_problem()
    x = linalg.normalize(np.array([1.0, 2.0, -1.0]))
    assert srq2.objective(problem, x) == pytest.approx(2.0, rel=1e-14)


def test_objective_scale_invariant():
    problem = example_problem()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f1 = srq2.objective(problem, x)
    f2 = srq2.objective(problem, 5.3 * x)
    assert f1 == pytest.approx(f2, rel=1e-13)


def test_objective_zero_over_zero_contributes_nothing():
    # first denominator vanishes at e2 together with its numerator
    problem = srq2.Srq2Problem(
        a1=np.diag([1.0, 0.0]),
        a2=np.eye(2),
        a3=np.diag([1.0, 0.0]),
        alpha1=0.0,
        beta1=1.0,
        alpha2=1.0,
        beta2=0.0,
    )
    assert srq2.objective(problem, [0.0, 1.0]) == pytest.approx(1.0)


def test_objective_positive_over_zero_is_infinite():
    problem = srq2.Srq2Problem(
        a1=np.diag([0.0, 1.0]),
        a2=np.eye(2),
        a3=np.diag([1.0, 0.0]),
        alpha1=0.0,
        beta1=1.0,
        alpha2=1.0,
        beta2=0.0,
    )
    assert srq2.objective(problem, [0.0, 1.0]) == math.inf
    with pytest.raises(srq2.NondifferentiablePointError):
        srq2.nepv_matrix(problem, [0.0, 1.0])


def test_objective_at_reference_minimizer():
    # the printed four-decimal minimizer reproduces the converged value
    problem = example_problem()
    assert srq2.objective(problem, X_STAR_1) == pytest.approx(SOLVE_VALUE, abs=1e-4)


def test_problem_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        srq2.Srq2Problem(-eye, eye, eye, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        # negative beta makes a denominator matrix indefinite
        srq2.Srq2Problem(eye, eye, eye, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        srq2.Srq2Problem(eye, eye, np.eye(3), 1.0, 0.0, 1.0, 0.0)


def test_nepv_matrix_matches_tangent_finite_differences():
    # 2 Re(d* H(x) x) approximates the tangent directional derivative of f
    rng = np.random.default_rng(7)
    problem = example_problem()
    step = 1e-5
    checked = 0
    while checked < 30:
        x = linalg.normalize(
            rng.standard_normal(3) + 1j * rng.standard_normal(3)
        )
        _, _, _, _, d1, d2 = srq2._forms(problem, x)
        if min(d1, d2) < 0.2:
            continue
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        d = d - x * np.vdot(x, d)
        d = d / np.linalg.norm(d)
        h = srq2.nepv_matrix(problem, x)
        analytic = 2.0 * float(np.real(d.conj() @ (h @ x)))
        fplus = srq2.objective(problem, linalg.normalize(x + step * d))
        fminus = srq2.objective(problem, linalg.normalize(x - step * d))
        numeric = (fplus - fminus) / (2.0 * step)
        assert analytic == pytest.approx(numeric, abs=1e-6)
        checked += 1


def test_scf_constant_matrix_converges_immediately():
    # beta1 = beta2 = 0 makes H(x) constant, so one sweep lands exactly
    rng = np.random.default_rng(1)
    a1 = np.diag([3.0, 1.0, 2.0])
    a2 = np.diag([0.5, 0.25, 4.0])
    problem = srq2.Srq2Problem(a1, a2, np.eye(3), 2.0, 0.0, 1.0, 0.0)
    x0 = rng.standard_normal(3)
    sol = srq2.scf_solve(problem, x0)
    expect = float(np.min(np.diag(a1) / 2.0 + np.diag(a2)))
    assert sol.converged
    assert sol.iterations <= 2
    assert sol.value == pytest.approx(expect, abs=1e-12)


def test_scf_reference_problem_from_random_starts():
    problem = example_problem()
    rng = np.random.default_rng(42)
    for _ in range(5):
        x0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sol = srq2.scf_solve(problem, x0)
        assert sol.converged, f"stalled at residual {sol.rel_residual:.2e}"
        assert sol.rel_residual <= 1e-10
        assert sol.value == pytest.approx(SOLVE_VALUE, abs=1e-8)


def test_reference_spurious_point_is_distinguished():
    # the second printed stationary point pairs with the SECOND smallest
    # eigenvalue of H(x), so the smallest-eigenvalue residual stays large
    problem = example_problem()
    x = linalg.normalize(X_STAR_2.astype(complex))
    h = srq2.nepv_matrix(problem, x)
    w = np.linalg.eigvalsh(h)
    s = float(np.real(np.vdot(x, h @ x)))
    assert abs(s - w[1]) < 1e-6
    info = srq2.nepv_residuals(problem, x)
    assert info.nepv_residual > 0.2
    assert info.smallest_eig_gap > 0.2

    sol = srq2.solve(problem, restarts=20, seed=3)
    assert sol.value == pytest.approx(SOLVE_VALUE, abs=1e-9)
    assert abs(np.vdot(sol.x, x)) < 0.5


def test_solution_is_deterministic():
    problem = example_problem()
    a = srq2.solve(problem, restarts=4, seed=9)
    b = srq2.solve(problem, restarts=4, seed=9)
    assert a.value == b.value
    assert a.x.tobytes() == b.x.tobytes()
    assert a.shifts_used == b.shifts_used


def test_nondiff_candidates_closed_form():
    # A1 + (alpha1 I + beta1 A3) = diag(0, 2, 3) has null space e1, where
    # the first quotient is 0/0 and only the second survives with value 1
    problem = srq2.Srq2Problem(
        a1=np.diag([0.0, 1.0, 2.0]),
        a2=np.eye(3),
        a3=np.diag([0.0, 1.0, 1.0]),
        alpha1=0.0,
        beta1=1.0,
        alpha2=1.0,
        beta2=0.0,
    )
    cands = srq2.nondiff_candidates(problem)
    assert len(cands) == 1
    cand = cands[0]
    assert cand.which == 1
    assert cand.value == pytest.approx(1.0, abs=1e-12)
    assert abs(cand.x[0]) == pytest.approx(1.0, abs=1e-10)


def test_nondiff_candidates_empty_when_definite():
    assert srq2.nondiff_candidates(_identity_problem((1.0, 0.0, 1.0, 0.0))) == []


def test_common_null_violation_detected():
    # both denominators vanish on e2, so the degenerate search must refuse
    problem = srq2.Srq2Problem(
        a1=np.eye(2),
        a2=np.eye(2),
        a3=np.diag([1.0, 0.0]),
        alpha1=0.0,
        beta1=1.0,
        alpha2=0.0,
        beta2=1.0,
    )
    assert not problem.common_null_ok
    with pytest.raises(srq2.CommonNullViolationError):
        srq2.nondiff_candidates(problem)
    # solve still works through the SCF path alone
    sol = srq2.solve(problem, restarts=3, seed=0)
    assert sol.value == pytest.approx(2.0, abs=1e-8)


def test_solve_zero_second_numerator_reduces_to_pencil():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a1 = g @ g.conj().T
    a3 = np.diag([1.0, 1.0, 0.0])
    problem = srq2.Srq2Problem(a1, np.zeros((3, 3)), a3, 1.0, 1.0, 1.0, 0.0)
    expect, _ = linalg.definite_pencil_smallest(a1, np.eye(3) + a3)
    sol = srq2.solve(problem, restarts=3, seed=0)
    assert sol.value == pytest.approx(expect, abs=1e-9)


def test_oracle_constant_objective():
    problem = _identity_problem((1.0, 0.0, 1.0, 0.0))
    assert srq2.brute_force_oracle(problem, 50, seed=1) == pytest.approx(2.0, rel=1e-12)


def test_oracle_single_quotient_matches_pencil():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a1 = g @ g.conj().T
    problem = srq2.Srq2Problem(a1, np.zeros((3, 3)), np.eye(3), 1.0, 1.0, 1.0, 0.0)
    expect, _ = linalg.definite_pencil_smallest(a1, 2.0 * np.eye(3))
    assert srq2.brute_force_oracle(problem, 2000, seed=2) == pytest.approx(
        expect, abs=1e-8
    )


def test_oracle_reference_problem():
    value = srq2.brute_force_oracle(example_problem(), 4000, seed=0)
    assert value == pytest.approx(SOLVE_VALUE, abs=1e-3)
    assert value >= SOLVE_VALUE - 1e-8


def test_oracle_deterministic():
    problem = example_problem()
    assert srq2.brute_force_oracle(problem, 500, seed=7) == srq2.brute_force_oracle(
        problem, 500, seed=7
    )


def test_oracle_rejects_negative_polish_settings():
    problem = example_problem()
    with pytest.raises(ValueError, match="polish_steps"):
        srq2.brute_force_oracle(problem, 50, polish_steps=-1)
    with pytest.raises(ValueError, match="polish_top"):
        srq2.brute_force_oracle(problem, 50, polish_top=-1)


def test_oracle_polish_top_zero_or_budget_polishes_every_sample():
    problem = example_problem()
    values = {
        srq2.brute_force_oracle(problem, 300, seed=3, polish_steps=30, polish_top=top)
        for top in (0, 300, 1000)
    }
    assert len(values) == 1
    unpolished = srq2.brute_force_oracle(problem, 300, seed=3, polish_steps=0)
    assert values.pop() < unpolished


def _ladder_problems():
    """Random instances, plus two built on n = 4 with A3 = diag(0, 0, 1, 1)
    and the ABP scalars, so that the second denominator x*A3x vanishes on
    span(e1, e2).  With rank-one numerators supported on (e3, e4) both
    quotients are 0 there (one of them 0/0); with a full-rank second
    numerator the objective is +inf there."""
    rng = np.random.default_rng(17)
    out = [
        ("random", srq2.random_problem(3, rng, template))
        for template in srq2.PATTERN_TEMPLATES
    ]
    out.append(("random", srq2.random_problem(4, rng, "ABCP", rank_deficient=True)))
    a3 = np.diag([0.0, 0.0, 1.0, 1.0])
    v = np.array([0.0, 0.0, 1.0 + 0.5j, -0.7 + 0.2j])
    w = np.array([0.0, 0.0, 0.3 - 1.0j, 1.1 + 0.4j])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    scalars = srq2.PATTERN_SCALARS["ABP"](1.0)
    rank_one = srq2.Srq2Problem(np.outer(v, v.conj()), np.outer(w, w.conj()), a3, *scalars)
    full = srq2.Srq2Problem(np.outer(v, v.conj()), g @ g.conj().T, a3, *scalars)
    return out + [("zero", rank_one), ("inf", full)]


def _rounding_slack(problem, X):
    """Rounding error to allow in the objective at the unit columns of X,
    beyond a relative 1e-12: each quotient q/d carries an error of about
    eps (||A_i|| + |q/d| (|alpha_i| + |beta_i| ||A3||)) / d, which is large
    only next to a vanishing denominator, for any way of evaluating it."""
    q1, q2, _, _, d1, d2, _ = srq2._batch_forms(problem, X)
    a3 = linalg.norm1(problem.a3)
    slack = np.zeros(X.shape[1])
    for a, q, d, alpha, beta in (
        (problem.a1, q1, d1, problem.alpha1, problem.beta1),
        (problem.a2, q2, d2, problem.alpha2, problem.beta2),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = (linalg.norm1(a) + np.abs(q / d) * (abs(alpha) + abs(beta) * a3)) / d
        slack += np.where(d > 0, term, 0.0)
    return 8 * np.finfo(float).eps * slack


@pytest.mark.parametrize("kind, problem", _ladder_problems())
def test_ladder_matches_direct_evaluation(kind, problem):
    rng = np.random.default_rng(23)
    n, m = problem.n, 24
    X = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    G = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    if kind != "random":  # half the lines lie in span(e1, e2)
        X[2:, m // 2 :] = 0.0
        G[2:, m // 2 :] = 0.0
    X /= np.linalg.norm(X, axis=0)
    G -= X * np.einsum("ij,ij->j", X.conj(), G)  # tangent, as the polish's gradients
    t = 10.0 ** rng.uniform(-3.0, 3.0, m)
    q1, q2, _, nrm2, d1, d2, y = srq2._batch_forms(problem, X)
    steps, values = srq2._ladder_objective(problem, X, G, t, q1, q2, nrm2, d1, d2, y)
    assert steps.shape == values.shape == (25, m)
    for k in range(25):
        np.testing.assert_array_equal(steps[k], t * 0.5**k)
        cand = X - G * steps[k]
        cand /= np.linalg.norm(cand, axis=0)
        direct = srq2._batch_objective(problem, cand)
        np.testing.assert_array_equal(np.isinf(values[k]), np.isinf(direct))
        np.testing.assert_array_equal(values[k] == 0.0, direct == 0.0)
        fin = np.isfinite(direct)
        bound = 1e-12 * np.abs(direct[fin]) + _rounding_slack(problem, cand)[fin]
        assert np.all(np.abs(values[k][fin] - direct[fin]) <= bound), k
    if kind == "zero":
        assert np.all(values[:, m // 2 :] == 0.0)
    elif kind == "inf":
        assert np.all(np.isinf(values[:, m // 2 :]))
    assert np.all(np.isfinite(values[:, : m // 2]))


def _reference_polish(problem, x, f, steps):
    """One column of the polish, one backtracking trial at a time."""
    t = 1.0
    for _ in range(steps):
        if not (srq2.is_differentiable(problem, x) and math.isfinite(f) and t > 1e-18):
            break
        hx = srq2.nepv_matrix(problem, x) @ x
        grad = hx - x * np.real(np.vdot(x, hx))
        gnorm2 = float(np.real(np.vdot(grad, grad)))
        if gnorm2 <= 1e-20:
            break
        for _trial in range(25):
            cand = linalg.normalize(x - t * grad)
            fc = srq2.objective(problem, cand)
            if fc <= f - 1e-4 * t * gnorm2:
                x, f, t = cand, fc, min(2.0 * t, 1e6)
                break
            t *= 0.5
            if t <= 1e-18:
                break
    return x, f


def test_polish_matches_one_trial_at_a_time_backtracking():
    rng = np.random.default_rng(29)
    problems = [srq2.random_problem(3, rng, template) for template in ("AP", "BC", "ABCP")]
    # numerators scaled by 1e12 need steps below 2^-25 at first: every trial
    # of the first ladder fails, and the next one starts from the halved step
    base = problems[-1]
    problems.append(
        srq2.Srq2Problem(1e12 * base.a1, 1e12 * base.a2, base.a3, 1.0, 0.0, 1.0, base.beta2)
    )
    for k, problem in enumerate(problems):
        X = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        X /= np.linalg.norm(X, axis=0)
        f = srq2._batch_objective(problem, X)
        Xp, fp = srq2._batch_polish(problem, X.copy(), f.copy(), 40)
        np.testing.assert_allclose(fp, srq2._batch_objective(problem, Xp), rtol=1e-12)
        for j in range(X.shape[1]):
            x_ref, f_ref = _reference_polish(problem, X[:, j], f[j], 40)
            assert fp[j] == pytest.approx(f_ref, rel=1e-10), (k, j)
            np.testing.assert_allclose(Xp[:, j], x_ref, atol=1e-7)


def test_solve_tracks_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    close = 0
    total = 0
    for k in range(21):
        template = srq2.PATTERN_TEMPLATES[k % len(srq2.PATTERN_TEMPLATES)]
        problem = srq2.random_problem(3, rng, template)
        sol = srq2.solve(problem, restarts=4, seed=k)
        oracle = srq2.brute_force_oracle(problem, 2000, seed=k)
        assert sol.value <= oracle + 1e-8, template
        if math.isfinite(oracle):
            total += 1
            if sol.value >= oracle - 1e-4:
                close += 1
    assert total and close >= total - 1


def test_solve_beats_degenerate_candidates_on_rank_deficient():
    rng = np.random.default_rng(77)
    seen = 0
    for k in range(12):
        template = srq2.PATTERN_TEMPLATES[k % len(srq2.PATTERN_TEMPLATES)]
        problem = srq2.random_problem(3, rng, template, rank_deficient=True)
        if not problem.common_null_ok:
            continue
        cands = srq2.nondiff_candidates(problem)
        if not cands:
            continue
        seen += 1
        sol = srq2.solve(problem, restarts=3, seed=k)
        for cand in cands:
            assert sol.value <= cand.value + 1e-10
    assert seen > 0


def test_solution_reports_residuals():
    sol = srq2.solve(example_problem(), restarts=2, seed=0)
    assert sol.rel_residual <= 1e-10
    assert sol.nepv_residual <= 1e-8
    assert np.linalg.norm(sol.x) == pytest.approx(1.0, abs=1e-12)
    assert sol.source in (srq2.SOURCE_SCF, srq2.SOURCE_NONDIFF_1, srq2.SOURCE_NONDIFF_2)
