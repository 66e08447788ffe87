"""Quotient-sum minimizer: objective conventions, stationarity matrix against
finite differences, SCF convergence on the reference problem, degenerate
candidates, and agreement with the sampled oracle."""

import math
import warnings

import numpy as np
import pytest

from rosen_bkerr import jnr, linalg, srq2
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
    problem = srq2.Srq2Problem(eye, 2.0 * eye, eye, 1.0, 0.0, 1.0, 0.0)
    # the three matrices are read-only row blocks of the one stacked array
    for mat, given in zip((problem.a1, problem.a2, problem.a3), (eye, 2.0 * eye, eye)):
        assert np.shares_memory(mat, problem.stacked) and not mat.flags.writeable
        assert np.array_equal(mat, given)
    with pytest.raises(ValueError):
        srq2.Srq2Problem(-eye, eye, eye, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        # negative beta makes a denominator matrix indefinite
        srq2.Srq2Problem(eye, eye, eye, 0.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        srq2.Srq2Problem(eye, eye, np.eye(3), 1.0, 0.0, 1.0, 0.0)
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError, match="must be nonempty"):
        srq2.Srq2Problem(empty, empty, empty, 1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "a3, alphas, betas",
    [
        (np.eye(2), (0.0, 1.0), (-1.0, 0.0)),
        (np.diag([0.0, 2.0]), (1.0, 1.0), (-1.0, 0.0)),
        (np.diag([0.0, 2.0]), (1.0, 1.0), (0.0, -0.75)),
        (np.diag([1.0, 3.0]), (-2.0, 1.0), (1.0, 0.0)),
    ],
)
def test_indefinite_denominator_message(a3, alphas, betas):
    # the denominator checks read A3's spectrum: with beta < 0 the smallest
    # eigenvalue of alpha I + beta A3 is alpha + beta lambda_max(A3)
    eye = np.eye(2)
    expected = [
        alpha + beta * np.linalg.eigvalsh(a3)[-1 if beta < 0 else 0]
        for alpha, beta in zip(alphas, betas)
    ]
    which = 1 if expected[0] < 0 else 2
    message = (
        f"denominator matrix {which} is not positive semidefinite "
        f"(smallest eigenvalue {expected[which - 1]:.3e})"
    )
    with pytest.raises(ValueError) as info:
        srq2.Srq2Problem(eye, eye, a3, alphas[0], betas[0], alphas[1], betas[1])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "wmin, norm, psd",
    [
        # below -1e-12 ||M||_1, though above -1e-10 ||M||_1
        (-1e-9, 100.0, False),
        # below -1e-12 ||M||_1, though above -1e-12 max(1, ||M||_1)
        (-1e-25, 1e-20, False),
        (-5e-11, 100.0, True),
        (0.0, 1e-20, True),
    ],
)
def test_one_psd_guard(wmin, norm, psd):
    # M = diag(wmin, norm) has 1-norm norm; the null-space kernel and each of
    # Srq2Problem's five checks give it one verdict
    m, eye = np.diag([wmin, norm]), np.eye(2)
    calls = (
        lambda: linalg.psd_nullspace(m),
        lambda: srq2.Srq2Problem(m, eye, eye, 1.0, 0.0, 1.0, 0.0),
        lambda: srq2.Srq2Problem(eye, m, eye, 1.0, 0.0, 1.0, 0.0),
        lambda: srq2.Srq2Problem(eye, eye, m, 1.0, 0.0, 1.0, 0.0),
        # b1 = wmin I + (norm - wmin) diag(0, 1) = M
        lambda: srq2.Srq2Problem(eye, eye, np.diag([0.0, 1.0]), wmin, norm - wmin, 1.0, 0.0),
    )
    verdicts = []
    for call in calls:
        try:
            call()
        except linalg.IndefiniteMatrixError:
            verdicts.append(False)
        else:
            verdicts.append(True)
    assert verdicts == [psd] * len(calls)


@pytest.mark.parametrize(
    "a3, params, ok",
    [
        # the sum of the denominators, (alpha1 + alpha2) I + (beta1 + beta2) A3,
        # is I - A3 / 2 here: its smallest eigenvalue is at A3's largest
        (np.diag([0.0, 1.0]), (1.0, -1.0, 0.0, 0.5), True),
        # I - A3 and 0 share the null vector e2
        (np.diag([0.0, 1.0]), (1.0, -1.0, 0.0, 0.0), False),
        # A3 and A3 / 2 of A3 = diag(0, 2) share the null vector e1
        (np.diag([0.0, 2.0]), (0.0, 1.0, 0.0, 0.5), False),
    ],
)
def test_common_null_check_reads_a3_spectrum(a3, params, ok):
    eye = np.eye(2)
    assert srq2.Srq2Problem(eye, eye, a3, *params).common_null_ok is ok


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
        p = srq2._point(problem, x)
        if min(p.d1, p.d2) < 0.2:
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
    assert cand.source == srq2.SOURCE_NONDIFF_1
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


def test_solve_rejects_negative_restarts():
    with pytest.raises(ValueError, match="restarts"):
        srq2.solve(example_problem(), restarts=-3)


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


def test_solver_and_oracle_share_one_quotient_rule():
    # srq2.objective (one point at a time) and the oracle's _batch_objective
    # (a column per point) at random points, the 0/0 candidates and points
    # supported on null(A3) or on range(A3), where a denominator vanishes
    rng = np.random.default_rng(31)
    zero_over_zero = infinite = 0
    for template in srq2.PATTERN_TEMPLATES:
        for n in (3, 5, 8):
            problem = srq2.random_problem(n, rng, template, rank_deficient=True)
            mask = np.diag(problem.a3).real
            cols = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(8)]
            cols += [c.x for c in srq2.nondiff_candidates(problem)]
            for support in (mask == 0.0, mask == 1.0):
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                cols.append(np.where(support, z, 0.0))
            X = np.column_stack([linalg.normalize(c) for c in cols])
            batch = srq2._batch_objective(problem, X)
            for x, want in zip(X.T.copy(), batch):
                got = srq2.objective(problem, x)
                p = srq2._point(problem, x)
                if math.isinf(want):
                    assert got == want and not p.smooth, (template, n, got)
                    infinite += 1
                    continue
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (template, n)
                if not p.smooth:
                    # a 0/0 quotient contributes exactly 0 to the other one
                    pairs = ((p.q1, p.d1, problem.den_eps1), (p.q2, p.d2, problem.den_eps2))
                    assert got == sum(q / d for q, d, eps in pairs if d > eps), (template, n)
                    zero_over_zero += 1
    assert zero_over_zero > 0 and infinite > 0


@pytest.mark.parametrize(
    "x", [[np.nan, 1.0, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
)
@pytest.mark.parametrize(
    "entry",
    ["objective", "scf_solve", "nepv_residuals", "nepv_matrix", "rho", "optimality_certificate"],
)
def test_vector_entry_points_reject_malformed_x(entry, x):
    problem = srq2.random_problem(4, np.random.default_rng(0), "ABCP")
    triple = (problem.a1, problem.a2, problem.a3)
    params = (problem.alpha1, problem.beta1, problem.alpha2, problem.beta2)
    call = {
        "rho": lambda: jnr.rho(triple, x),
        "optimality_certificate": lambda: jnr.optimality_certificate(triple, params, x),
    }.get(entry, lambda: getattr(srq2, entry)(problem, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call()
    assert not isinstance(err.value, srq2.NondifferentiablePointError)


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
        if not (srq2._point(problem, x).smooth and math.isfinite(f) and t > 1e-18):
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
    problem = example_problem()
    sol = srq2.solve(problem, restarts=2, seed=0)
    assert sol.rel_residual <= 1e-10
    assert srq2.nepv_residuals(problem, sol.x).nepv_residual <= 1e-8
    assert np.linalg.norm(sol.x) == pytest.approx(1.0, abs=1e-12)
    assert sol.source in (srq2.SOURCE_SCF, srq2.SOURCE_NONDIFF_1, srq2.SOURCE_NONDIFF_2)


def _horizontal(x, u):
    """u without its components along x and i x (the phase orbit)."""
    return u - x * np.vdot(x, u)


def test_newton_matrix_matches_finite_difference_hessian():
    # as criterion 08 checks H(x) against the gradient: 2 E v, projected to
    # the horizontal space, is the Riemannian Hessian applied to v, i.e. the
    # derivative of the Riemannian gradient 2 (H(x) x - s x) along the
    # retraction normalize(x + t v)
    rng = np.random.default_rng(808)
    step = 1e-5

    def grad(problem, z):
        z = linalg.normalize(z)
        hz = srq2.nepv_matrix(problem, z) @ z
        return 2.0 * (hz - np.real(np.vdot(z, hz)) * z)

    worst = 0.0
    checked = 0
    while checked < 200:
        n = (2, 3, 4)[checked % 3]
        template = srq2.PATTERN_TEMPLATES[checked % len(srq2.PATTERN_TEMPLATES)]
        problem = srq2.random_problem(n, rng, template)
        x = linalg.normalize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        p = srq2._point(problem, x)
        if min(p.d1, p.d2) < 0.2:
            continue
        v = _horizontal(x, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        v /= np.linalg.norm(v)
        e = srq2._newton_matrix(problem, p, srq2.nepv_matrix(problem, x))
        ev = e @ np.concatenate((v.real, v.imag))
        analytic = _horizontal(x, 2.0 * (ev[:n] + 1j * ev[n:]))
        numeric = _horizontal(
            x, (grad(problem, x + step * v) - grad(problem, x - step * v)) / (2.0 * step)
        )
        worst = max(worst, float(np.linalg.norm(analytic - numeric)))
        checked += 1
    assert worst <= 1e-5


def test_newton_endgame_avoids_spurious_point():
    # starts next to the spurious stationary point, whose Rayleigh-quotient
    # residual is small but which pairs with the second eigenvalue of H(x):
    # Newton's method must not take over there and converge onto it
    problem = example_problem()
    x2 = linalg.normalize(X_STAR_2.astype(complex))
    rng = np.random.default_rng(202)
    for k in range(200):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x0 = x2 + 10.0 ** rng.uniform(-6.0, -1.0) * u / np.linalg.norm(u)
        sol = srq2.scf_solve(problem, x0)
        gap = srq2.nepv_residuals(problem, sol.x).smallest_eig_gap
        assert gap <= 1e-8, (k, gap)
        assert abs(np.vdot(sol.x, x2)) <= 0.99, k


def _downdate_cases(n, rng):
    """(H, x) pairs of order n: a generic spectrum, a repeated bottom
    eigenvalue, x orthogonal to the bottom eigenvector, and a diagonal H
    with a double bottom eigenvalue and x orthogonal to both of its
    eigenvectors, where the poles at zero gap are exact."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.sort(rng.uniform(-2.0, 2.0, n))
    x = linalg.normalize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    yield (q * w) @ q.conj().T, x
    if n == 1:
        return
    wr = w.copy()
    wr[1] = wr[0]
    yield (q * wr) @ q.conj().T, x
    h = (q * w) @ q.conj().T
    v0 = np.linalg.eigh(h)[1][:, 0]
    yield h, linalg.normalize(x - np.vdot(v0, x) * v0)
    if n > 2:
        xd = x.copy()
        xd[:2] = 0.0
        yield np.diag(wr).astype(complex), linalg.normalize(xd)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
def test_downdated_bottom_matches_eigh(n):
    # the secular solve of the shifted SCF proposal against a dense eigh of
    # H - sigma x x*, for sigma from 1e-8 to 1e8 times the spectral gap
    rng = np.random.default_rng(40 + n)
    checked = 0
    for h, x in _downdate_cases(n, rng):
        w, vecs = np.linalg.eigh(h)
        z = vecs.conj().T @ x
        positive = np.diff(w)[np.diff(w) > 1e-8]
        gap = float(positive[0]) if positive.size else 1.0
        norm = linalg.norm1(h)
        for sigma in gap * 10.0 ** np.arange(-8.0, 9.0):
            m = h - sigma * np.outer(x, x.conj())
            ref_w, ref_v = np.linalg.eigh(m)
            v = srq2._downdated_bottom(w, vecs, z, sigma)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
            scale = norm + sigma
            residual = float(np.linalg.norm(m @ v - ref_w[0] * v))
            assert residual <= 1e-12 * scale, (sigma, residual)
            if n == 1 or ref_w[1] - ref_w[0] > 1e-8 * scale:
                overlap = abs(np.vdot(ref_v[:, 0], v))
                assert overlap >= 1.0 - 1e-12, (sigma, 1.0 - overlap)
            checked += 1
    assert checked == 17 * (1 if n == 1 else 3 if n == 2 else 4)


def test_shifted_proposals_reuse_the_sweep_eigendecomposition(monkeypatch):
    # an n = 30 AP instance whose sweeps all need a level shift: the shifted
    # proposals come from the sweep's own eigh, so a run makes one eigh per
    # iteration at most (none on Newton steps), however many shifts it tries
    rng = np.random.default_rng(0)
    problem = srq2.random_problem(30, rng, "AP")
    x0 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    eigh = np.linalg.eigh
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sol = srq2.scf_solve(problem, x0)
    assert sol.converged
    assert sum(1 for sigma in sol.shifts_used if sigma > 0.0) >= 10
    assert len(sol.shifts_used) <= len(calls) <= sol.iterations, (len(calls), sol.iterations)


# The ABP quotient problem of a small backward-error case (r = n = 1, d = 0).
# Unshifted sweeps oscillate about its minimizer, their residual against w0
# falling by a factor of about 0.998 per sweep from 4.6e-3, just above the
# Newton switch.
_STALL_A1 = np.array(
    [
        [0.3966877599630467, 0.6223233106305479 - 0.6431207944206145j],
        [0.6223233106305479 + 0.6431207944206145j, 2.0189447217755707],
    ]
)
_STALL_A2 = np.array(
    [
        [1.2466326308382347, 0.2596218908985992 - 0.30016074522672603j],
        [0.2596218908985992 + 0.30016074522672603j, 0.12634034703786376],
    ]
)


def _recorded_solve(monkeypatch, problem, seed):
    """``solve(problem, restarts=5, seed=seed)`` and the SCF runs it made."""
    engine = srq2.scf_solve
    runs = []

    def recorded(*args, **kwargs):
        sol = engine(*args, **kwargs)
        runs.append(sol)
        return sol

    monkeypatch.setattr(srq2, "scf_solve", recorded)
    return srq2.solve(problem, restarts=5, seed=seed), runs


def test_stalled_sweeps_hand_over_to_newton(monkeypatch):
    # every run used to reach the 400-sweep cap at about 0.8025677; the
    # sweeps creep towards the minimizer with the residual against w0 just
    # above 1e-3 (||H||_1 + 1), and the Newton steps the gap term of the
    # switch lets in take the runs to the minimum
    problem = srq2.Srq2Problem(_STALL_A1, _STALL_A2, np.diag([0.0, 1.0]), 1.0, 0.0, 0.0, 1.0)
    sol, runs = _recorded_solve(monkeypatch, problem, 1739585356)
    assert len(runs) == 7
    assert all(r.converged and r.iterations < srq2._MAX_SWEEPS for r in runs), [
        (r.iterations, r.rel_residual) for r in runs
    ]
    assert sol.value == pytest.approx(0.8025486106411, abs=1e-12)
    assert sol.value <= srq2.brute_force_oracle(problem, 2000, seed=1) + 1e-12


# The BCP quotient problem of another small backward-error case (r = n = 1,
# d = 0), with eigengap w1 - w0 of about 3 at its minimizer.  Accepted
# sweeps alternate between two points with the residual against w0 at about
# 1.6e-3 (||H||_1 + 1), so the runs used to reach the 400-sweep cap at
# 1.0137777, 1.1e-5 above the minimum.
_CAPPED_A1 = np.array(
    [
        [1.3914107658602102, -0.011159945726480214 - 0.3515841574084059j],
        [-0.011159945726480214 + 0.3515841574084059j, 0.08892842226407496],
    ]
)
_CAPPED_A2 = np.array(
    [
        [0.6008031888236838, 0.9718223350190918 - 0.555562140239741j],
        [0.9718223350190918 + 0.555562140239741j, 2.0856879021616876],
    ]
)


@pytest.mark.parametrize("seed", [1055478841, 0, 1, 2, 3])
def test_creeping_sweeps_hand_over_to_newton_by_the_gap(monkeypatch, seed):
    problem = srq2.Srq2Problem(_CAPPED_A1, _CAPPED_A2, np.diag([0.0, 1.0]), 0.0, 1.0, 1.0, 0.0)
    sol, runs = _recorded_solve(monkeypatch, problem, seed)
    assert len(runs) == 7
    assert all(r.converged and r.iterations < srq2._MAX_SWEEPS for r in runs), [
        (r.iterations, r.rel_residual) for r in runs
    ]
    assert sol.value == pytest.approx(1.013766932563015, abs=1e-12)
    assert sol.value <= srq2.brute_force_oracle(problem, 2000, seed=1) + 1e-12


def _reference_scf(problem, x0, *, max_iter=400, tol=1e-10, max_shift_tries=40):
    """The level-shifted SCF loop without a Newton endgame, evaluating the
    objective and H(x) afresh at every trial point."""
    rng = np.random.default_rng(0x5CF5EED)

    def nudge(x):
        for attempt in range(40):
            if srq2._point(problem, x).smooth:
                return x
            d = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
            d = _horizontal(x, d)
            x = linalg.fix_phase(linalg.normalize(x + 1e-8 * 2.0**attempt * d / np.linalg.norm(d)))
        raise srq2.NondifferentiablePointError("no differentiable point nearby")

    def rel_residual(h, x):
        hx = h @ x
        s = float(np.real(np.vdot(x, hx)))
        return float(np.linalg.norm(hx - s * x)) / (linalg.norm1(h) + 1.0)

    x = nudge(linalg.fix_phase(linalg.normalize(np.asarray(x0, dtype=complex).ravel())))
    f = srq2.objective(problem, x)
    best_f, best_x = f, x
    shifts = []
    converged = False
    for k in range(max_iter + 1):
        h = srq2.nepv_matrix(problem, x)
        w, vecs = np.linalg.eigh(h)
        rel = rel_residual(h, x)
        if rel <= tol:
            converged = True
            break
        if k == max_iter:
            break
        delta = float(w[1] - w[0]) if w.size > 1 else 0.0
        if delta <= 1e-14:
            delta = max(1e-8, 1e-8 * linalg.norm1(h))
        accepted = False
        for t in range(max_shift_tries):
            sigma = 0.0 if t == 0 else 2.0**t * delta
            if t == 0:
                cand = vecs[:, 0]
            else:
                try:
                    cand = np.linalg.eigh(h - sigma * np.outer(x, x.conj()))[1][:, 0]
                except np.linalg.LinAlgError:
                    continue
            cand = linalg.fix_phase(cand)
            f_new = srq2.objective(problem, cand)
            if f_new < f - 1e-14:
                ok = True
            elif f_new <= f + 1e-12 * max(1.0, abs(f)):
                try:
                    ok = rel_residual(srq2.nepv_matrix(problem, cand), cand) < rel - 1e-14
                except srq2.NondifferentiablePointError:
                    ok = False
            else:
                ok = False
            if ok:
                shifts.append(sigma)
                nudged = nudge(cand)
                x = nudged
                f = f_new if nudged is cand else srq2.objective(problem, x)
                if f < best_f:
                    best_f, best_x = f, x
                accepted = True
                break
        if not accepted:
            break
    x = x if converged else best_x
    return srq2.Srq2Solution(
        x=x,
        value=srq2.objective(problem, x),
        rel_residual=srq2.nepv_residuals(problem, x).rel_residual,
        iterations=k,
        shifts_used=tuple(shifts),
        source=srq2.SOURCE_SCF,
        converged=converged,
    )


def test_scf_engine_never_worse_than_level_shifted_reference(monkeypatch):
    # 7 templates x n in {2, 3, 4, 8, 12}, every third instance rank
    # deficient, 5 random starts plus the single-quotient starts each.
    # Where the minimum is attained on the 0/0 set (a degenerate candidate
    # reaches the solve value) there is no smooth stationary point to
    # converge to: SCF runs heading there stall or hit the sweep cap, with
    # or without the Newton endgame, and only the value is compared.  This
    # corpus holds one such instance; every other run must converge.
    rng = np.random.default_rng(16)
    engine = srq2.scf_solve
    on_degenerate_set = 0
    k = 0
    for n in (2, 3, 4, 8, 12):
        for template in srq2.PATTERN_TEMPLATES:
            problem = srq2.random_problem(n, rng, template, rank_deficient=(k % 3 == 2))
            runs = []

            def recorded(*args, **kwargs):
                sol = engine(*args, **kwargs)
                runs.append(sol)
                return sol

            monkeypatch.setattr(srq2, "scf_solve", recorded)
            value = srq2.solve(problem, restarts=5, seed=k).value
            monkeypatch.setattr(srq2, "scf_solve", _reference_scf)
            reference = srq2.solve(problem, restarts=5, seed=k).value
            # a sum of PSD quotients is never negative: below 0 is rounding
            slack = 1e-12 * max(1.0, abs(reference))
            assert max(value, 0.0) <= max(reference, 0.0) + slack, (k, value, reference)
            degenerate = [c.value for c in srq2.nondiff_candidates(problem)]
            if degenerate and min(degenerate) <= value + 1e-12 * max(1.0, abs(value)):
                on_degenerate_set += 1
            else:
                assert len(runs) >= 5
                for sol in runs:
                    assert sol.converged and sol.iterations < 400, (k, sol.rel_residual)
            k += 1
    assert on_degenerate_set == 1


def _reference_corpus_instance(seed, index):
    """Instance ``index`` of the corpus of the reference test above, drawn
    from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    k = 0
    for n in (2, 3, 4, 8, 12):
        for template in srq2.PATTERN_TEMPLATES:
            problem = srq2.random_problem(n, rng, template, rank_deficient=(k % 3 == 2))
            if k == index:
                return problem
            k += 1
    raise IndexError(index)


@pytest.mark.parametrize("seed, index", [(5, 29), (11, 14), (13, 32), (35, 14)])
def test_minimum_on_zero_over_zero_set_is_not_negative(seed, index):
    # rank-deficient instances whose minimum 0 lies on the 0/0 set; a sum of
    # PSD quotients is never negative beyond rounding
    problem = _reference_corpus_instance(seed, index)
    assert srq2.solve(problem, restarts=5, seed=index).value >= -1e-12


def test_runs_stop_on_zero_over_zero_set(monkeypatch):
    # an ACP instance (n = 12) whose minimum is a degenerate candidate: the
    # runs stop where a sweep reaches the 0/0 set instead of sweeping on
    problem = _reference_corpus_instance(17, 32)
    best, runs = _recorded_solve(monkeypatch, problem, 32)
    assert len(runs) >= 5
    assert all(sol.iterations <= 5 for sol in runs), [sol.iterations for sol in runs]
    assert best.value == min(c.value for c in srq2.nondiff_candidates(problem))


def test_scf_start_on_zero_over_zero_set_is_returned_as_is():
    # at e2 the first quotient is 0/0 and the second is 1
    problem = srq2.Srq2Problem(
        np.diag([1.0, 0.0]), np.eye(2), np.diag([1.0, 0.0]), 0.0, 1.0, 1.0, 0.0
    )
    sol = srq2.scf_solve(problem, [0.0, 1.0])
    assert sol.value == 1.0
    assert not sol.converged
    assert sol.iterations == 0


def test_run_state_diagnostics_match_from_scratch(monkeypatch):
    # every run's value and relative residual come from its search's own
    # state; they must be what the public functions recompute at the
    # returned x, the residual NaN exactly where H(x) is undefined
    engine = srq2.scf_solve
    runs = []

    def recorded(*args, **kwargs):
        sol = engine(*args, **kwargs)
        runs.append(sol)
        return sol

    monkeypatch.setattr(srq2, "scf_solve", recorded)
    rng = np.random.default_rng(16)
    k = undefined = 0
    for template in srq2.PATTERN_TEMPLATES:
        for n in (2, 3, 4, 8, 12):
            for _ in range(3):
                problem = srq2.random_problem(n, rng, template, rank_deficient=(k % 3 == 2))
                runs.clear()
                srq2.solve(problem, restarts=5, seed=k)
                k += 1
                nondiff = srq2.nondiff_candidates(problem) if problem.common_null_ok else []
                for sol in runs + nondiff:
                    assert sol.value == srq2.objective(problem, sol.x)
                    try:
                        info = srq2.nepv_residuals(problem, sol.x)
                    except srq2.NondifferentiablePointError:
                        assert math.isnan(sol.rel_residual)
                        undefined += 1
                        continue
                    tol = 1e-13 * (info.norm1 + 1.0)
                    got, want = sol.rel_residual, info.rel_residual
                    assert abs(got - want) <= tol, (template, n, got, want)
    assert undefined > 0
