"""Backward errors across all perturbation patterns: dispatch, closed-form
and oracle cross-checks, feasibility witnesses, reconstruction, and the
from-scratch certificates."""

import importlib
import math

import numpy as np
import pytest

from rosen_bkerr import jnr, linalg, srq2
from rosen_bkerr.backward_error import (
    ROUTES,
    BackwardErrorResult,
    PerturbationPattern,
    all_patterns,
    backward_error,
    certify,
    reconstruct_perturbation,
    srq2_problem_for,
)
from rosen_bkerr.rosenbrock import ErrorMatrices, RosenbrockSystem, assemble_error_matrices
from support import (
    X_STAR_1,
    direct_backward_error,
    example_problem,
    random_system,
    refined_eigenvalues,
    tiny_coupling_system,
)

from dataclasses import replace


# ---------------------------------------------------------------------------
# Pattern bookkeeping.


def test_pattern_canonical_spelling():
    p = PerturbationPattern.from_string("PCA")
    assert p.letters == "ACP"
    assert str(p) == "ACP"
    assert "C" in p
    assert "B" not in p


def test_pattern_validation():
    with pytest.raises(ValueError):
        PerturbationPattern.from_string("AQ")
    with pytest.raises(ValueError):
        PerturbationPattern.from_string("")


def test_all_patterns_enumeration():
    pats = all_patterns()
    assert len(pats) == 15
    spellings = [p.letters for p in pats]
    assert spellings == sorted(set(spellings), key=lambda s: (len(s), s))
    assert spellings[0] == "A"
    assert spellings[-1] == "ABCP"
    full = pats[-1]
    assert all(p.issubset(full) for p in pats)


def test_system_delta_norm_and_transpose():
    delta = RosenbrockSystem(
        A=[[1.0]],
        B=[[2.0, 0.0]],
        C=[[0.0], [2.0]],
        poly_coeffs=([[1.0, 0.0], [0.0, 1.0]],),
    )
    assert delta.norm() == pytest.approx(math.sqrt(1 + 4 + 4 + 2))
    t = delta.transpose()
    assert np.allclose(t.B, delta.C.T)
    assert np.allclose(t.C, delta.B.T)
    back = t.transpose()
    assert np.allclose(back.A, delta.A)


def test_system_delta_subtract():
    rng = np.random.default_rng(0)
    system = random_system(rng, r=2, n=2, d=1)
    delta = system - system
    same = system - delta
    assert np.allclose(same.evaluate(1.0), system.evaluate(1.0))


def test_srq2_problem_for_full_pattern_weights():
    rng = np.random.default_rng(1)
    system = random_system(rng, r=2, n=2, d=1)
    em = assemble_error_matrices(system, 2.0)
    problem = srq2_problem_for(system, 2.0, "ABCP")
    assert problem.alpha1 == 1.0 and problem.beta1 == 0.0
    assert problem.alpha2 == 1.0
    assert problem.beta2 == pytest.approx(em.gamma - 1.0)
    assert np.allclose(problem.a3, em.h2)
    with pytest.raises(ValueError):
        srq2_problem_for(system, 2.0, "A")


# ---------------------------------------------------------------------------
# Scalar golden case: every block is 1 x 1 or 1 x 1-adjacent, where the full
# pattern coincides with the unstructured distance sigma_min(S(lambda)).


def test_scalar_full_pattern_matches_sigma_min():
    system = RosenbrockSystem(A=[[0.0]], B=[[1.0]], C=[[1.0]], poly_coeffs=([[0.0]],))
    lam = 1.0
    # gamma = 1 at degree 0, so the objective is exactly ||S(lam) x||^2
    expect = linalg.smallest_singular_value(system.evaluate(lam))
    result = backward_error(system, lam, "ABCP", restarts=4)
    assert result.eta == pytest.approx(expect, abs=1e-10)
    assert result.eta == pytest.approx(math.sqrt((3.0 - math.sqrt(5.0)) / 2.0), abs=1e-10)
    assert result.converged
    assert result.certificate is not None and result.certificate.passed
    delta = result.perturbation
    assert delta is not None
    assert delta.norm() == pytest.approx(result.eta, rel=1e-10)
    perturbed = (system - delta).evaluate(lam)
    assert linalg.smallest_singular_value(perturbed) < 1e-12


def test_full_pattern_bounded_by_sigma_min():
    # the weighted denominator never falls below 1, so eta <= sigma_min
    rng = np.random.default_rng(2)
    for r, n, d in ((2, 2, 1), (1, 3, 2)):
        system = random_system(rng, r, n, d)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        result = backward_error(system, lam, "ABCP", restarts=3)
        smin = linalg.smallest_singular_value(system.evaluate(lam))
        assert result.eta <= smin + 1e-8


# ---------------------------------------------------------------------------
# Zero backward error at true eigenvalues.


def test_eta_zero_at_eigenvalues_for_every_pattern():
    rng = np.random.default_rng(3)
    system = random_system(rng, r=2, n=2, d=1)
    eigs = refined_eigenvalues(system, max_count=2)
    assert len(eigs) > 0
    for lam in eigs:
        for pattern in all_patterns():
            result = backward_error(system, lam, pattern, restarts=2)
            assert result.eta <= 1e-8, (pattern.letters, result.eta)
    # at the gate the zero perturbation is returned with a passing check
    result = backward_error(system, eigs[0], "ABCP")
    if result.method == "zero_eigenvalue":
        assert result.perturbation is not None
        assert result.perturbation.norm() == 0.0
        assert result.certificate.passed


_FLAG_SYSTEM = random_system(np.random.default_rng(3), r=2, n=2, d=1)


@pytest.mark.parametrize("flags", [{"restarts": -1}, {"seed": -1}])
@pytest.mark.parametrize("pattern", [p.letters for p in all_patterns()])
def test_negative_solver_flags_are_rejected_on_every_route(pattern, flags):
    # pencil routes and the zero gate never reach srq2.solve, and a
    # negative seed would reach numpy's generator; every route rejects both
    # flags by name at entry, the zero gate included
    (name,) = flags
    for lam in (0.3 + 0.4j, refined_eigenvalues(_FLAG_SYSTEM, max_count=1)[0]):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            backward_error(_FLAG_SYSTEM, lam, pattern, **flags)


# ---------------------------------------------------------------------------
# Certificates across patterns and shapes.


@pytest.mark.parametrize("shape", [(2, 3, 1), (3, 2, 2)])
def test_certificates_pass_on_random_system(shape):
    r, n, d = shape
    rng = np.random.default_rng(10 * r + n)
    system = random_system(rng, r, n, d)
    lam = 0.4 - 0.6j
    for pattern in all_patterns():
        result = backward_error(system, lam, pattern, restarts=3)
        if not math.isfinite(result.eta):
            continue
        assert result.converged, pattern.letters
        cert = result.certificate
        assert cert is not None and cert.passed, (
            pattern.letters,
            None if cert is None else [(c.name, c.value, c.bound) for c in cert.checks],
        )
        assert cert.delta_norm == pytest.approx(result.eta, rel=1e-9, abs=1e-12)
        assert cert.sigma_min_perturbed <= 1e-8 * max(
            1.0, linalg.norm1(system.evaluate(lam))
        )


@pytest.mark.parametrize("shape", [(60, 60, 2), (10, 100, 1)])
def test_pencil_certificates_pass_on_size_ladder(shape):
    """Every pencil pattern certifies at the large sizes of the ladder: the
    returned eta is the value its minimizer attains, so the rebuilt
    perturbation matches it in norm.  The seven SRQ2 patterns pass here too
    but take about 17 s on these inputs, so only the pencil routes run."""
    r, n, d = shape
    pencil = [letters for letters, route in ROUTES.items() if route.kind == "pencil"]
    assert len(pencil) == 8
    for seed in range(5):
        rng = np.random.default_rng(seed)
        system = random_system(rng, r, n, d)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for letters in pencil:
            result = backward_error(system, lam, letters)
            cert = result.certificate
            assert math.isfinite(result.eta) and cert is not None, (seed, letters)
            assert cert.passed, (
                seed,
                letters,
                [(c.name, c.value, c.bound) for c in cert.checks],
            )


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e6, 1e200, 1e300])
def test_certify_and_reconstruction_ignore_the_scale_of_x(c):
    # squaring x unscaled overflows or underflows at all c but 1e6, where a
    # pencil residual read at the unnormalized x would miss its bound
    system = random_system(np.random.default_rng(0), 3, 4, 1)
    for letters in ("A", "B", "CP", "AB", "ABCP"):
        result = backward_error(system, 0.3 + 0.4j, letters)
        assert result.certificate.passed, letters
        norm = result.certificate.delta_norm
        delta = reconstruct_perturbation(system, result.lam, letters, c * result.x)
        assert delta.norm() == pytest.approx(norm, rel=1e-12), letters
        cert = certify(system, replace(result, x=c * result.x))
        assert cert.passed, (letters, [(k.name, k.value, k.bound) for k in cert.checks])
        assert cert.delta_norm == pytest.approx(norm, rel=1e-12), letters


def test_certify_rejects_corrupted_minimizer():
    rng = np.random.default_rng(6)
    system = random_system(rng, r=2, n=2, d=1)
    result = backward_error(system, 0.3 + 0.1j, "ABCP", restarts=3)
    assert result.certificate.passed
    bad = linalg.normalize(
        rng.standard_normal(4) + 1j * rng.standard_normal(4)
    )
    tampered = replace(result, x=bad)
    cert = certify(system, tampered)
    assert not cert.passed


def test_certify_reports_an_infeasible_minimizer():
    rng = np.random.default_rng(9)
    system = random_system(rng, r=2, n=2, d=1)
    result = backward_error(system, 0.7, "A")
    assert result.certificate.passed
    # a random x leaves the frozen second block row unresolved for pattern A
    bad = linalg.normalize(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    cert = certify(system, replace(result, x=bad))
    assert cert.failure is not None
    assert not cert.passed
    assert cert.perturbation is None
    assert math.isnan(cert.delta_norm)


SPURIOUS_SYSTEM = random_system(np.random.default_rng(0), 2, 3, 1)
SPURIOUS_LAMBDA = 0.3 + 0.4j


def _spurious_point(problem):
    """A stationary point of ``problem``'s quotient sum that pairs with a
    higher eigenvalue of H(x) than the smallest: a seeded start moved by
    plain Riemannian Newton steps, with no descent safeguard."""
    n = problem.n
    rng = np.random.default_rng(100)
    x = linalg.normalize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    p = srq2._point(problem, x)
    for _ in range(30):
        res = srq2._residual(problem, p)
        c = srq2._real(np.column_stack((p.x, 1j * p.x)))
        kkt = np.block([[srq2._newton_matrix(problem, p, res.h), c], [c.T, np.zeros((2, 2))]])
        rhs = np.concatenate((-srq2._real(res.hx - res.s * p.x), np.zeros(2)))
        v = np.linalg.solve(kkt, rhs)
        x = linalg.fix_phase(linalg.normalize(p.x + v[:n] + 1j * v[n : 2 * n]))
        p = srq2._point(problem, x)
    info = srq2.nepv_residuals(problem, p.x)
    assert info.rel_residual <= 1e-15 and info.smallest_eig_gap > 1.0
    return p


@pytest.mark.parametrize("letters", ["ABC", "ABP", "BCP", "ABCP"])
def test_certify_rejects_a_stationary_point_off_the_bottom_of_the_spectrum(letters):
    # a stationary point whose Rayleigh quotient s is not lambda_min(H(x))
    # meets every other check: the perturbation it rebuilds is exact and
    # matches its own (too large) eta; only the aufbau check rejects it
    p = _spurious_point(srq2_problem_for(SPURIOUS_SYSTEM, SPURIOUS_LAMBDA, letters))
    best = backward_error(SPURIOUS_SYSTEM, SPURIOUS_LAMBDA, letters)
    assert best.certificate.passed
    assert p.value > 2.0 * best.eta**2
    cert = certify(SPURIOUS_SYSTEM, replace(best, x=p.x, eta=math.sqrt(p.value)))
    assert not cert.passed
    failed = [c.name for c in cert.checks if not c.passed]
    assert failed == ["aufbau gap s - lambda_min(H)"]


@pytest.mark.parametrize("letters", ["ABC", "ABP", "BCP", "ABCP"])
def test_solve_leaves_a_winner_off_the_bottom_of_the_spectrum(letters, monkeypatch):
    # every SCF run starts on the spurious point; no global minimizer is
    # there, and each run leaves it by itself, by a sweep from the bottom
    # eigenvector of H(x), and ends on an aufbau point: solve makes no run
    # of its own.  Both single-quotient runs land on one point, so they
    # agree and the random starts are skipped
    problem = srq2_problem_for(SPURIOUS_SYSTEM, SPURIOUS_LAMBDA, letters)
    spurious = _spurious_point(problem)
    minimum = srq2.solve(problem)
    engine = srq2.scf_solve
    runs = []

    def stuck(quotient, x0):
        runs.append(engine(quotient, spurious.x))
        return runs[-1]

    monkeypatch.setattr(srq2, "scf_solve", stuck)
    sol = srq2.solve(problem)
    assert len(runs) == 2
    for run in runs:
        info = srq2.nepv_residuals(problem, run.x)
        assert info.smallest_eig_gap <= info.aufbau_bound, (run.value, run.converged)
    assert sol.value == pytest.approx(minimum.value, rel=1e-10)
    info = srq2.nepv_residuals(problem, sol.x)
    assert info.smallest_eig_gap <= info.aufbau_bound


def _random_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_one_converged_single_quotient_run_does_not_skip_the_random_starts(monkeypatch):
    # AP has one single-quotient start here, and its run converges to an
    # aufbau point of value 1.1249 against the minimum 1.0399 (eta 1.0606
    # against 1.0198); only the random starts find the minimum
    system = random_system(np.random.default_rng(79), 4, 6, 1)
    engine = srq2.scf_solve
    runs = []

    def recorded(*args, **kwargs):
        runs.append(engine(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(srq2, "scf_solve", recorded)
    result = backward_error(system, 0.3 + 0.4j, "AP", restarts=5, seed=79)
    assert result.eta == pytest.approx(1.0197538494312088, rel=1e-12)
    assert result.certificate.passed
    assert len(runs) == 6


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "shape", [(1, 1, 0), (1, 2, 0), (2, 3, 1), (3, 2, 2), (3, 4, 0), (4, 6, 1)]
)
def test_eta_invariant_under_unitary_block_equivalence(shape, seed):
    # S(lam) -> diag(U, V) S(lam) diag(U*, W) maps each block to itself and
    # keeps every block's Frobenius norm, so eta is unchanged on all patterns
    r, n, d = shape
    rng = np.random.default_rng([seed, *shape])
    system = random_system(rng, r, n, d)
    u, v, w = _random_unitary(rng, r), _random_unitary(rng, n), _random_unitary(rng, n)
    moved = RosenbrockSystem(
        u @ system.A @ u.conj().T,
        u @ system.B @ w,
        v @ system.C @ u.conj().T,
        tuple(v @ c @ w for c in system.poly_coeffs),
    )
    lam = 0.3 + 0.4j
    for pattern in all_patterns():
        before = backward_error(system, lam, pattern, restarts=3)
        after = backward_error(moved, lam, pattern, restarts=3)
        assert after.eta == pytest.approx(before.eta, rel=1e-8), pattern.letters
        for result in (before, after):
            assert result.certificate.passed, (
                pattern.letters,
                [(c.name, c.value, c.bound) for c in result.certificate.checks],
            )


# ---------------------------------------------------------------------------
# Monotonicity in the pattern.


def test_eta_monotone_under_pattern_inclusion():
    rng = np.random.default_rng(7)
    system = random_system(rng, r=2, n=2, d=1)
    lam = -0.2 + 0.8j
    values = {
        p.letters: backward_error(system, lam, p, restarts=3).eta for p in all_patterns()
    }
    for small in values:
        for big in values:
            if set(small) <= set(big):
                assert values[big] <= values[small] + 1e-8, (small, big)


# ---------------------------------------------------------------------------
# Transposed patterns against from-scratch sampled references.


@pytest.mark.parametrize("letters", ["C", "AC", "BP", "ACP"])
def test_transposed_patterns_match_direct_formulation(letters):
    rng = np.random.default_rng(sum(map(ord, letters)))
    system = random_system(rng, r=2, n=2, d=1)
    lam = 0.5 + 0.3j
    result = backward_error(system, lam, letters, restarts=4)
    assert result.transposed
    reference = direct_backward_error(system, lam, letters, budget=4000, seed=1)
    assert result.eta == pytest.approx(reference, abs=1e-6)
    # reconstruction acts on the original system even though the minimizer
    # belongs to the transposed problem
    delta = result.perturbation
    assert delta is not None
    assert delta.norm() == pytest.approx(result.eta, rel=1e-9, abs=1e-12)
    perturbed = (system - delta).evaluate(lam)
    assert linalg.smallest_singular_value(perturbed) <= 1e-8 * max(
        1.0, linalg.norm1(system.evaluate(lam))
    )
    outside = set("ABCP") - set(letters)
    blocks = {"A": delta.A, "B": delta.B, "C": delta.C}
    for letter in outside:
        if letter == "P":
            assert all(np.linalg.norm(m) == 0.0 for m in delta.poly_coeffs)
        else:
            assert np.linalg.norm(blocks[letter]) == 0.0


# ---------------------------------------------------------------------------
# Infeasibility witnesses.


def _infeasible_a_system():
    return RosenbrockSystem(
        A=[[5.0]],
        B=[[1.0, 0.0]],
        C=[[1.0], [0.0]],
        poly_coeffs=(np.diag([0.0, 1.0]),),
    )


def test_pattern_a_infeasible_with_witness():
    system = _infeasible_a_system()
    result = backward_error(system, 0.0, "A")
    assert result.eta == math.inf
    assert result.x is None
    assert result.perturbation is None
    assert "H1" in result.infeasibility_witness


def test_pattern_b_feasible_on_same_system():
    result = backward_error(_infeasible_a_system(), 0.0, "B")
    assert result.eta == pytest.approx(1.0, abs=1e-12)
    assert result.certificate.passed


def test_transposed_infeasibility_witness_is_labelled():
    system = _infeasible_a_system().transpose()
    result = backward_error(system, 0.0, "A")
    # A maps to itself under transposition only through the direct case, so
    # force the transposed route through C on the transposed system
    assert result.eta == math.inf
    result_c = backward_error(system, 0.0, "C")
    assert math.isfinite(result_c.eta) or result_c.infeasibility_witness


def test_transposed_pencil_witness_names_the_transpose():
    # the transpose's second block row is [B^T, P] = [0, I], whose null
    # vectors have no trailing part, so pattern C (pattern B on the
    # transpose) has V*H2V = 0
    system = RosenbrockSystem(
        A=[[5.0]], B=np.zeros((1, 2)), C=[[1.0], [2.0]], poly_coeffs=(np.eye(2),)
    )
    result = backward_error(system, 0.0, "C")
    assert result.method == "transposed_pencil"
    assert result.eta == math.inf
    assert result.infeasibility_witness == "transposed system: V*H2V = 0"


@pytest.mark.parametrize(
    "pattern, block, witness",
    [("B", "C", "V*H2V = 0"), ("C", "B", "transposed system: V*H2V = 0")],
)
def test_numerically_zero_pencil_rhs_is_infeasible(pattern, block, witness):
    # V*H2V has a 1-norm of about 3.5e-11 here, every eigenvalue below the kernel's
    # null-space threshold: the kernel's "numerically zero" is the witness
    result = backward_error(tiny_coupling_system(block), 0.3 + 0.4j, pattern)
    assert result.eta == math.inf
    assert result.x is None
    assert result.infeasibility_witness == witness


# ---------------------------------------------------------------------------
# Reconstruction contract.


def test_reconstruct_infeasible_point_raises():
    rng = np.random.default_rng(9)
    system = random_system(rng, r=2, n=2, d=1)
    x = linalg.normalize(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    # a random x leaves the frozen second block row unresolved for pattern A
    from rosen_bkerr.backward_error import ReconstructionError

    with pytest.raises(ReconstructionError):
        reconstruct_perturbation(system, 0.7, "A", x)


@pytest.mark.parametrize("shape, seed", [((2, 3, 1), 21), ((3, 2, 2), 22), ((1, 2, 0), 23)])
def test_reconstruction_rows_are_minimal_maps(shape, seed):
    # Each block row of S(lam) x is cancelled by the maps on its open blocks,
    # whose joint Frobenius norm is the minimum ||rhs|| / ||v||, v the open
    # coordinates; the frozen blocks stay exactly zero.  Checked in the frame
    # the route solves in: the transposed system for transposed patterns.
    rng = np.random.default_rng(seed)
    system = random_system(rng, *shape)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    r, n, d = system.r, system.n, system.d
    for pattern in all_patterns():
        result = backward_error(system, lam, pattern, restarts=3)
        assert math.isfinite(result.eta), pattern
        delta = reconstruct_perturbation(system, lam, pattern, result.x)
        route = ROUTES[pattern.letters]
        frame, delta = (
            (system.transpose(), delta.transpose()) if route.transposed else (system, delta)
        )
        x = linalg.normalize(result.x)
        s_mat = frame.evaluate(lam)
        trailing = np.concatenate([lam**j * x[r:] for j in range(d + 1)])
        rows = (
            (s_mat[:r] @ x, {"A": (delta.A, x[:r]), "B": (delta.B, x[r:])}),
            (s_mat[r:] @ x, {"C": (delta.C, x[:r]), "P": (np.hstack(delta.poly_coeffs), trailing)}),
        )
        for rhs, blocks in rows:
            opened = [k for k in blocks if k in route.inner]
            for k in blocks:
                if k not in opened:
                    assert not blocks[k][0].any(), (pattern, k)
            if not opened:
                continue
            got = sum(m @ part for m, part in blocks.values())
            assert np.linalg.norm(got - rhs) <= 1e-12 * np.linalg.norm(rhs), pattern
            v = np.concatenate([blocks[k][1] for k in opened])
            joint = math.sqrt(sum(np.linalg.norm(blocks[k][0]) ** 2 for k in opened))
            assert joint == pytest.approx(np.linalg.norm(rhs) / np.linalg.norm(v), rel=1e-12)


def test_reconstruct_tolerance_reads_the_input_norm():
    # One heavy column: ||S||_1 = 200.3 > ||S||_inf = 102.3 at lam = 0.2.
    # Pattern C is pattern B on the transpose, whose frozen second block row
    # [B^T, P^T] must be annihilated by x to 1e-8 * ||S(lam)||_1, the scale of
    # the zero gate and the certificate, not to 1e-8 * ||S(lam)^T||_1.
    system = RosenbrockSystem(
        A=[[0.5]], B=[[1.0, 2.0]], C=[[100.0], [100.0]], poly_coeffs=([[1.0, 0.5], [0.3, 2.0]],)
    )
    lam = 0.2
    s_mat = system.evaluate(lam)
    norm_1, norm_inf = np.linalg.norm(s_mat, 1), np.linalg.norm(s_mat, np.inf)
    frozen = s_mat.T[1:]
    _, _, vh = np.linalg.svd(frozen)
    away = vh[0].conj() / np.linalg.norm(frozen @ vh[0].conj())
    x = linalg.normalize(vh[2].conj() + 1.5e-6 * away)
    residual = np.linalg.norm(frozen @ x)
    assert 1e-8 * norm_inf < residual < 1e-8 * norm_1
    delta = reconstruct_perturbation(system, lam, "C", x)
    assert np.linalg.norm(delta.A) == np.linalg.norm(delta.B) == 0.0
    assert all(np.linalg.norm(m) == 0.0 for m in delta.poly_coeffs)
    assert np.linalg.norm(delta.C) > 0.0


def _overflowing_gamma_system():
    # S(1e100) and its Gram matrices are finite; gamma = 1 + 1e200 + 1e400 is not
    rng = np.random.default_rng(0)
    A, B, C, P0, P1 = (rng.standard_normal((2, 2)) for _ in range(5))
    return RosenbrockSystem(A, B, C, (P0, P1, 1e-250 * rng.standard_normal((2, 2))))


@pytest.mark.parametrize("call", ["backward_error", "srq2_problem_for", "certify"])
def test_overflowing_gamma_is_a_value_error(call):
    system, lam = _overflowing_gamma_system(), 1e100
    s_mat = system.evaluate(lam)
    assert np.all(np.isfinite(s_mat)) and np.all(np.isfinite(s_mat.conj().T @ s_mat))
    with pytest.raises(ValueError, match="gamma"):
        if call == "backward_error":
            backward_error(system, lam, "A")
        elif call == "srq2_problem_for":
            srq2_problem_for(system, lam, "BC")
        else:
            pattern = PerturbationPattern.from_string("ABCP")
            certify(system, BackwardErrorResult(1.0, np.ones(4), "srq2", pattern, lam))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_shift_is_rejected_by_name(lam, d):
    # rejected before gamma is formed: no overflow message, no numpy warning
    system = random_system(np.random.default_rng(3), r=2, n=3, d=d)
    with pytest.raises(ValueError, match=r"the shift lam = .* is not finite"):
        backward_error(system, lam, "A")
    with pytest.raises(ValueError, match=r"the shift lam = .* is not finite"):
        srq2_problem_for(system, lam, "BC")


def test_reconstruct_supports_only_pattern_blocks():
    rng = np.random.default_rng(12)
    system = random_system(rng, r=2, n=2, d=1)
    result = backward_error(system, 0.9 + 0.2j, "BC", restarts=3)
    delta = result.perturbation
    assert np.linalg.norm(delta.A) == 0.0
    assert all(np.linalg.norm(m) == 0.0 for m in delta.poly_coeffs)
    assert np.linalg.norm(delta.B) > 0.0
    assert np.linalg.norm(delta.C) > 0.0


def test_pencil_route_solver_field_empty():
    rng = np.random.default_rng(13)
    system = random_system(rng, r=2, n=3, d=1)
    result = backward_error(system, 0.2, "AB")
    assert result.method == "pencil"
    assert result.solver is None
    assert result.certificate.passed
    result2 = backward_error(system, 0.2, "ABCP", restarts=2)
    assert result2.method == "srq2"
    assert result2.solver is not None
    assert result2.solver.converged


# ---------------------------------------------------------------------------
# The route table is the single pattern-to-route map.


_be = importlib.import_module("rosen_bkerr.backward_error")


class _FixedUniform:
    """A Generator stand-in whose ``uniform`` draw is fixed, which pins the
    gamma that ``srq2.random_problem`` draws."""

    def __init__(self, rng, value):
        self._rng, self._value = rng, value

    def uniform(self, *args, **kwargs):
        return self._value

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("letters", [p.letters for p in all_patterns()])
def test_route_table_entry_matches_result(letters, monkeypatch):
    route = ROUTES[letters]
    if route.transposed:
        assert route == replace(ROUTES[route.inner], transposed=True)
    else:
        assert route.inner == letters
    rng = np.random.default_rng(21)
    system = random_system(rng, r=2, n=3, d=1)
    lam = 0.3 + 0.4j
    s_mat = system.evaluate(lam)
    gates, certificates, row_maps = [], [], []
    smallest_singular_value, certify_fn = linalg.smallest_singular_value, _be.certify
    row_maps_fn = _be._row_maps

    def counting_smin(m):
        m = np.asarray(m)
        if np.array_equal(m, s_mat) or np.array_equal(m, s_mat.T):
            gates.append(m)
        return smallest_singular_value(m)

    def counting_certify(*args, **kwargs):
        certificates.append(args)
        return certify_fn(*args, **kwargs)

    def counting_row_maps(*args, **kwargs):
        row_maps.append(args)
        return row_maps_fn(*args, **kwargs)

    # the work per call: evaluations of S, transposes and Gram matrix builds
    work = {"evaluate": 0, "transpose": 0, "g1": 0, "g2": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            work[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linalg, "smallest_singular_value", counting_smin)
    monkeypatch.setattr(_be, "certify", counting_certify)
    monkeypatch.setattr(_be, "_row_maps", counting_row_maps)
    for name in ("evaluate", "transpose"):
        monkeypatch.setattr(RosenbrockSystem, name, counted(name, getattr(RosenbrockSystem, name)))
    for name in ("g1", "g2"):
        build = getattr(ErrorMatrices, name).fget
        monkeypatch.setattr(ErrorMatrices, name, property(counted(name, build)))
    result = _be.backward_error(system, lam, letters, restarts=2)
    assert result.method == (f"transposed_{route.kind}" if route.transposed else route.kind)
    assert result.transposed == route.transposed
    assert math.isfinite(result.eta) and result.certificate.passed
    # one zero gate on S(lambda) and one certificate, also for transposed routes
    assert len(gates) == 1
    assert len(certificates) == 1
    # one reconstruction (a map per block row), kept by the certificate
    assert len(row_maps) == 2
    assert result.perturbation is result.certificate.perturbation
    # S(lambda) three times (solve, certify, reconstruction) and the
    # perturbed system once; a transposed route transposes S(lambda), not
    # the system, and the system once, to map the perturbation back
    assert work["evaluate"] <= 4
    assert work["transpose"] <= 1 if route.transposed else work["transpose"] == 0
    assert work["g1"] <= 2 and work["g2"] <= 2
    # at an eigenvalue the zero gate decides: one view each in backward_error
    # and certify, and no Gram matrix and no transposed system
    eig = refined_eigenvalues(system)[0]
    work.update(dict.fromkeys(work, 0))
    assert _be.backward_error(system, eig, letters).method == "zero_eigenvalue"
    assert work["evaluate"] == 2 and work["g1"] == work["g2"] == 0
    assert work["transpose"] == 0


@pytest.mark.parametrize("d", [0, 1, 2])
def test_transposed_view_is_the_transposed_evaluation(d):
    system = random_system(np.random.default_rng(23), r=2, n=3, d=d)
    lam = 0.3 + 0.4j
    view = _be._shift(system, lam, "ACP")
    expected = system.transpose().evaluate(lam)
    assert view.em.s.tobytes() == expected.tobytes() and view.em.s.flags.c_contiguous
    assert not view.em.s.flags.writeable
    assert view.s.tobytes() == system.evaluate(lam).tobytes()
    assert view.scale == linalg.norm1(expected.T)


@pytest.mark.parametrize("letters", [p.letters for p in all_patterns()])
def test_route_scalar_pairs_match_random_problem(letters):
    route = ROUTES[letters]
    rng = np.random.default_rng(22)
    system = random_system(rng, r=2, n=2, d=1)
    lam = 1.5  # gamma = 1 + 1.5^2 = 3.25
    if route.kind != "srq2":
        with pytest.raises(ValueError):
            srq2_problem_for(system, lam, letters)
        return
    problem = srq2_problem_for(system, lam, letters)
    sampled = srq2.random_problem(4, _FixedUniform(rng, 2.25), route.inner)
    pairs = (problem.alpha1, problem.beta1, problem.alpha2, problem.beta2)
    assert pairs == (sampled.alpha1, sampled.beta1, sampled.alpha2, sampled.beta2)
    assert pairs == srq2.PATTERN_SCALARS[route.inner](3.25)


def test_array_holding_records_compare_by_identity():
    # equality is identity and hashing works: a field-wise __eq__ would
    # compare arrays and raise, and a field-wise __hash__ would hash them
    system = random_system(np.random.default_rng(3), 2, 3, 1)
    lam = 0.3 + 0.4j
    results = [backward_error(system, lam, p) for p in ("A", "AP")]
    problem = example_problem()
    triple = (problem.a1, problem.a2, problem.a3)
    params = (problem.alpha1, problem.beta1, problem.alpha2, problem.beta2)
    records = [
        system,
        assemble_error_matrices(system, lam),
        srq2_problem_for(system, lam, "AP"),
        results[1].solver,
        *results,
        jnr.boundary_sample(triple, jnr.direction_grid(2))[0],
        jnr.optimality_certificate(triple, params, X_STAR_1),
    ]
    assert backward_error(system, lam, "A") not in results
    assert len({*records, *records}) == len(records)
    for record in records:
        assert record == record
        assert record != replace(record)
