"""Backward errors across all perturbation patterns: dispatch, closed-form
and oracle cross-checks, feasibility witnesses, reconstruction, and the
from-scratch certificates."""

import importlib
import math

import numpy as np
import pytest

from rosen_bkerr import linalg, srq2
from rosen_bkerr.backward_error import (
    ROUTES,
    PerturbationPattern,
    SystemDelta,
    all_patterns,
    backward_error,
    certify,
    reconstruct_perturbation,
    srq2_problem_for,
)
from rosen_bkerr.rosenbrock import RosenbrockSystem, assemble_error_matrices
from support import direct_backward_error, random_system, refined_eigenvalues

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
    delta = SystemDelta(
        dA=[[1.0]],
        dB=[[2.0, 0.0]],
        dC=[[0.0], [2.0]],
        d_poly=([[1.0, 0.0], [0.0, 1.0]],),
    )
    assert delta.norm() == pytest.approx(math.sqrt(1 + 4 + 4 + 2))
    t = delta.transpose()
    assert np.allclose(t.dB, delta.dC.T)
    assert np.allclose(t.dC, delta.dB.T)
    back = t.transpose()
    assert np.allclose(back.dA, delta.dA)


def test_system_delta_subtract():
    rng = np.random.default_rng(0)
    system = random_system(rng, r=2, n=2, d=1)
    delta = SystemDelta.zero(2, 2, 1)
    same = delta.subtract_from(system)
    assert np.allclose(same.evaluate(1.0), system.evaluate(1.0))


def test_srq2_problem_for_full_pattern_weights():
    rng = np.random.default_rng(1)
    system = random_system(rng, r=2, n=2, d=1)
    em = assemble_error_matrices(system, 2.0)
    problem = srq2_problem_for("ABCP", em)
    assert problem.alpha1 == 1.0 and problem.beta1 == 0.0
    assert problem.alpha2 == 1.0
    assert problem.beta2 == pytest.approx(em.gamma - 1.0)
    assert np.allclose(problem.a3, em.h2)
    with pytest.raises(ValueError):
        srq2_problem_for("A", em)


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
    perturbed = delta.subtract_from(system).evaluate(lam)
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


def test_certify_rejects_corrupted_minimizer():
    rng = np.random.default_rng(6)
    system = random_system(rng, r=2, n=2, d=1)
    result = backward_error(system, 0.3 + 0.1j, "ABCP", restarts=3)
    assert result.certificate.passed
    bad = linalg.normalize(
        rng.standard_normal(4) + 1j * rng.standard_normal(4)
    )
    tampered = replace(result, x=bad)
    cert = certify(system, 0.3 + 0.1j, "ABCP", tampered)
    assert not cert.passed


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
    perturbed = delta.subtract_from(system).evaluate(lam)
    assert linalg.smallest_singular_value(perturbed) <= 1e-8 * max(
        1.0, linalg.norm1(system.evaluate(lam))
    )
    outside = set("ABCP") - set(letters)
    blocks = {"A": delta.dA, "B": delta.dB, "C": delta.dC}
    for letter in outside:
        if letter == "P":
            assert all(np.linalg.norm(m) == 0.0 for m in delta.d_poly)
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


def test_reconstruct_supports_only_pattern_blocks():
    rng = np.random.default_rng(12)
    system = random_system(rng, r=2, n=2, d=1)
    result = backward_error(system, 0.9 + 0.2j, "BC", restarts=3)
    delta = result.perturbation
    assert np.linalg.norm(delta.dA) == 0.0
    assert all(np.linalg.norm(m) == 0.0 for m in delta.d_poly)
    assert np.linalg.norm(delta.dB) > 0.0
    assert np.linalg.norm(delta.dC) > 0.0


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
    gates, certificates = [], []
    smallest_singular_value, certify_fn = linalg.smallest_singular_value, _be.certify

    def counting_smin(m):
        m = np.asarray(m)
        if np.array_equal(m, s_mat) or np.array_equal(m, s_mat.T):
            gates.append(m)
        return smallest_singular_value(m)

    def counting_certify(*args, **kwargs):
        certificates.append(args)
        return certify_fn(*args, **kwargs)

    monkeypatch.setattr(linalg, "smallest_singular_value", counting_smin)
    monkeypatch.setattr(_be, "certify", counting_certify)
    result = _be.backward_error(system, lam, letters, restarts=2)
    assert result.method == (f"transposed_{route.kind}" if route.transposed else route.kind)
    assert result.transposed == route.transposed
    assert math.isfinite(result.eta) and result.certificate.passed
    # one zero gate on S(lambda) and one certificate, also for transposed routes
    assert len(gates) == 1
    assert len(certificates) == 1


@pytest.mark.parametrize("letters", [p.letters for p in all_patterns()])
def test_route_scalar_pairs_match_random_problem(letters):
    route = ROUTES[letters]
    rng = np.random.default_rng(22)
    system = random_system(rng, r=2, n=2, d=1)
    em = assemble_error_matrices(system, 1.5)  # gamma = 1 + 1.5^2 = 3.25
    if route.kind != "srq2":
        with pytest.raises(ValueError):
            srq2_problem_for(route.inner, em)
        return
    problem = srq2_problem_for(route.inner, em)
    sampled = srq2.random_problem(4, _FixedUniform(rng, 2.25), route.inner)
    pairs = (problem.alpha1, problem.beta1, problem.alpha2, problem.beta2)
    assert pairs == (sampled.alpha1, sampled.beta1, sampled.alpha2, sampled.beta2)
    assert pairs == route.scalars(3.25)
