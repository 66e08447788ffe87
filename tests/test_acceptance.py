"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single [PASS]/[FAIL]
line, so a full run reads as a ten-line scorecard.  Budgets, tolerances and
corpus sizes are fixed here; the corpus fixtures are shared across the
backward-error criteria, and a few tests also enforce wall-clock budgets,
so this module dominates the suite's runtime.
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from rosen_bkerr import jnr, linalg, srq2
from rosen_bkerr.backward_error import all_patterns, backward_error
from rosen_bkerr.rosenbrock import RosenbrockSystem
from support import (
    EXAMPLE_A1,
    EXAMPLE_A2,
    EXAMPLE_A3,
    SOLVE_VALUE,
    X_STAR_2,
    Y_STAR_1,
    complex_normal,
    direct_backward_error,
    example_problem,
    random_system,
    refined_eigenvalues,
    system_eigenvalues,
)

TRIPLE = (EXAMPLE_A1, EXAMPLE_A2, EXAMPLE_A3)
G_PARAMS = (1.0, 0.0, 0.0, 1.0)


def _report(capsys, number: int, name: str, failures: list, detail: str = "") -> None:
    verdict = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{verdict}] criterion {number:02d}: {name}{suffix}")
    assert not failures, f"criterion {number:02d}: " + "; ".join(str(f) for f in failures)


# ---------------------------------------------------------------------------
# Shared corpus: 25 seeded systems with eigenvalues and non-eigenvalue
# shifts, plus all 15 pattern results at one shift per system.


class SystemCase(NamedTuple):
    system: RosenbrockSystem
    eigenvalues: list
    shifts: list


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(8180)
    cases = []
    for _ in range(25):
        r = int(rng.integers(1, 9))
        n = int(rng.integers(1, 13))
        d = int(rng.integers(0, 3))
        system = random_system(rng, r, n, d)
        eigs = refined_eigenvalues(system, max_count=2)
        shifts = []
        while len(shifts) < 6:
            lam = complex(rng.standard_normal(), rng.standard_normal())
            s = system.evaluate(lam)
            if linalg.smallest_singular_value(s) > 1e-6 * max(1.0, linalg.norm1(s)):
                shifts.append(lam)
        cases.append(SystemCase(system=system, eigenvalues=eigs, shifts=shifts))
    return cases


@pytest.fixture(scope="module")
def pattern_results(corpus):
    """All 15 pattern results per system at its first non-eigenvalue shift."""
    out = []
    for idx, case in enumerate(corpus):
        per = {}
        for pattern in all_patterns():
            per[pattern.letters] = backward_error(
                case.system, case.shifts[0], pattern, restarts=3, seed=idx
            )
        out.append(per)
    return out


@pytest.fixture(scope="module")
def eigenvalue_results(corpus):
    """All 15 pattern results at every refined eigenvalue of every system."""
    out = []
    for idx, case in enumerate(corpus):
        for lam in case.eigenvalues:
            for pattern in all_patterns():
                result = backward_error(case.system, lam, pattern, restarts=2, seed=idx)
                out.append((idx, lam, pattern.letters, result))
    return out


# ---------------------------------------------------------------------------
# Criteria.


def test_criterion_01_reference_minimizer(capsys):
    start = time.perf_counter()
    sol = srq2.solve(example_problem(), restarts=5, seed=0)
    elapsed = time.perf_counter() - start
    rho = jnr.rho(TRIPLE, sol.x)
    residual = srq2.nepv_residuals(example_problem(), sol.x).nepv_residual
    failures = []
    if not sol.converged:
        failures.append("solver did not converge")
    off = float(np.max(np.abs(rho - Y_STAR_1)))
    if off > 5e-2:
        failures.append(f"rho(x) misses the printed minimizer by {off:.2e} > 5e-2")
    if not residual <= 1e-9:
        failures.append(f"stationarity residual {residual:.2e} > 1e-9")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(
        capsys,
        1,
        "reference quotient problem reproduces the printed minimizer",
        failures,
        f"value {sol.value:.6f}, residual {residual:.1e}, {elapsed:.2f}s",
    )


def test_criterion_02_spurious_point_rejected(capsys):
    problem = example_problem()
    x2 = linalg.normalize(X_STAR_2.astype(complex))
    h = srq2.nepv_matrix(problem, x2)
    w = np.linalg.eigvalsh(h)
    s = float(np.real(np.vdot(x2, h @ x2)))
    info = srq2.nepv_residuals(problem, x2)
    sol = srq2.solve(problem, restarts=20, seed=0)
    overlap = abs(float(np.abs(np.vdot(sol.x, x2))))
    failures = []
    if abs(s - w[1]) > 1e-2:
        failures.append(f"|s - second eigenvalue| = {abs(s - w[1]):.2e} > 1e-2")
    if not info.nepv_residual >= 1e-2:
        failures.append(f"residual {info.nepv_residual:.2e} < 1e-2 at the spurious point")
    if overlap >= 0.9:
        failures.append(f"solver landed on the spurious point (overlap {overlap:.3f})")
    if abs(sol.value - SOLVE_VALUE) > 1e-8:
        failures.append(f"solver value {sol.value} drifted from {SOLVE_VALUE}")
    _report(
        capsys,
        2,
        "spurious stationary point is flagged and avoided",
        failures,
        f"residual there {info.nepv_residual:.2e}, overlap {overlap:.2f}",
    )


def test_criterion_03_solver_tracks_oracle(capsys):
    rng = np.random.default_rng(31415)
    start = time.perf_counter()
    per_n = {}
    undercuts = 0
    worst = 0.0
    for n in (2, 3, 4):
        within = 0
        for k in range(100):
            template = srq2.PATTERN_TEMPLATES[k % len(srq2.PATTERN_TEMPLATES)]
            problem = srq2.random_problem(n, rng, template)
            sol = srq2.solve(problem, restarts=4, seed=1000 * n + k)
            # the projected-gradient polish converges well before the library
            # defaults on these small instances; the lighter settings keep
            # the run inside its wall-clock budget without changing a digit
            oracle = srq2.brute_force_oracle(
                problem, 5000, seed=2000 * n + k, polish_steps=120, polish_top=256
            )
            if math.isinf(sol.value) and math.isinf(oracle):
                within += 1
                continue
            diff = sol.value - oracle
            worst = max(worst, abs(diff))
            if abs(diff) <= 1e-4:
                within += 1
            if diff < -1e-8:
                undercuts += 1
        per_n[n] = within
    elapsed = time.perf_counter() - start
    failures = []
    for n, within in per_n.items():
        if within < 95:
            failures.append(f"n={n}: only {within}/100 within 1e-4")
    if undercuts:
        failures.append(f"{undercuts} results undercut the oracle by more than 1e-8")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(
        capsys,
        3,
        "solver matches the sampled oracle on seeded corpora",
        failures,
        f"{sum(per_n.values())}/300 within 1e-4, worst gap {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_zero_at_eigenvalues_and_norm_bound(capsys, corpus, eigenvalue_results):
    failures = []
    checked = 0
    worst_eta = 0.0
    for idx, lam, letters, result in eigenvalue_results:
        checked += 1
        worst_eta = max(worst_eta, result.eta)
        if not result.eta <= 1e-8:
            failures.append(f"system {idx} pattern {letters}: eta {result.eta:.2e} at an eigenvalue")
    bound_checked = 0
    for idx, case in enumerate(corpus):
        bound = case.system.norm() + 1e-10
        for lam in case.shifts[1:6]:
            result = backward_error(case.system, lam, "ABCP", restarts=3, seed=idx)
            bound_checked += 1
            if not result.eta <= bound:
                failures.append(
                    f"system {idx}: eta(ABCP) = {result.eta:.3e} exceeds the norm bound {bound:.3e}"
                )
    _report(
        capsys,
        4,
        "backward error vanishes at eigenvalues and respects the norm bound",
        failures[:5],
        f"{checked} eigenvalue cases (max eta {worst_eta:.1e}), {bound_checked} bound cases",
    )


def test_criterion_05_pattern_monotonicity(capsys, pattern_results):
    failures = []
    compared = 0
    for idx, per in enumerate(pattern_results):
        for small, r_small in per.items():
            for big, r_big in per.items():
                if small == big or not set(small) <= set(big):
                    continue
                compared += 1
                if math.isinf(r_big.eta) and not math.isinf(r_small.eta):
                    failures.append(f"system {idx}: {big} infeasible but subset {small} is not")
                elif math.isfinite(r_big.eta) and math.isfinite(r_small.eta):
                    if not r_small.eta >= r_big.eta - 1e-8:
                        failures.append(
                            f"system {idx}: eta({small}) = {r_small.eta:.6e} < "
                            f"eta({big}) = {r_big.eta:.6e} - 1e-8"
                        )
    _report(
        capsys,
        5,
        "backward error is monotone under pattern inclusion",
        failures[:5],
        f"{compared} subset pairs",
    )


def test_criterion_06_reconstruction_attains_eta(capsys, corpus, pattern_results, eigenvalue_results):
    failures = []
    checked = 0
    pool = []
    for idx, per in enumerate(pattern_results):
        for letters, result in per.items():
            pool.append((idx, corpus[idx].shifts[0], letters, result))
    pool.extend(eigenvalue_results)
    for idx, lam, letters, result in pool:
        if not (math.isfinite(result.eta) and result.converged):
            continue
        checked += 1
        delta = result.perturbation
        if delta is None:
            failures.append(f"system {idx} pattern {letters}: no perturbation reconstructed")
            continue
        if result.eta > 0.0:
            rel = abs(delta.norm() - result.eta) / result.eta
        else:
            rel = abs(delta.norm())
        if rel > 1e-10:
            failures.append(
                f"system {idx} pattern {letters}: perturbation norm off by {rel:.2e} relative"
            )
        s_mat = corpus[idx].system.evaluate(lam)
        smin = linalg.smallest_singular_value(
            (corpus[idx].system - delta).evaluate(lam)
        )
        if not smin <= 1e-8 * max(1.0, linalg.norm1(s_mat)):
            failures.append(
                f"system {idx} pattern {letters}: perturbed sigma_min {smin:.2e} not annihilated"
            )
    _report(
        capsys,
        6,
        "reconstructed perturbations attain eta and annihilate the shift",
        failures[:5],
        f"{checked} finite converged results",
    )


def test_criterion_07_transpose_patterns_match_direct_forms(capsys):
    failures = []
    checked = 0
    specs = [(2, 2, 1, 0.5 + 0.3j), (1, 3, 0, -0.4 + 0.9j), (2, 2, 0, 0.8 - 0.2j)]
    for si, (r, n, d, lam) in enumerate(specs):
        rng = np.random.default_rng(700 + si)
        system = random_system(rng, r, n, d)
        for letters in ("C", "AC", "BP", "ACP"):
            result = backward_error(system, lam, letters, restarts=4, seed=si)
            reference = direct_backward_error(system, lam, letters, budget=6000, seed=si)
            checked += 1
            if math.isinf(result.eta) and math.isinf(reference):
                continue
            if abs(result.eta - reference) > 1e-6:
                failures.append(
                    f"instance {si} pattern {letters}: dispatch {result.eta:.8e} vs "
                    f"direct {reference:.8e}"
                )
    _report(
        capsys,
        7,
        "transpose-reduced patterns agree with direct formulations",
        failures,
        f"{checked} pattern/instance pairs",
    )


def test_criterion_08_gradient_identity(capsys):
    rng = np.random.default_rng(88)
    step = 1e-5
    worst = 0.0
    failures = []
    checked = 0
    while checked < 200:
        n = (2, 3, 4)[checked % 3]
        template = srq2.PATTERN_TEMPLATES[checked % len(srq2.PATTERN_TEMPLATES)]
        problem = srq2.random_problem(n, rng, template)
        x = None
        for _ in range(60):
            cand = linalg.normalize(complex_normal(rng, n, 1).ravel())
            q3 = np.real(np.vdot(cand, problem.a3 @ cand))
            d1 = problem.alpha1 + problem.beta1 * q3
            d2 = problem.alpha2 + problem.beta2 * q3
            # keep a denominator margin so the third derivative stays tame
            # at the finite-difference step
            if min(d1, d2) >= 0.2:
                x = cand
                break
        if x is None:
            continue
        d = complex_normal(rng, n, 1).ravel()
        d = d - x * np.vdot(x, d)
        d = d / np.linalg.norm(d)
        h = srq2.nepv_matrix(problem, x)
        analytic = 2.0 * float(np.real(d.conj() @ (h @ x)))
        numeric = (
            srq2.objective(problem, x + step * d) - srq2.objective(problem, x - step * d)
        ) / (2.0 * step)
        err = abs(analytic - numeric)
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"triple {checked}: |analytic - numeric| = {err:.2e}")
        checked += 1
    _report(
        capsys,
        8,
        "stationarity matrix matches finite-difference gradients",
        failures[:5],
        f"200 triples, worst error {worst:.1e}",
    )


def test_criterion_09_support_inequalities(capsys):
    directions = jnr.direction_grid(800)
    points = jnr.boundary_sample(TRIPLE, directions)
    ys = np.array([p.point for p in points])
    supports = np.array([p.support_value for p in points])
    # every image point must lie on the supported side of every half-space
    margins = (directions @ ys.T).min(axis=1) - supports
    worst = float(margins.min())
    sol = srq2.solve(example_problem(), restarts=5, seed=0)
    gap = jnr.optimality_certificate(TRIPLE, G_PARAMS, sol.x).support_gap
    failures = []
    if worst < -1e-9:
        failures.append(f"support inequality violated by {worst:.2e}")
    if not gap <= 1e-8:
        failures.append(f"support gap at the minimizer is {gap:.2e} > 1e-8")
    _report(
        capsys,
        9,
        "boundary samples satisfy every support inequality",
        failures,
        f"800 directions, worst margin {worst:.1e}, gap at minimizer {gap:.1e}",
    )


def test_criterion_10_perturbed_large_system(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    r, n = 10, 100
    blocks = {
        "A": complex_normal(rng, r, r),
        "B": complex_normal(rng, r, n),
        "C": complex_normal(rng, n, r),
        "P0": complex_normal(rng, n, n),
        "P1": complex_normal(rng, n, n),
    }
    noisy = {k: m + 0.1 * rng.standard_normal(m.shape) for k, m in blocks.items()}
    perturbed = RosenbrockSystem(
        A=noisy["A"], B=noisy["B"], C=noisy["C"], poly_coeffs=(noisy["P0"], noisy["P1"])
    )
    eigs = system_eigenvalues(perturbed)
    lam = complex(eigs[np.argsort(np.abs(eigs))[eigs.size // 2]])
    system = RosenbrockSystem(
        A=blocks["A"], B=blocks["B"], C=blocks["C"], poly_coeffs=(blocks["P0"], blocks["P1"])
    )
    result = backward_error(system, lam, "ABCP", restarts=3, seed=0)
    elapsed = time.perf_counter() - start
    failures = []
    if not (1e-3 <= result.eta <= 1.0):
        failures.append(f"eta = {result.eta:.3e} outside [1e-3, 1]")
    if not result.converged:
        failures.append("solver did not converge")
    if result.solver is None or not result.solver.rel_residual <= 1e-10:
        residual = None if result.solver is None else result.solver.rel_residual
        failures.append(f"residual {residual} > 1e-10")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(
        capsys,
        10,
        "noisy large system recovers the perturbation magnitude",
        failures,
        f"eta {result.eta:.3e}, {result.solver.iterations} sweeps, {elapsed:.1f}s",
    )
