"""Seeded inputs, closed-loop calls and output checks for the three workloads.

Every workload turns a seed into a list of operations before anything is
timed.  Each list is short enough that a timed run goes through all of it
at least once, so a seed alone fixes which operations a run checks.  An operation is one top-level call into the public API (one
``backward_error`` call, or one audited quotient instance) together with
the check its output must pass.  The library only ever sees the generated
inputs; the seed never reaches it.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from time import perf_counter, thread_time
from typing import Callable

import numpy as np
import reference
import scipy.linalg as sla

from rosen_bkerr import RosenbrockSystem, all_patterns, jnr, srq2

# ``rosen_bkerr.backward_error`` is the function; the module is needed so that
# a traced run's wrapper, installed on the module, is the one called here.
_be = importlib.import_module("rosen_bkerr.backward_error")

PATTERNS = tuple(p.letters for p in all_patterns())
# The eight pencil patterns alternating with the seven SRQ2 patterns, the two
# slowest (AP, BC) far apart: any stretch of a large_ladder round then holds
# both routes in about their overall proportion, so where a run happens to
# stop barely changes its mix of calls.
LADDER_ORDER = ("A", "AP", "B", "ABC", "C", "ABP", "P", "BC", "AB", "ACP", "AC", "BCP",
                "BP", "ABCP", "CP")

# The acceptance-corpus range r in 1..8, n in 1..12, d in 0..2 as a fixed
# design: all 24 (r, d) pairs, with n cycling twice through 1..12.  Fixing
# the sizes leaves only matrix entries and shifts to the seed, so runs with
# different seeds do the same amount of work.
SMALL_SIZES = tuple((1 + i % 8, 1 + (5 * i) % 12, (i // 8) % 3) for i in range(24))
# Every sixth small case is shifted to a system eigenvalue (zero-gate exit).
EIGEN_EVERY = 6
LADDER_SIZES = ((20, 30, 2), (60, 60, 2), (10, 100, 1))
SMOKE_LADDER_SIZES = ((2, 3, 1), (3, 3, 1), (4, 14, 1))
AUDIT_NS = (2, 3, 4)
RANK_DEFICIENT_EVERY = 5
AUDIT_DIRECTIONS = 128

# Output-check tolerances of ``rosen-bkerr compute`` and of criterion 03.
AUDIT_GAP = 1e-4
AUDIT_UNDERCUT = 1e-8


@dataclass(frozen=True)
class Sample:
    """The outcome of one operation.

    ``route`` is the library's method name (or ``audit``); ``ms`` the wall
    time of the whole call and ``srq2_ms`` the part spent in an SRQ2 solve
    (the whole call on the SRQ2 routes, ``srq2.solve`` on an audit, else
    None).  ``cpu_ms`` and ``srq2_cpu_ms`` are the CPU times of the same in
    the calling thread, and ``ref_ms`` the CPU time of the reference
    computation around the call, which the harness fills in.  ``failure`` is None when the output passed its check;
    ``wrong`` marks an output the library reported as good that a check
    shows to be wrong.
    """

    route: str
    infeasible: bool
    ms: float
    cpu_ms: float
    srq2_ms: float | None
    srq2_cpu_ms: float | None
    failure: str | None
    wrong: bool = False
    ref_ms: float | None = None


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Sample]
    digest: bytes


# ---------------------------------------------------------------------------
# Input generation.


def _complex_normal(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_system(rng, r, n, d) -> RosenbrockSystem:
    return RosenbrockSystem(
        A=_complex_normal(rng, r, r),
        B=_complex_normal(rng, r, n),
        C=_complex_normal(rng, n, r),
        poly_coeffs=tuple(_complex_normal(rng, n, n) for _ in range(d + 1)),
    )


def _companion_eigenvalues(system: RosenbrockSystem) -> np.ndarray:
    """Finite eigenvalues of S(z) from a companion linearization M u = z N u
    with u = [x1; x2; z x2; ...; z^{d-1} x2], solved by scipy, so that the
    shifts never depend on the code being measured."""
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


def _newton_refine(system: RosenbrockSystem, z: complex, steps: int = 5) -> complex:
    """Polish an eigenvalue by z <- z - 1 / tr(S(z)^-1 S'(z))."""
    r, n = system.r, system.n
    for _ in range(steps):
        p = np.array(system.poly_coeffs[-1], copy=True)
        dp = np.zeros((n, n), dtype=complex)
        for coeff in reversed(system.poly_coeffs[:-1]):
            dp = dp * z + p
            p = p * z + coeff
        s = np.block([[system.A - z * np.eye(r), system.B], [system.C, p]])
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


def _digest(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _system_digest(system: RosenbrockSystem, lam: complex) -> bytes:
    return _digest(system.A, system.B, system.C, *system.poly_coeffs, np.array([lam]))


# ---------------------------------------------------------------------------
# Operations.


def _backward_error_op(system, lam, letters, call_seed, label) -> Op:
    def run() -> Sample:
        start, cpu = perf_counter(), thread_time()
        try:
            result = _be.backward_error(system, lam, letters, restarts=5, seed=call_seed)
        except Exception as exc:  # a raising call is a failed operation
            ms, cpu_ms = (perf_counter() - start) * 1e3, (thread_time() - cpu) * 1e3
            return Sample(
                "error", False, ms, cpu_ms, None, None, f"raised {type(exc).__name__}: {exc}"
            )
        ms, cpu_ms = (perf_counter() - start) * 1e3, (thread_time() - cpu) * 1e3
        route = result.method
        infeasible = not math.isfinite(result.eta)
        if infeasible:
            failure = None if result.infeasibility_witness else "eta = inf without a witness"
        else:
            cert = result.certificate
            failure = None
            if not result.converged:
                failure = f"eta = {result.eta:.6e} not converged"
            elif cert is None or not cert.passed:
                bad = [] if cert is None else [c for c in cert.checks if not c.passed]
                detail = "; ".join(f"{c.name} {c.value:.2e} > {c.bound:.2e}" for c in bad)
                reason = detail or (cert.failure if cert is not None else "no certificate")
                failure = f"eta = {result.eta:.6e} not certified ({reason})"
        srq2 = route.endswith("srq2")
        return Sample(
            route, infeasible, ms, cpu_ms, ms if srq2 else None, cpu_ms if srq2 else None, failure
        )

    return Op(label, run, _system_digest(system, lam) + letters.encode() + bytes([call_seed % 256]))


def _audit_op(problem, solve_seed, oracle_seed, directions, label) -> Op:
    triple = (problem.a1, problem.a2, problem.a3)
    g_params = (problem.alpha1, problem.beta1, problem.alpha2, problem.beta2)

    def run() -> Sample:
        start, cpu = perf_counter(), thread_time()
        try:
            sol = srq2.solve(problem, restarts=4, seed=solve_seed)
            solved, solved_cpu = perf_counter(), thread_time()
            oracle = srq2.brute_force_oracle(
                problem, 5000, seed=oracle_seed, polish_steps=120, polish_top=256
            )
            points = jnr.boundary_sample(triple, directions)
            if math.isfinite(sol.value):
                try:
                    jnr.optimality_certificate(triple, g_params, sol.x)
                except srq2.NondifferentiablePointError:
                    pass  # a 0/0 candidate won: no gradient direction exists there
        except Exception as exc:  # a raising call is a failed operation
            ms, cpu_ms = (perf_counter() - start) * 1e3, (thread_time() - cpu) * 1e3
            return Sample(
                "audit", False, ms, cpu_ms, None, None, f"raised {type(exc).__name__}: {exc}"
            )
        end, end_cpu = perf_counter(), thread_time()
        failure = None
        wrong = False
        if len(points) != len(directions):
            failure = f"{len(points)} boundary points for {len(directions)} directions"
        elif not (math.isinf(sol.value) and math.isinf(oracle)):
            diff = sol.value - oracle
            if not abs(diff) <= AUDIT_GAP:
                failure = f"solver {sol.value:.10g} vs oracle {oracle:.10g}: gap {diff:.2e}"
                # The oracle's value is attained at a point it evaluated, so a
                # converged solve above it is shown not to be the minimum.  An
                # undercut may be the sampled oracle missing the minimum.
                wrong = sol.converged and diff > 0
            elif diff < -AUDIT_UNDERCUT:
                failure = f"solver {sol.value:.10g} undercuts oracle {oracle:.10g} by {-diff:.2e}"
        return Sample(
            "audit",
            False,
            (end - start) * 1e3,
            (end_cpu - cpu) * 1e3,
            (solved - start) * 1e3,
            (solved_cpu - cpu) * 1e3,
            failure,
            wrong,
        )

    digest = _digest(problem.a1, problem.a2, problem.a3) + bytes([solve_seed % 256])
    return Op(label, run, digest)


def _call_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _small_case_ops(rng, index, sizes, seed) -> list[Op]:
    r, n, d = sizes
    system = _random_system(rng, r, n, d)
    if index % EIGEN_EVERY == EIGEN_EVERY - 1:
        eigs = _companion_eigenvalues(system)
        lam = _newton_refine(system, complex(eigs[int(rng.integers(eigs.size))]))
    else:
        lam = complex(rng.standard_normal(), rng.standard_normal())
    call_seed = _call_seed(rng)
    return [
        _backward_error_op(
            system, lam, p, call_seed, f"{p} r={r} n={n} d={d} seed={seed} case={index}"
        )
        for p in PATTERNS
    ]


def small_sweep(seed: int, rng, smoke: bool = False) -> list[Op]:
    """All 15 patterns on each case; cases cycle through SMALL_SIZES."""
    cases = 24 if smoke else 24 * 8
    ops: list[Op] = []
    for i in range(cases):
        ops.extend(_small_case_ops(rng, i, SMALL_SIZES[i % len(SMALL_SIZES)], seed))
    return ops


def large_ladder(seed: int, rng, smoke: bool = False) -> list[Op]:
    """All 15 patterns at each ladder size, every call on a fresh system at a
    fresh seeded shift, so that a run's medians average over many systems
    rather than a few.  The sizes alternate fastest, so a run that stops
    mid-round has still called every size about equally often."""
    sizes = SMOKE_LADDER_SIZES if smoke else LADDER_SIZES
    ops: list[Op] = []
    for rnd in range(1 if smoke else 2):
        for p in LADDER_ORDER:
            for r, n, d in sizes:
                system = _random_system(rng, r, n, d)
                lam = complex(rng.standard_normal(), rng.standard_normal())
                label = f"{p} r={r} n={n} d={d} seed={seed} round={rnd}"
                ops.append(_backward_error_op(system, lam, p, _call_seed(rng), label))
    return ops


def quotient_audit(seed: int, rng, smoke: bool = False) -> list[Op]:
    """Criterion-03-style instances: n over AUDIT_NS, the seven templates,
    every fifth instance rank-deficient (105 instances cover every mix)."""
    directions = jnr.direction_grid(AUDIT_DIRECTIONS)
    ops: list[Op] = []
    for i in range(21 if smoke else 105):
        n = AUDIT_NS[i % len(AUDIT_NS)]
        template = srq2.PATTERN_TEMPLATES[i % len(srq2.PATTERN_TEMPLATES)]
        deficient = i % RANK_DEFICIENT_EVERY == RANK_DEFICIENT_EVERY - 1
        problem = srq2.random_problem(n, rng, template, rank_deficient=deficient)
        label = f"{template} n={n}{' rank-deficient' if deficient else ''} seed={seed} instance={i}"
        ops.append(_audit_op(problem, _call_seed(rng), _call_seed(rng), directions, label))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., list[Op]]
    # The traced run covers at least this many operations, enough for every
    # wrapper the workload is expected to fire.
    min_traced_ops: int
    # Wrappers that must fire in a traced run (those still present in the library).
    expected: frozenset[str]
    # The reference computation most like the workload's own work.
    reference: Callable[[], float]


_BACKWARD_ERROR_LAYERS = frozenset(
    {
        "rosenbrock.evaluate",
        "rosenbrock.assemble_error_matrices",
        "rosenbrock.transpose",
        "linalg.psd_nullspace",
        "linalg.semidefinite_pencil_smallest",
        "linalg.definite_pencil_smallest",
        "linalg.smallest_singular_value",
        "srq2.solve",
        "srq2.scf_solve",
        "srq2.objective",
        "srq2.Srq2Problem",
        "srq2.nondiff_candidates",
        "backward_error.backward_error",
        "backward_error.certify",
        "backward_error.reconstruct_perturbation",
        "parallel.parallel_map",
    }
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("small_sweep", small_sweep, len(PATTERNS) * EIGEN_EVERY,
                 _BACKWARD_ERROR_LAYERS | {"numpy.eigh.small"}, reference.mixed),
        Workload("large_ladder", large_ladder, len(PATTERNS) * len(LADDER_SIZES),
                 _BACKWARD_ERROR_LAYERS | {"numpy.eigh.large"}, reference.lapack),
        Workload(
            "quotient_audit",
            quotient_audit,
            RANK_DEFICIENT_EVERY,
            frozenset(
                {
                    "linalg.psd_nullspace",
                    "linalg.definite_pencil_smallest",
                    "numpy.eigh.small",
                    "srq2.solve",
                    "srq2.scf_solve",
                    "srq2.objective",
                    "srq2.nondiff_candidates",
                    "srq2.brute_force_oracle",
                    "srq2.oracle.batch_objective",
                    "jnr.boundary_sample",
                    "jnr.optimality_certificate",
                    "parallel.parallel_map",
                }
            ),
            reference.mixed,
        ),
    )
}


def warmup_ops(workload: str, rng) -> list[Op]:
    """A few small calls of the workload's kinds, so that lazy imports and
    first-call costs are paid before timing starts."""
    if workload == "quotient_audit":
        return quotient_audit(-1, rng, smoke=True)[:2]
    # one zero-gate call and all 15 patterns on one tiny system
    zero = _small_case_ops(rng, EIGEN_EVERY - 1, (2, 2, 1), -1)[-1:]
    return zero + _small_case_ops(rng, 0, (2, 2, 1), -1)
