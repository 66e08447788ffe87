"""Minimization of a sum of two generalized Rayleigh quotients on the sphere.

The objective, for Hermitian positive-semidefinite A1, A2, A3 and scalar
pairs (alpha_i, beta_i) keeping both denominator matrices positive
semidefinite, is

    f(x) = (x* A1 x) / (x* (alpha1 I + beta1 A3) x)
         + (x* A2 x) / (x* (alpha2 I + beta2 A3) x),        ||x|| = 1.

A 0/0 quotient evaluates to 0, which keeps f lower semi-continuous; a zero
denominator under a positive numerator gives +inf.  Away from the
degenerate set, first-order stationarity is an eigenvector problem with
eigenvector dependency: H(x) x = mu x with mu the smallest eigenvalue of

    H(x) = sum_i [ A_i / d_i(x) - (x* A_i x) beta_i / d_i(x)^2 * A3 ],
    d_i(x) = alpha_i + beta_i * (x* A3 x).

``scf_solve`` runs a level-shifted self-consistent-field iteration on that
fixed point; ``nondiff_candidates`` enumerates the closed-form candidates
where one quotient degenerates to 0/0; ``solve`` combines both searches
over deterministic multistarts and returns the best minimizer found.
``brute_force_oracle`` is an independent sampled reference used to audit
the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _parallel, linalg

__all__ = [
    "CommonNullViolationError",
    "NondiffCandidate",
    "NondifferentiablePointError",
    "PATTERN_SCALARS",
    "PATTERN_TEMPLATES",
    "ResidualInfo",
    "SOURCE_NONDIFF_1",
    "SOURCE_NONDIFF_2",
    "SOURCE_SCF",
    "Srq2Problem",
    "Srq2Solution",
    "brute_force_oracle",
    "nepv_matrix",
    "nepv_residuals",
    "nondiff_candidates",
    "objective",
    "quadratic_form",
    "random_problem",
    "scf_solve",
    "solve",
]

_PSD_TOL = 1e-12
_EPS_FLOOR = 1e-12
_SHIFT_SLACK = 1e-14

SOURCE_SCF = "scf"
SOURCE_NONDIFF_1 = "nondiff1"
SOURCE_NONDIFF_2 = "nondiff2"


class NondifferentiablePointError(ValueError):
    """A quotient denominator vanishes at the given point, so the
    stationarity matrix H(x) is undefined there."""


class CommonNullViolationError(ValueError):
    """The two denominator matrices share a common null vector, which the
    degenerate-candidate search cannot handle."""


def quadratic_form(m, x) -> float:
    """Real value of x* M x for Hermitian M."""
    return float(np.real(np.vdot(x, m @ x)))


@dataclass(frozen=True)
class Srq2Problem:
    """Validated quotient data.

    Construction symmetrizes the three matrices (recording the largest
    correction in ``asymmetry``), verifies they and both denominator
    matrices alpha_i I + beta_i A3 are positive semidefinite, and records
    in ``common_null_ok`` whether the denominators have no common null
    vector (the sum of the two is positive definite).
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    asymmetry: float = field(init=False, repr=False)
    common_null_ok: bool = field(init=False, repr=False)

    def __post_init__(self):
        asym = 0.0
        mats = {}
        for name in ("a1", "a2", "a3"):
            h, a = linalg.hermitian_part(getattr(self, name), name)
            asym = max(asym, a)
            h.setflags(write=False)
            object.__setattr__(self, name, h)
            mats[name] = h
        if not (mats["a1"].shape == mats["a2"].shape == mats["a3"].shape):
            raise ValueError("a1, a2, a3 must share one shape")
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, val)
        for name, m in mats.items():
            wmin = float(np.linalg.eigvalsh(m)[0])
            if wmin < -_PSD_TOL * max(1.0, linalg.norm1(m)):
                raise ValueError(
                    f"{name} is not positive semidefinite (smallest eigenvalue {wmin:.3e})"
                )
        for i, b in enumerate((self.b1, self.b2), start=1):
            wmin = float(np.linalg.eigvalsh(b)[0])
            if wmin < -_PSD_TOL * max(1.0, linalg.norm1(b)):
                raise ValueError(
                    f"denominator matrix {i} is not positive semidefinite "
                    f"(smallest eigenvalue {wmin:.3e})"
                )
        s = self.b1 + self.b2
        wmin = float(np.linalg.eigvalsh(s)[0])
        common = wmin > _PSD_TOL * max(1.0, linalg.norm1(s))
        object.__setattr__(self, "asymmetry", asym)
        object.__setattr__(self, "common_null_ok", bool(common))

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    @cached_property
    def b1(self) -> np.ndarray:
        return self.alpha1 * np.eye(self.n) + self.beta1 * self.a3

    @cached_property
    def b2(self) -> np.ndarray:
        return self.alpha2 * np.eye(self.n) + self.beta2 * self.a3

    @cached_property
    def den_eps1(self) -> float:
        return _EPS_FLOOR * max(1.0, linalg.norm1(self.b1))

    @cached_property
    def den_eps2(self) -> float:
        return _EPS_FLOOR * max(1.0, linalg.norm1(self.b2))

    @cached_property
    def num_eps1(self) -> float:
        return _EPS_FLOOR * max(1.0, linalg.norm1(self.a1))

    @cached_property
    def num_eps2(self) -> float:
        return _EPS_FLOOR * max(1.0, linalg.norm1(self.a2))

    @cached_property
    def stacked(self) -> np.ndarray:
        """a1, a2, a3 stacked row-wise; lets batch code use one matmul."""
        return np.vstack((self.a1, self.a2, self.a3))


def _forms(problem: Srq2Problem, x: np.ndarray):
    nrm2 = float(np.real(np.vdot(x, x)))
    if nrm2 == 0.0:
        raise ValueError("x must be nonzero")
    q1 = quadratic_form(problem.a1, x)
    q2 = quadratic_form(problem.a2, x)
    q3 = quadratic_form(problem.a3, x)
    d1 = problem.alpha1 * nrm2 + problem.beta1 * q3
    d2 = problem.alpha2 * nrm2 + problem.beta2 * q3
    return nrm2, q1, q2, q3, d1, d2


def objective(problem: Srq2Problem, x) -> float:
    """Quotient-sum value at any nonzero x (scale invariant).  A quotient
    whose numerator and denominator both vanish contributes 0; a vanishing
    denominator under a positive numerator makes the value +inf."""
    x = np.asarray(x, dtype=np.complex128).ravel()
    nrm2, q1, q2, _, d1, d2 = _forms(problem, x)
    total = 0.0
    for q, d, num_eps, den_eps in (
        (q1, d1, problem.num_eps1, problem.den_eps1),
        (q2, d2, problem.num_eps2, problem.den_eps2),
    ):
        if d <= den_eps * nrm2:
            if q <= num_eps * nrm2:
                continue
            return math.inf
        total += q / d
    return total


def is_differentiable(problem: Srq2Problem, x) -> bool:
    x = np.asarray(x, dtype=np.complex128).ravel()
    nrm2, _, _, _, d1, d2 = _forms(problem, x)
    return d1 > problem.den_eps1 * nrm2 and d2 > problem.den_eps2 * nrm2


def nepv_matrix(problem: Srq2Problem, x) -> np.ndarray:
    """Stationarity matrix H(x) at a differentiable point (x is normalized
    internally).  Raises NondifferentiablePointError when either quotient
    denominator is numerically zero."""
    x = linalg.normalize(np.asarray(x, dtype=np.complex128).ravel())
    _, q1, q2, _, d1, d2 = _forms(problem, x)
    if d1 <= problem.den_eps1 or d2 <= problem.den_eps2:
        raise NondifferentiablePointError(
            "a quotient denominator vanishes at this point"
        )
    coeff3 = q1 * problem.beta1 / d1**2 + q2 * problem.beta2 / d2**2
    return problem.a1 / d1 + problem.a2 / d2 - coeff3 * problem.a3


class ResidualInfo(NamedTuple):
    """Stationarity diagnostics at a unit vector: the residual against the
    smallest eigenvalue of H(x), the scaled residual against the Rayleigh
    quotient s = x* H(x) x, and the gap s - lambda_min(H(x))."""

    nepv_residual: float
    rel_residual: float
    smallest_eig_gap: float


def _rel_residual(h: np.ndarray, x: np.ndarray):
    """H(x) x, the Rayleigh quotient s = x* H(x) x and the relative residual
    || H(x) x - s x || / (||H(x)||_1 + 1) at a unit vector x."""
    hx = h @ x
    s = float(np.real(np.vdot(x, hx)))
    return hx, s, float(np.linalg.norm(hx - s * x)) / (linalg.norm1(h) + 1.0)


def nepv_residuals(problem: Srq2Problem, x) -> ResidualInfo:
    x = linalg.normalize(np.asarray(x, dtype=np.complex128).ravel())
    h = nepv_matrix(problem, x)
    w0 = float(np.linalg.eigvalsh(h)[0])
    hx, s, rel = _rel_residual(h, x)
    return ResidualInfo(float(np.linalg.norm(hx - w0 * x)), rel, s - w0)


@dataclass(frozen=True)
class Srq2Solution:
    """A candidate minimizer with its audit trail.

    ``value`` is the objective at ``x`` (unit, phase fixed);
    ``nepv_residual``, ``rel_residual`` and ``smallest_eig_gap`` are the
    ResidualInfo fields recomputed at x (NaN where H(x) is undefined);
    ``source`` records which search produced the point.
    """

    x: np.ndarray
    value: float
    nepv_residual: float
    rel_residual: float
    smallest_eig_gap: float
    iterations: int
    shifts_used: tuple[float, ...]
    source: str
    converged: bool
    tol: float


def _diagnose(problem: Srq2Problem, x: np.ndarray):
    """H(x), its eigenvalues and eigenvectors, and the relative residual."""
    h = nepv_matrix(problem, x)
    w, vecs = np.linalg.eigh(h)
    return h, w, vecs, _rel_residual(h, x)[2]


def _solution_at(problem, x, *, iterations, shifts, source, converged, tol):
    value = objective(problem, x)
    try:
        info = nepv_residuals(problem, x)
    except NondifferentiablePointError:
        info = ResidualInfo(math.nan, math.nan, math.nan)
    return Srq2Solution(
        x=x,
        value=value,
        nepv_residual=info.nepv_residual,
        rel_residual=info.rel_residual,
        smallest_eig_gap=info.smallest_eig_gap,
        iterations=iterations,
        shifts_used=tuple(shifts),
        source=source,
        converged=converged,
        tol=tol,
    )


def _nudge_differentiable(problem, x, rng, scale=1e-8):
    """Move x off the measure-zero set where a denominator vanishes, by
    adding a small random tangent and renormalizing."""
    for attempt in range(40):
        if is_differentiable(problem, x):
            return x
        d = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
        d = d - x * np.vdot(x, d)
        nd = float(np.linalg.norm(d))
        if nd == 0.0:
            continue
        step = scale * 2.0**attempt
        x = linalg.fix_phase(linalg.normalize(x + step * (d / nd)))
    raise NondifferentiablePointError(
        "could not find a nearby differentiable starting point"
    )


def scf_solve(
    problem: Srq2Problem,
    x0,
    *,
    max_iter: int = 400,
    tol: float = 1e-10,
    max_shift_tries: int = 40,
) -> Srq2Solution:
    """Level-shifted self-consistent-field iteration on H(x) x = mu x.

    Each sweep diagonalizes H(x_k) and proposes the smallest eigenvector of
    the damped matrix H(x_k) - sigma x_k x_k*, trying shifts sigma = 0,
    2 delta, 4 delta, 8 delta, ... where delta is the gap between the two
    lowest eigenvalues of H(x_k).  Raising sigma pins the proposal ever
    closer to the current iterate, which suppresses the oscillation plain
    SCF is prone to.  A proposal is accepted when it strictly reduces the
    objective, or when it reduces the relative fixed-point residual

        || H(x) x - (x* H(x) x) x || / (||H(x)||_1 + 1)

    without measurably increasing the objective (the residual branch exists
    for the endgame where objective decrements fall below double precision;
    letting it override descent admits period-two cycles).

    Convergence is declared when that residual drops to ``tol``.  On a
    sweep cap or shift-search exhaustion the best iterate seen is returned
    flagged ``converged=False``.
    """
    rng = np.random.default_rng(0x5CF5EED)
    x = linalg.fix_phase(linalg.normalize(np.asarray(x0, dtype=np.complex128).ravel()))
    if x.size != problem.n:
        raise ValueError(f"x0 must have length {problem.n}")
    x = _nudge_differentiable(problem, x, rng)
    f = objective(problem, x)
    best_f, best_x = f, x
    shifts: list[float] = []
    iterations = 0
    converged = False
    for k in range(max_iter + 1):
        h, w, vecs, rel_residual = _diagnose(problem, x)
        if rel_residual <= tol:
            iterations = k
            converged = True
            break
        if k == max_iter:
            iterations = k
            break
        if w.size > 1:
            delta = float(w[1] - w[0])
        else:
            delta = 0.0
        if delta <= 1e-14:
            delta = max(1e-8, 1e-8 * linalg.norm1(h))
        accepted = False
        for t in range(max_shift_tries):
            if t == 0:
                sigma = 0.0
                cand = vecs[:, 0]
            else:
                sigma = 2.0**t * delta
                try:
                    _, shifted = np.linalg.eigh(h - sigma * np.outer(x, x.conj()))
                except np.linalg.LinAlgError:
                    continue
                cand = shifted[:, 0]
            cand = linalg.fix_phase(cand)
            f_new = objective(problem, cand)
            if f_new < f - _SHIFT_SLACK:
                ok = True
            elif f_new <= f + _EPS_FLOOR * max(1.0, abs(f)):
                try:
                    res_new = _rel_residual(nepv_matrix(problem, cand), cand)[2]
                except NondifferentiablePointError:
                    res_new = math.inf
                ok = res_new < rel_residual - _SHIFT_SLACK
            else:
                ok = False
            if ok:
                shifts.append(float(sigma))
                nudged = _nudge_differentiable(problem, cand, rng)
                x = nudged
                f = f_new if nudged is cand else objective(problem, x)
                if f < best_f:
                    best_f, best_x = f, x
                accepted = True
                break
        if not accepted:
            iterations = k
            break
    final_x = x if converged else best_x
    return _solution_at(
        problem,
        final_x,
        iterations=iterations,
        shifts=shifts,
        source=SOURCE_SCF,
        converged=converged,
        tol=tol,
    )


class NondiffCandidate(NamedTuple):
    """A closed-form candidate where quotient ``which`` degenerates to 0/0."""

    x: np.ndarray
    value: float
    which: int


def nondiff_candidates(problem: Srq2Problem, *, null_tol: float = 1e-10) -> list[NondiffCandidate]:
    """Candidate minimizers on the set where one quotient is 0/0.

    For quotient i the candidates live in the null space of
    Q_i = A_i + (alpha_i I + beta_i A3); restricted there the objective is
    the surviving single quotient, minimized by a definite Hermitian
    pencil.  Returns an empty list when both Q_i are positive definite.
    Requires the denominators to have no common null vector, which makes
    the restricted pencils definite.
    """
    if not problem.common_null_ok:
        raise CommonNullViolationError(
            "the two denominator matrices share a common null vector"
        )
    out: list[NondiffCandidate] = []
    specs = (
        (1, problem.a1, problem.b1, problem.a2, problem.alpha2, problem.beta2),
        (2, problem.a2, problem.b2, problem.a1, problem.alpha1, problem.beta1),
    )
    for which, num, den, other, alpha_o, beta_o in specs:
        q = num + den
        basis = linalg.psd_nullspace(q, null_tol)
        k = basis.shape[1]
        if k == 0:
            continue
        m = basis.conj().T @ other @ basis
        nmat = alpha_o * np.eye(k) + beta_o * (basis.conj().T @ problem.a3 @ basis)
        try:
            _, v = linalg.definite_pencil_smallest(m, nmat)
        except linalg.NotPositiveDefiniteError as exc:
            raise RuntimeError(
                f"restricted denominator pencil for quotient {which} is not "
                "definite although the denominators have no common null vector"
            ) from exc
        x = linalg.fix_phase(linalg.normalize(basis @ v))
        out.append(NondiffCandidate(x=x, value=objective(problem, x), which=which))
    return out


def _single_quotient_starts(problem: Srq2Problem) -> list[np.ndarray]:
    """Minimizers of each quotient alone, used to warm start the SCF."""
    out = []
    for a, b in ((problem.a1, problem.b1), (problem.a2, problem.b2)):
        try:
            _, v = linalg.definite_pencil_smallest(a, b)
        except linalg.NotPositiveDefiniteError:
            try:
                _, v = linalg.semidefinite_pencil_smallest(a, b)
            except (linalg.NotPositiveDefiniteError, linalg.IndefiniteMatrixError):
                continue
        out.append(v)
    return out


def _vector_key(x: np.ndarray) -> tuple:
    return tuple(float(part) for entry in x for part in (entry.real, entry.imag))


def _pick_best(candidates: list[Srq2Solution]) -> Srq2Solution:
    """Lowest value wins; among candidates tied within floating-point noise
    of the best value, prefer converged ones, then lower residual, then the
    lexicographically smallest phase-fixed vector (for determinism)."""
    best = min(c.value for c in candidates)
    tie = best + _EPS_FLOOR * max(1.0, abs(best))
    pool = [c for c in candidates if c.value <= tie]

    def key(sol: Srq2Solution) -> tuple:
        rel = sol.rel_residual
        return (
            not sol.converged,
            math.inf if math.isnan(rel) else rel,
            sol.value,
            _vector_key(sol.x),
        )

    return min(pool, key=key)


def solve(
    problem: Srq2Problem,
    *,
    restarts: int = 5,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 400,
    max_shift_tries: int = 40,
) -> Srq2Solution:
    """Global minimization: SCF runs from ``restarts`` seeded random unit
    starts plus the two single-quotient minimizers, unioned with the
    degenerate 0/0 candidates, returning the lowest objective value.  Ties
    break on the phase-fixed minimizer entries, so the result is
    deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    n = problem.n
    starts: list[np.ndarray] = []
    for _ in range(max(0, int(restarts))):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if not np.linalg.norm(z):
            continue
        starts.append(linalg.normalize(z))
    starts.extend(_single_quotient_starts(problem))

    def run(x0):
        return scf_solve(
            problem, x0, max_iter=max_iter, tol=tol, max_shift_tries=max_shift_tries
        )

    candidates: list[Srq2Solution] = _parallel.parallel_map(run, starts)
    if problem.common_null_ok:
        for cand in nondiff_candidates(problem):
            source = SOURCE_NONDIFF_1 if cand.which == 1 else SOURCE_NONDIFF_2
            candidates.append(
                _solution_at(
                    problem,
                    cand.x,
                    iterations=0,
                    shifts=(),
                    source=source,
                    converged=True,
                    tol=tol,
                )
            )
    if not candidates:
        raise RuntimeError("no candidate solutions were produced")
    return _pick_best(candidates)


# ---------------------------------------------------------------------------
# Sampled reference minimizer.


def _batch_forms(problem, X):
    n = problem.n
    y = problem.stacked @ X
    xc = X.conj()
    q1 = np.real(np.einsum("ij,ij->j", xc, y[:n]))
    q2 = np.real(np.einsum("ij,ij->j", xc, y[n : 2 * n]))
    q3 = np.real(np.einsum("ij,ij->j", xc, y[2 * n :]))
    nrm2 = np.real(np.einsum("ij,ij->j", xc, X))
    d1 = problem.alpha1 * nrm2 + problem.beta1 * q3
    d2 = problem.alpha2 * nrm2 + problem.beta2 * q3
    return q1, q2, q3, nrm2, d1, d2, y


def _quotient_batch(q, d, nrm2, num_eps, den_eps):
    zero_den = d <= den_eps * nrm2
    out = np.divide(q, d, out=np.zeros_like(q), where=~zero_den)
    out[zero_den & (q > num_eps * nrm2)] = np.inf
    return out


def _quotient_sum(problem, q1, q2, nrm2, d1, d2):
    return _quotient_batch(q1, d1, nrm2, problem.num_eps1, problem.den_eps1) + _quotient_batch(
        q2, d2, nrm2, problem.num_eps2, problem.den_eps2
    )


def _batch_objective(problem, X):
    q1, q2, _, nrm2, d1, d2, _ = _batch_forms(problem, X)
    return _quotient_sum(problem, q1, q2, nrm2, d1, d2)


# Armijo backtracking: trial steps t 2^-k for k = 0..24, sufficient decrease
# 1e-4 t ||g||^2, and no trial step at or below _MIN_STEP.
_LADDER = 0.5 ** np.arange(25)
_ARMIJO = 1e-4
_MIN_STEP = 1e-18


def _ladder_objective(problem, X, G, t, q1, q2, nrm2, d1, d2, y):
    """Objective at x - s g for every column and every trial step
    s = t 2^-k, k = 0..24, with one matmul: along that line each quadratic
    form is a quadratic polynomial in s,

        (x - s g)* M (x - s g) = x*Mx - 2 s Re(g*Mx) + s^2 g*Mg,

    and the quotient conventions are scale invariant, so the unnormalized
    point prices the retraction (x - s g) / ||x - s g||.  ``q1, q2, nrm2,
    d1, d2, y`` are the ``_batch_forms`` of X.  Returns the steps and the
    values, both of shape (25, columns)."""
    n = problem.n
    gc = G.conj()
    # Re(g* M x) and g* M g for M = A1, A2, A3, I
    lin = np.real(np.einsum("ij,kij->kj", gc, np.vstack((y, X)).reshape(4, n, -1)))
    quad = np.real(
        np.einsum("ij,kij->kj", gc, np.vstack((problem.stacked @ G, G)).reshape(4, n, -1))
    )

    def with_denominators(c):  # M = A1, A2, alpha1 I + beta1 A3, alpha2 I + beta2 A3, I
        return np.array(
            (
                c[0],
                c[1],
                problem.alpha1 * c[3] + problem.beta1 * c[2],
                problem.alpha2 * c[3] + problem.beta2 * c[2],
                c[3],
            )
        )[:, None]

    s = _LADDER[:, None] * t
    forms = with_denominators(quad) * s
    forms -= 2.0 * with_denominators(lin)
    forms *= s
    forms += np.array((q1, q2, d1, d2, nrm2))[:, None]
    q1s, q2s, d1s, d2s, nrm2s = forms
    return s, _quotient_sum(problem, q1s, q2s, nrm2s, d1s, d2s)


def _batch_polish(problem, X, f, steps):
    """Projected gradient descent on the sphere with Armijo backtracking,
    vectorized over the sample columns.  Each step prices a column's whole
    backtracking ladder at once (``_ladder_objective``) and takes its first
    trial step with sufficient decrease; an accepted step doubles (capped at
    1e6) for the next iteration, and a column whose trials all fail keeps
    the halved step, as a one-trial-at-a-time search would.  Columns where a
    denominator vanishes or the step has fallen to 1e-18 are frozen.  The
    returned values are the closed-form ones."""
    n = problem.n
    t = np.ones(X.shape[1])
    for _ in range(steps):
        q1, q2, _, nrm2, d1, d2, y = _batch_forms(problem, X)
        live = (
            (d1 > problem.den_eps1 * nrm2)
            & (d2 > problem.den_eps2 * nrm2)
            & np.isfinite(f)
            & (t > _MIN_STEP)
        )
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        d1i, d2i = d1[idx], d2[idx]
        coeff3 = q1[idx] * problem.beta1 / d1i**2 + q2[idx] * problem.beta2 / d2i**2
        yi = y[:, idx]
        hx = yi[:n] / d1i + yi[n : 2 * n] / d2i - coeff3 * yi[2 * n :]
        xi = X[:, idx]
        s = np.real(np.einsum("ij,ij->j", xi.conj(), hx))
        grad = hx - xi * s
        gnorm2 = np.real(np.einsum("ij,ij->j", grad.conj(), grad))
        moving = gnorm2 > 1e-20
        idx = idx[moving]
        if idx.size == 0:
            break
        xi, grad, gnorm2 = xi[:, moving], grad[:, moving], gnorm2[moving]
        trial, fc = _ladder_objective(
            problem, xi, grad, t[idx], q1[idx], q2[idx], nrm2[idx], d1[idx], d2[idx], yi[:, moving]
        )
        tried = trial > _MIN_STEP
        ok = tried & (fc <= f[idx] - _ARMIJO * trial * gnorm2)
        t[idx] *= 0.5 ** np.count_nonzero(tried, axis=0)
        hit = np.flatnonzero(ok.any(axis=0))
        if hit.size == 0:
            continue
        first = np.argmax(ok[:, hit], axis=0)
        step = trial[first, hit]
        cand = xi[:, hit] - grad[:, hit] * step
        norms = np.linalg.norm(cand, axis=0)
        norms[norms == 0.0] = 1.0
        acc = idx[hit]
        X[:, acc] = cand / norms
        f[acc] = fc[first, hit]
        t[acc] = np.minimum(step * 2.0, 1e6)
    return X, f


def brute_force_oracle(
    problem: Srq2Problem,
    budget: int,
    seed: int = 0,
    *,
    polish_steps: int = 200,
    polish_top: int = 512,
) -> float:
    """Sampled estimate of the global minimum, independent of ``solve``:
    ``budget`` complex-normal unit vectors, the ``polish_top`` best of which
    are refined by ``polish_steps`` steps of projected gradient descent on
    the sphere with Armijo backtracking (``polish_top`` = 0 or >= ``budget``
    polishes every sample; ``polish_steps`` = 0 polishes none).  The
    returned value is the objective evaluated directly at one of the points
    held, sampled or polished.  Pruning to the best columns can only raise
    the reported minimum, never lower it, so it cannot mask a solver that
    overshoots.  Deterministic for a given seed."""
    budget = int(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    polish_steps, polish_top = int(polish_steps), int(polish_top)
    if polish_steps < 0:
        raise ValueError("polish_steps must be nonnegative")
    if polish_top < 0:
        raise ValueError("polish_top must be nonnegative")
    rng = np.random.default_rng(seed)
    n = problem.n
    X = rng.standard_normal((n, budget)) + 1j * rng.standard_normal((n, budget))
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0.0] = 1.0
    X = X / norms
    f = _batch_objective(problem, X)
    if polish_steps == 0:
        return float(np.min(f))
    if 0 < polish_top < budget:
        keep = np.argpartition(f, polish_top)[:polish_top]
    else:
        keep = np.arange(budget)
    Xp, _ = _batch_polish(problem, X[:, keep], f[keep], polish_steps)
    return float(min(np.min(f), np.min(_batch_objective(problem, Xp))))


# ---------------------------------------------------------------------------
# Seeded instance generator shaped like the backward-error reductions.

# The scalar pairs (alpha1, beta1, alpha2, beta2) of the quotient sum a
# block pattern reduces to, as functions of the polynomial weight gamma.
# ACP is the direct form of the pattern that backward errors compute as ABP
# on the transposed system.
PATTERN_SCALARS = {
    "AP": lambda gamma: (1.0, -1.0, 0.0, 1.0),
    "BC": lambda gamma: (0.0, 1.0, 1.0, -1.0),
    "ABC": lambda gamma: (1.0, 0.0, 1.0, -1.0),
    "ABP": lambda gamma: (1.0, 0.0, 0.0, 1.0),
    "ACP": lambda gamma: (1.0, -1.0, 1.0, gamma - 1.0),
    "BCP": lambda gamma: (0.0, 1.0, 1.0, gamma - 1.0),
    "ABCP": lambda gamma: (1.0, 0.0, 1.0, gamma - 1.0),
}
PATTERN_TEMPLATES = tuple(PATTERN_SCALARS)


def random_problem(n, rng, template: str = "ABCP", *, rank_deficient: bool = False) -> Srq2Problem:
    """Seeded random instance: A3 is a 0/1 diagonal coordinate projector and
    the scalar pairs follow one of the block-pattern templates (the weight
    gamma >= 1 is drawn randomly where the template uses it).  With
    ``rank_deficient`` the numerator matrices get random low rank, which
    exercises the degenerate-candidate search."""
    if template not in PATTERN_TEMPLATES:
        raise ValueError(f"unknown template {template!r}; valid: {PATTERN_TEMPLATES}")
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    mask = rng.integers(0, 2, size=n).astype(float)
    if mask.all():
        mask[int(rng.integers(n))] = 0.0
    if not mask.any():
        mask[int(rng.integers(n))] = 1.0
    a3 = np.diag(mask)
    gamma = 1.0 + float(rng.uniform(0.0, 3.0))

    def psd(rank):
        g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        return g @ g.conj().T / rank

    if rank_deficient:
        a1 = psd(int(rng.integers(1, n)))
        a2 = psd(int(rng.integers(1, n)))
    else:
        a1 = psd(n)
        a2 = psd(n)
    return Srq2Problem(a1, a2, a3, *PATTERN_SCALARS[template](gamma))
