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
fixed point and finishes with safeguarded Riemannian Newton steps once the
iterate sits at the bottom of H(x)'s spectrum; ``nondiff_candidates``
enumerates the closed-form candidates where one quotient degenerates to
0/0; ``solve`` combines both searches over deterministic multistarts and
returns the best minimizer found.
``brute_force_oracle`` is an independent sampled reference used to audit
the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _parallel, linalg

__all__ = [
    "CommonNullViolationError",
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
    "random_problem",
    "scf_solve",
    "solve",
]

_SHIFT_SLACK = 1e-14
# Newton steps take over from the SCF sweeps once the residual r0 against
# the smallest eigenvalue w0 of H(x) is at most _NEWTON_SWITCH (||H(x)||_1 + 1)
# or _GAP_SWITCH (w1 - w0) (see ``scf_solve``).  With 1e-1 in place of 1e-3,
# most starts next to the spurious stationary point of the reference problem
# end on it; with 1e-3, none do.  The gap term keeps the angle between x and
# the bottom eigenvector at sin <= r0 / (w1 - w0) <= 0.1.
_NEWTON_SWITCH = 1e-3
_GAP_SWITCH = 1e-1
# ``scf_solve``: the relative residual of convergence, sweeps per run, shifts per sweep.
_CONVERGED = 1e-10
_MAX_SWEEPS = 400
_MAX_SHIFT_TRIES = 40
# Root iteration of ``_downdated_bottom``: a step cap, and the relative step
# after which the iteration stops.
_MAX_SECULAR_STEPS = 50
_SECULAR_RTOL = 1e-12

SOURCE_SCF = "scf"
SOURCE_NONDIFF_1 = "nondiff1"
SOURCE_NONDIFF_2 = "nondiff2"


class NondifferentiablePointError(ValueError):
    """A quotient denominator vanishes at the given point, so the
    stationarity matrix H(x) is undefined there."""


class CommonNullViolationError(ValueError):
    """The two denominator matrices share a common null vector, which the
    degenerate-candidate search cannot handle."""


@dataclass(frozen=True, eq=False)
class Srq2Problem:
    """Validated quotient data, held once: ``a1``, ``a2`` and ``a3``,
    symmetrized, are the row blocks of the one read-only array ``stacked``
    that batch code multiplies by; b_i = alpha_i I + beta_i A3 are formed
    on each read.  Construction takes each matrix's 1-norm once, for
    ``linalg.require_psd``'s verdict on a1, a2, a3, b1 and b2 and for the
    zero thresholds ``num_eps*``/``den_eps*`` of the quotient rule.  a1 and
    a2 pass by one Cholesky each (``linalg.eigenvalues_above`` at
    -ZERO_TOL ||M||_1); an eigvalsh runs only where that fails, to give
    the verdict its smallest eigenvalue.  A3's spectrum, its diagonal where
    A3 is diagonal (always, inside the library) and one eigvalsh otherwise,
    gives the spectra of b1, b2 and their sum, whose definiteness
    ``common_null_ok`` records (no common null vector)."""

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    stacked: np.ndarray = field(init=False, repr=False)
    num_eps1: float = field(init=False, repr=False)
    num_eps2: float = field(init=False, repr=False)
    den_eps1: float = field(init=False, repr=False)
    den_eps2: float = field(init=False, repr=False)
    common_null_ok: bool = field(init=False, repr=False)

    def __post_init__(self):
        blocks = [linalg.hermitian_part(getattr(self, k), k) for k in ("a1", "a2", "a3")]
        if not (blocks[0].shape == blocks[1].shape == blocks[2].shape):
            raise ValueError("a1, a2, a3 must share one shape")
        if blocks[0].size == 0:
            raise ValueError("a1, a2, a3 must be nonempty")
        stacked = np.concatenate(blocks)
        del blocks
        stacked.setflags(write=False)
        n = stacked.shape[1]
        views = (stacked, stacked[:n], stacked[n : 2 * n], stacked[2 * n :])
        for name, value in zip(("stacked", "a1", "a2", "a3"), views):
            object.__setattr__(self, name, value)
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            val = float(getattr(self, name))
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, val)
        # alpha I + beta A3 has the eigenvalues alpha + beta w3
        a3 = self.a3
        w3 = np.sort(a3.diagonal().real) if linalg.is_diagonal(a3) else np.linalg.eigvalsh(a3)
        b1, b2 = self.b1, self.b2
        checks = (
            ("a1", self.a1, None, "num_eps1"),
            ("a2", self.a2, None, "num_eps2"),
            ("a3", a3, float(w3[0]), None),
            ("denominator matrix 1", b1, float((self.alpha1 + self.beta1 * w3).min()), "den_eps1"),
            ("denominator matrix 2", b2, float((self.alpha2 + self.beta2 * w3).min()), "den_eps2"),
        )
        for name, m, wmin, eps in checks:
            scale = linalg.norm1(m)
            # a1 and a2 pass by the inertia test; eigvalsh names the eigenvalue of a failure
            if wmin is None and not linalg.eigenvalues_above(m, -linalg.ZERO_TOL * scale):
                wmin = float(np.linalg.eigvalsh(m)[0])
            if wmin is not None:
                linalg.require_psd(wmin, scale, name)
            if eps is not None:
                object.__setattr__(self, eps, linalg.threshold(linalg.ZERO_TOL, scale))
        alpha, beta = self.alpha1 + self.alpha2, self.beta1 + self.beta2
        cut = linalg.threshold(linalg.ZERO_TOL, linalg.norm1(b1 + b2))
        object.__setattr__(self, "common_null_ok", float((alpha + beta * w3).min()) > cut)

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    @property
    def b1(self) -> np.ndarray:
        return self.alpha1 * np.eye(self.n) + self.beta1 * self.a3

    @property
    def b2(self) -> np.ndarray:
        return self.alpha2 * np.eye(self.n) + self.beta2 * self.a3


def _block_forms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Re(x* y) for each column x of X and the matching column y of each
    n-row block of Y (such as ``problem.stacked @ X``); one row per block."""
    return np.real(np.einsum("ij,kij->kj", X.conj(), Y.reshape(-1, *X.shape)))


def _denominators(problem: Srq2Problem, nrm2, q3):
    """d_i = alpha_i ||x||^2 + beta_i x* A3 x, for floats or arrays alike."""
    return problem.alpha1 * nrm2 + problem.beta1 * q3, problem.alpha2 * nrm2 + problem.beta2 * q3


def _h_combination(problem: Srq2Problem, q1, q2, d1, d2, m1, m2, m3):
    """m1 / d1 + m2 / d2 - c m3 with c = beta1 q1 / d1^2 + beta2 q2 / d2^2.

    At a unit x with forms q_i and denominators d_i, (1/d1, 1/d2, -c) are
    the weights of H(x) = sum_i w_i A_i: applied to (A1, A2, A3) this is
    H(x), to (A1 x, A2 x, A3 x) it is H(x) x, and to the unit vectors of
    R^3 the weights themselves.  Floats or arrays (a column per point)
    alike."""
    c = q1 * problem.beta1 / d1**2 + q2 * problem.beta2 / d2**2
    return m1 / d1 + m2 / d2 - c * m3


class _Point(NamedTuple):
    """A nonzero vector with what one matmul gives there: ``problem.stacked
    @ x``, the numerator and denominator forms, the objective value and
    whether both denominators are nonzero."""

    x: np.ndarray
    y: np.ndarray
    q1: float
    q2: float
    d1: float
    d2: float
    value: float
    smooth: bool


def _smooth(problem: Srq2Problem, nrm2, d1, d2):
    """Whether both denominators are nonzero, that is above den_eps ||x||^2;
    floats or arrays (a column per point) alike."""
    return (d1 > problem.den_eps1 * nrm2) & (d2 > problem.den_eps2 * nrm2)


def _quotient_sum(problem: Srq2Problem, q1, q2, nrm2, d1, d2) -> np.ndarray:
    """The quotient rule, entrywise on arrays of columns, with the
    thresholds of ``problem`` scaled by ||x||^2: a denominator
    d <= den_eps ||x||^2 vanishes; over a numerator q <= num_eps ||x||^2 the
    quotient is then 0/0 and contributes 0, over a larger one it is +inf;
    otherwise it is q / d."""

    def quotient(q, d, num_eps, den_eps):
        zero_den = d <= den_eps * nrm2
        if not zero_den.any():
            return q / d
        out = np.divide(q, d, out=np.zeros_like(q), where=~zero_den)
        out[zero_den & (q > num_eps * nrm2)] = np.inf
        return out

    return quotient(q1, d1, problem.num_eps1, problem.den_eps1) + quotient(
        q2, d2, problem.num_eps2, problem.den_eps2
    )


def _point(problem: Srq2Problem, x: np.ndarray) -> _Point:
    """The forms and the objective value at a nonzero x: q1 / d1 + q2 / d2
    where both denominators are nonzero, ``_quotient_sum`` of the one column
    x elsewhere."""
    nrm2 = float(np.real(np.vdot(x, x)))
    n = problem.n
    y = problem.stacked @ x
    q1 = float(np.real(np.vdot(x, y[:n])))
    q2 = float(np.real(np.vdot(x, y[n : 2 * n])))
    q3 = float(np.real(np.vdot(x, y[2 * n :])))
    d1, d2 = _denominators(problem, nrm2, q3)
    smooth = _smooth(problem, nrm2, d1, d2)
    if smooth:
        value = q1 / d1 + q2 / d2
    else:
        value = _quotient_sum(problem, *np.array([[q1], [q2], [nrm2], [d1], [d2]])).item()
    return _Point(x, y, q1, q2, d1, d2, value, smooth)


def _smooth_point(problem: Srq2Problem, x) -> _Point:
    """``_point`` at x normalized; raises NondifferentiablePointError where
    a quotient denominator vanishes."""
    p = _point(problem, linalg.normalize(linalg._direction(x, problem.n)))
    if not p.smooth:
        raise NondifferentiablePointError(
            "a quotient denominator vanishes at this point"
        )
    return p


def objective(problem: Srq2Problem, x) -> float:
    """Quotient-sum value at any nonzero x (scale invariant).  A quotient
    whose numerator and denominator both vanish contributes 0; a vanishing
    denominator under a positive numerator makes the value +inf."""
    return _point(problem, linalg._direction(x, problem.n)).value


class _Residual(NamedTuple):
    """H(x) at a unit vector x with H(x) x, the Rayleigh quotient
    s = x* H(x) x, ||H(x)||_1 and the relative residual
    || H(x) x - s x || / (||H(x)||_1 + 1)."""

    h: np.ndarray
    hx: np.ndarray
    s: float
    norm1: float
    rel: float

    @property
    def aufbau_bound(self) -> float:
        """The aufbau condition (x pairs with lambda_min(H(x))) bounds the gap
        s - lambda_min(H(x)) by this; ``scf_solve`` holds converged runs to it."""
        return 1e-9 * (self.norm1 + 1.0)

    def at_bottom(self) -> bool:
        """Whether the gap is within ``aufbau_bound``: lambda_min(H(x)) above
        s - bound, by ``linalg.eigenvalues_above``."""
        return linalg.eigenvalues_above(self.h, self.s - self.aufbau_bound)

    def near_bottom(self) -> bool:
        """Whether r0 = || H(x) x - lambda_min(H(x)) x || is below
        _NEWTON_SWITCH (||H(x)||_1 + 1), with no eigenvalue solve: H(x) x - s x
        is orthogonal to the unit x, so r0^2 = ||H(x) x - s x||^2 + (s -
        lambda_min)^2, and the bound holds exactly when the relative residual
        is below _NEWTON_SWITCH and lambda_min lies above s - sqrt(b^2 -
        ||H(x) x - s x||^2), b the bound (``linalg.eigenvalues_above``)."""
        slack = _NEWTON_SWITCH**2 - self.rel**2
        if slack <= 0.0:
            return False
        return linalg.eigenvalues_above(self.h, self.s - (self.norm1 + 1.0) * math.sqrt(slack))


def _residual(problem: Srq2Problem, p: _Point) -> _Residual:
    """H(x) and its residual data at the unit vector of the smooth point p."""
    h = _h_combination(problem, p.q1, p.q2, p.d1, p.d2, problem.a1, problem.a2, problem.a3)
    hx = h @ p.x
    s = float(np.real(np.vdot(p.x, hx)))
    norm1 = linalg.norm1(h)
    return _Residual(h, hx, s, norm1, float(np.linalg.norm(hx - s * p.x)) / (norm1 + 1.0))


def nepv_matrix(problem: Srq2Problem, x) -> np.ndarray:
    """Stationarity matrix H(x) at a differentiable point (x is normalized
    internally).  Raises NondifferentiablePointError when either quotient
    denominator is numerically zero."""
    return _residual(problem, _smooth_point(problem, x)).h


class ResidualInfo(NamedTuple):
    """Stationarity diagnostics at a unit vector: || H(x) x - lambda_min(H(x)) x ||
    (unscaled), the relative residual against the Rayleigh quotient
    s = x* H(x) x, the gap s - lambda_min(H(x)) and ||H(x)||_1."""

    nepv_residual: float
    rel_residual: float
    smallest_eig_gap: float
    norm1: float
    aufbau_bound = _Residual.aufbau_bound  # one bound for the runs and the certificate


def _info(res: _Residual, x: np.ndarray) -> ResidualInfo:
    """The diagnostics of ``res`` at its unit vector x, with the one
    eigenvalue solve for lambda_min(H(x))."""
    w0 = float(np.linalg.eigvalsh(res.h)[0])
    return ResidualInfo(float(np.linalg.norm(res.hx - w0 * x)), res.rel, res.s - w0, res.norm1)


def nepv_residuals(problem: Srq2Problem, x) -> ResidualInfo:
    """The diagnostics at x (normalized internally), the one place that takes
    the spectrum of H(x); NondifferentiablePointError where it is undefined."""
    p = _smooth_point(problem, x)
    return _info(_residual(problem, p), p.x)


@dataclass(frozen=True, eq=False)
class Srq2Solution:
    """A candidate minimizer with its audit trail.

    ``value`` is the objective at ``x``, a unit vector whose phase is fixed
    once, in ``_solution``, as every search returns through it;
    ``rel_residual`` is the relative residual against the Rayleigh quotient
    from the H(x) its search ended on (for an SCF run, that of its final
    iterate; NaN where H(x) is undefined), and ``nepv_residuals`` gives the
    spectrum diagnostics at x; ``iterations`` counts SCF sweeps plus Newton
    steps and ``shifts_used`` holds the level shift of each accepted sweep;
    ``source`` records which search produced the point: SOURCE_SCF, or
    SOURCE_NONDIFF_1 or SOURCE_NONDIFF_2 for a closed-form candidate where
    that quotient is 0/0 (0 iterations, ``converged`` True).  An SCF run is
    ``converged`` when it ended on an aufbau point (see ``scf_solve``).
    """

    x: np.ndarray
    value: float
    rel_residual: float
    iterations: int
    shifts_used: tuple[float, ...]
    source: str
    converged: bool


def _solution(problem, p: _Point, res: _Residual | None, *, iterations, shifts, source, converged):
    """The Srq2Solution at p, phase fixed, with the relative residual of its
    residual data ``res``; None where p is not smooth gives NaN."""
    x = linalg.fix_phase(p.x)
    return Srq2Solution(
        x=x,
        value=objective(problem, x),
        rel_residual=math.nan if res is None else res.rel,
        iterations=iterations,
        shifts_used=tuple(shifts),
        source=source,
        converged=converged,
    )


def _real(u: np.ndarray) -> np.ndarray:
    """Real form [Re u; Im u] of a complex vector or of each column."""
    return np.concatenate((u.real, u.imag))


def _newton_matrix(problem, p: _Point, h: np.ndarray) -> np.ndarray:
    """Half the Euclidean Hessian of the quotient sum at the smooth point p,
    in real form (x as [Re x; Im x]).  With a_i = A_i x, b_i = B_i x,
    B_i = alpha_i I + beta_i A3 and G = H(x) - (sum_i alpha_i q_i / d_i^2) I,

        E = real(G) + sum_i [ -(2 / d_i^2) (a_i b_i^T + b_i a_i^T)
                              + (4 q_i / d_i^3) b_i b_i^T ],

    where real(G) = [[Re G, -Im G], [Im G, Re G]] represents v -> G v.  On
    the horizontal space (orthogonal to x and i x) it is half the
    Riemannian Hessian, since the gradient 2 (H(x) x - s x) is orthogonal
    to x."""
    n = problem.n
    x, y = p.x, p.y
    e = np.empty((2 * n, 2 * n))
    e[:n, :n] = e[n:, n:] = h.real
    e[n:, :n] = h.imag
    e[:n, n:] = -h.imag
    e.reshape(-1)[:: 2 * n + 1] -= problem.alpha1 * p.q1 / p.d1**2 + problem.alpha2 * p.q2 / p.d2**2
    ax3 = y[2 * n :]
    u = _real(
        np.column_stack(
            (
                y[:n],
                problem.alpha1 * x + problem.beta1 * ax3,
                y[n : 2 * n],
                problem.alpha2 * x + problem.beta2 * ax3,
            )
        )
    )
    k = np.zeros((4, 4))
    for i, (q, d) in enumerate(((p.q1, p.d1), (p.q2, p.d2))):
        j = 2 * i
        k[j, j + 1] = k[j + 1, j] = -2.0 / d**2
        k[j + 1, j + 1] = 4.0 * q / d**3
    return e + u @ k @ u.T


def _newton_step(problem, p: _Point, res: _Residual):
    """Safeguarded Riemannian Newton step on the sphere from the smooth
    point p.  The step v solves the bordered system

        [[E, C], [C^T, 0]] [v; lam] = [-(H(x) x - s x); 0],   C = [x, i x]

    in real form, which keeps v horizontal to the phase orbit of x, and the
    new point is x + v normalized.  Returns the new point
    and its residual, or None unless it is differentiable, does not raise
    the objective beyond floating-point noise and strictly lowers the
    relative residual."""
    n = problem.n
    x = p.x
    m = 2 * n
    kkt = np.zeros((m + 2, m + 2))
    kkt[:m, :m] = _newton_matrix(problem, p, res.h)
    c = _real(np.column_stack((x, 1j * x)))
    kkt[:m, m:] = c
    kkt[m:, :m] = c.T
    rhs = np.zeros(m + 2)
    rhs[:m] = -_real(res.hx - res.s * x)
    try:
        v = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(v)):
        return None
    cand = _point(problem, linalg.normalize(x + (v[:n] + 1j * v[n:m])))
    noise = linalg.threshold(linalg.ZERO_TOL, abs(p.value))
    if not (cand.smooth and cand.value <= p.value + noise):
        return None
    cand_res = _residual(problem, cand)
    if not cand_res.rel < res.rel:
        return None
    return cand, cand_res


def _downdated_bottom(w: np.ndarray, vecs: np.ndarray, z: np.ndarray, sigma: float) -> np.ndarray:
    """Unit bottom eigenvector of H - sigma x x*, sigma > 0, from the
    eigendecomposition H = V diag(w) V* (``w`` ascending, V = ``vecs``) and
    z = V* x of a unit x.

    The bottom eigenvalue of the downdate is w0 - tau, with tau in (0, sigma]
    the root of the secular equation

        sigma sum_i |z_i|^2 / (w_i - w0 + tau) = 1,

    and V (z / (w - w0 + tau)) its eigenvector (Golub 1973; Bunch, Nielsen
    & Sorensen 1978).  The poles at zero gap merge into one of weight z0;
    the others make up phi(tau) = sum |z_i|^2 / (g_i + tau), g_i = w_i - w0.
    Each step solves the equation with phi replaced by the rational
    p + q / (g1 + tau) through its value and slope at the iterate, g1 the
    least positive gap: a quadratic in tau.  That model bounds phi from
    above, so from the upper bound sigma ||z||^2 the steps descend onto the
    root, in one step when phi has a single pole.  Where z0 = 0 and no root
    lies in (0, sigma], w0 stays the bottom eigenvalue and v0 is returned."""
    gap = w - w[0]
    z0 = 0.0
    poles = []
    for g, weight in zip(gap.tolist(), (z * z.conj()).real.tolist()):
        if g > 0.0:
            poles.append((g, weight))
        else:
            z0 += weight
    if z0 == 0.0 and sigma * sum(weight / g for g, weight in poles) <= 1.0:
        return vecs[:, 0]
    g1 = poles[0][0] if poles else 0.0
    tau = sigma * (z0 + sum(weight for _, weight in poles))
    for _ in range(_MAX_SECULAR_STEPS):
        phi = slope = 0.0  # phi(tau) and -phi'(tau)
        for g, weight in poles:
            term = weight / (g + tau)
            phi += term
            slope += term / (g + tau)
        # with p = phi - slope e and q = slope e^2, sigma (z0 / t + p +
        # q / (g1 + t)) = 1 times t (g1 + t) reads a t^2 + b t - c = 0; a > 0
        # at any iterate above the root, up to rounding
        e = g1 + tau
        a = 1.0 - sigma * (phi - slope * e)
        if a <= 0.0:
            break
        b = g1 * a - sigma * (z0 + slope * e * e)
        c = sigma * z0 * g1
        root = math.sqrt(b * b + 4.0 * a * c)
        new = 2.0 * c / (b + root) if b > 0.0 else (root - b) / (2.0 * a)
        if not 0.0 < new < tau:
            break
        step, tau = tau - new, new
        if step <= _SECULAR_RTOL * tau:
            break
    v = vecs @ (z / (gap + tau))
    return v / math.sqrt(np.vdot(v, v).real)


def scf_solve(problem: Srq2Problem, x0) -> Srq2Solution:
    """Level-shifted self-consistent-field iteration on H(x) x = mu x,
    finished by safeguarded Riemannian Newton steps.

    Each sweep diagonalizes H(x_k) and proposes the smallest eigenvector of
    the damped matrix H(x_k) - sigma x_k x_k*, trying shifts sigma = 0,
    2 delta, 4 delta, 8 delta, ... where delta is the gap between the two
    lowest eigenvalues of H(x_k).  Raising sigma pins the proposal ever
    closer to the current iterate, which suppresses the oscillation plain
    SCF is prone to.  A proposal is accepted when it strictly reduces the
    objective.  A sweep diagonalizes once, however many shifts it tries:
    H(x_k) - sigma x_k x_k* is a rank-one downdate of H(x_k) = V diag(w) V*,
    and ``_downdated_bottom`` takes its smallest eigenvector from w, V and
    z = V* x_k by a secular-equation root, in O(n^2).

    Once x sits at the bottom of H(x)'s spectrum, the iteration switches to
    Newton's method on the sphere (``_newton_step``), which converges
    quadratically near a nondegenerate minimizer.  The one test reads the
    eigenvalues w0 <= w1 <= ... of H(x): the residual r0 = || H(x) x - w0 x ||
    is at most 1e-3 (||H(x)||_1 + 1), or at most 0.1 (w1 - w0), which bounds
    the angle to the bottom eigenvector by sin <= 0.1 (Davis & Kahan 1970;
    the gap is +inf at n = 1).  The gap term hands over runs whose sweeps
    creep towards a minimizer with r0 just above the first bound.  The
    residual against the Rayleigh quotient would not do as the switch test:
    it is small next to stationary points paired with a higher eigenvalue,
    which Newton's method would then find.  The first bound takes one
    Cholesky and no eigenvalue solve (``_Residual.near_bottom``); only where
    it fails is H(x) diagonalized, and the gap term is read from that
    decomposition, which the sweep then uses.  Newton steps diagonalize
    nothing; the first rejected step returns to the level-shifted sweeps
    from the same iterate.  So ``eigh`` runs once per sweep, plus once per
    handover by the gap term alone.

    Convergence is declared at an aufbau point: the relative residual
    || H(x) x - s x || / (||H(x)||_1 + 1), s = x* H(x) x, is at most 1e-10
    and s - lambda_min(H(x)) is within ``aufbau_bound``, as at a global
    minimizer for n >= 3 (``_Residual.at_bottom``, one Cholesky).  A
    stationary point off the bottom, a saddle, takes no Newton step but a
    sweep, whose sigma = 0 proposal is the bottom eigenvector.  A run also
    stops, flagged ``converged=False``, on the sweep cap (400), on
    shift-search exhaustion (40 shifts tried in one sweep), or when a
    sweep's descent lands on the 0/0 set, where H(x) is undefined and the
    closed-form candidates of ``nondiff_candidates`` take over; a start on
    that set is returned as it is, after 0 iterations.  The last iterate is
    returned: sweeps strictly lower the objective and Newton steps raise it
    by floating-point noise at most.  ``iterations`` counts sweeps and
    Newton steps; ``shifts_used`` holds the shifts of accepted sweeps only.
    """
    p = _point(problem, linalg.normalize(linalg._direction(x0, problem.n, "x0")))
    if not p.smooth:
        return _solution(
            problem, p, None, iterations=0, shifts=(), source=SOURCE_SCF, converged=False
        )
    res = _residual(problem, p)
    shifts: list[float] = []
    newton = False
    for k in range(_MAX_SWEEPS + 1):
        stationary = res.rel <= _CONVERGED  # off the bottom, it escapes by a sweep
        converged = stationary and res.at_bottom()
        if converged or k == _MAX_SWEEPS:
            break
        eig = None  # the sweep's eigendecomposition of H(x), once taken
        if not stationary:
            switch = newton or res.near_bottom()
            if not switch:
                eig = w, vecs = np.linalg.eigh(res.h)
                r0 = float(np.linalg.norm(res.hx - w[0] * p.x))
                gap = float(w[1] - w[0]) if w.size > 1 else math.inf
                switch = r0 <= _GAP_SWITCH * gap
            step = _newton_step(problem, p, res) if switch else None
            if step is not None:
                newton = True
                p, res = step
                continue
        newton = False
        w, vecs = eig if eig is not None else np.linalg.eigh(res.h)
        delta = float(w[1] - w[0]) if w.size > 1 else 0.0
        if delta <= 1e-14:
            delta = linalg.threshold(1e-8, res.norm1)
        for t in range(_MAX_SHIFT_TRIES):
            sigma = 2.0**t * delta if t else 0.0
            if t == 1:
                z = vecs.conj().T @ p.x
            v = _downdated_bottom(w, vecs, z, sigma) if t else vecs[:, 0]
            cand = _point(problem, v)
            if cand.value < p.value - _SHIFT_SLACK:
                break
        else:  # no shift gave a descent
            break
        if not cand.smooth:  # a descent onto the 0/0 set
            break
        shifts.append(float(sigma))
        p = cand
        res = _residual(problem, p)
    return _solution(
        problem, p, res, iterations=k, shifts=shifts, source=SOURCE_SCF, converged=converged
    )


def nondiff_candidates(problem: Srq2Problem) -> list[Srq2Solution]:
    """Candidate minimizers on the set where one quotient is 0/0, each an
    Srq2Solution with source SOURCE_NONDIFF_1 or SOURCE_NONDIFF_2.

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
    out: list[Srq2Solution] = []
    specs = (
        (SOURCE_NONDIFF_1, problem.a1, problem.b1, problem.a2, problem.alpha2, problem.beta2),
        (SOURCE_NONDIFF_2, problem.a2, problem.b2, problem.a1, problem.alpha1, problem.beta1),
    )
    for source, num, den, other, alpha_o, beta_o in specs:
        q = num + den
        basis = linalg.psd_nullspace(q)
        k = basis.shape[1]
        if k == 0:
            continue
        m = basis.conj().T @ other @ basis
        nmat = alpha_o * np.eye(k) + beta_o * (basis.conj().T @ problem.a3 @ basis)
        try:
            _, v = linalg.definite_pencil_smallest(m, nmat)
        except linalg.NotPositiveDefiniteError as exc:
            raise RuntimeError(
                f"restricted denominator pencil of the {source} candidates is not "
                "definite although the denominators have no common null vector"
            ) from exc
        p = _point(problem, linalg.normalize(basis @ v))
        res = _residual(problem, p) if p.smooth else None
        out.append(
            _solution(problem, p, res, iterations=0, shifts=(), source=source, converged=True)
        )
    return out


def _single_quotient_starts(problem: Srq2Problem) -> list[np.ndarray]:
    """Minimizers of each quotient alone, used to warm start the SCF."""
    out = []
    for a, b in ((problem.a1, problem.b1), (problem.a2, problem.b2)):
        try:
            _, v = linalg.semidefinite_pencil_smallest(a, b)
        except (linalg.NotPositiveDefiniteError, linalg.IndefiniteMatrixError):
            continue
        out.append(v)
    return out


def _vector_key(x: np.ndarray) -> tuple:
    return tuple(float(part) for entry in x for part in (entry.real, entry.imag))


def _tie_bound(candidates: list[Srq2Solution]) -> float:
    """The highest value tied with the best of ``candidates`` within
    floating-point noise."""
    best = min(c.value for c in candidates)
    return best + linalg.threshold(linalg.ZERO_TOL, abs(best))


def _pick_best(candidates: list[Srq2Solution]) -> Srq2Solution:
    """Lowest value wins; among candidates tied within floating-point noise
    of the best value, prefer converged ones, then lower residual, then the
    lexicographically smallest phase-fixed vector (for determinism)."""
    tie = _tie_bound(candidates)
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


def _require_nonnegative(**values) -> None:
    """ValueError naming the first negative one of ``values``, a seed or a count."""
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")


def _random_starts(n: int, restarts: int, seed: int) -> list[np.ndarray]:
    """The ``restarts`` seeded random unit starts ``solve`` may run, in order."""
    rng = np.random.default_rng(seed)
    return [
        linalg.normalize(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for _ in range(int(restarts))
    ]


def solve(problem: Srq2Problem, *, restarts: int = 5, seed: int = 0) -> Srq2Solution:
    """Global minimization: SCF runs from the two single-quotient minimizers
    and from at most ``restarts`` seeded random unit starts, unioned with the
    degenerate 0/0 candidates, returning the Srq2Solution of lowest
    objective value.  The random starts are skipped when both
    single-quotient runs converged (so both are aufbau points), both tie
    with the best candidate within floating-point noise, and one of them is
    the pick; an aufbau point need not be global, so one run alone never
    settles it.  Ties break on convergence, then on the relative residual,
    then on the phase-fixed minimizer entries, so the result is
    deterministic for a given seed.  Each run decides its own ``converged``
    flag (``scf_solve``); nothing is run after the pick."""
    _require_nonnegative(restarts=restarts, seed=seed)

    def run_all(starts):
        return _parallel.parallel_map(lambda x0: scf_solve(problem, x0), starts)

    runs = run_all(_single_quotient_starts(problem))
    degenerate = nondiff_candidates(problem) if problem.common_null_ok else []
    if len(runs) == 2:
        tie = _tie_bound(runs + degenerate)
        best = _pick_best(runs + degenerate)
        if best.source == SOURCE_SCF and all(r.converged and r.value <= tie for r in runs):
            return best

    candidates = run_all(_random_starts(problem.n, restarts, seed)) + runs + degenerate
    if not candidates:
        raise RuntimeError("no candidate solutions were produced")
    return _pick_best(candidates)


# ---------------------------------------------------------------------------
# Sampled reference minimizer.


def _batch_forms(problem, X):
    y = problem.stacked @ X
    q1, q2, q3 = _block_forms(X, y)
    nrm2 = np.real(np.einsum("ij,ij->j", X.conj(), X))
    d1, d2 = _denominators(problem, nrm2, q3)
    return q1, q2, q3, nrm2, d1, d2


def _batch_objective(problem, X):
    q1, q2, _, nrm2, d1, d2 = _batch_forms(problem, X)
    return _quotient_sum(problem, q1, q2, nrm2, d1, d2)


# Armijo backtracking: trial steps t 2^-k for k = 0..24, sufficient decrease
# 1e-4 t ||g||^2, and no trial step at or below _MIN_STEP.
_LADDER = 0.5 ** np.arange(25)
_ARMIJO = 1e-4
_MIN_STEP = 1e-18
# The polish prices rows 0..2 of every ladder first: an accepted step doubles
# t, so the first passing trial is mostly row 1 (the last step again), row 0
# (the step grows) or row 2 (it shrinks once).  Over the oracle calls of the
# benchmark's quotient_audit seed 101, rows 3..24 hold it in 2.2 % of the
# column steps, and 4.2 % have none.
_HEAD, _TAIL = slice(3), slice(3, None)


def _with_denominators(problem, forms):
    """(q1, q2, ||x||^2, d1, d2), the arguments of ``_quotient_sum``, from the
    rows (q1, q2, q3, ||x||^2) of ``forms``: the forms of A1, A2, A3 and I."""
    q1, q2, q3, nrm2 = forms
    return np.array((q1, q2, nrm2, *_denominators(problem, nrm2, q3)))


def _ladder_objective(problem, coef, t, ladder=_LADDER):
    """Objective at x - s g for every column and every trial step s = t 2^-k
    in ``ladder`` (rows of _LADDER): along that line each quadratic form is a
    quadratic polynomial in s,

        (x - s g)* M (x - s g) = x*Mx - 2 s Re(g*Mx) + s^2 g*Mg,

    and the quotient conventions are scale invariant, so the unnormalized
    point prices the retraction (x - s g) / ||x - s g||.  ``coef[:, i]`` are
    the ``_with_denominators`` rows of x*Mx, Re(g*Mx) and g*Mg for i = 0, 1,
    2.  Each entry is elementwise arithmetic on its own row and column, so a
    subset of the rows or columns prices exactly the bits of the full
    ladder.  Returns the steps and the values, both of shape (rows, columns)."""
    s = ladder[:, None] * t
    forms = coef[:, 2, None] * s
    forms -= 2.0 * coef[:, 1, None]
    forms *= s
    forms += coef[:, 0, None]
    return s, _quotient_sum(problem, *forms)


def _first_passing(problem, coef, t, f, rows):
    """Per column, the Armijo test over the trial steps ``rows`` of the
    ladder: whether one passes, and the first that does with its value."""
    steps, values = _ladder_objective(problem, coef, t, _LADDER[rows])
    ok = (steps > _MIN_STEP) & (values <= f - _ARMIJO * steps * coef[2, 2])
    first, cols = ok.argmax(axis=0), np.arange(ok.shape[1])
    return ok.any(axis=0), steps[first, cols], values[first, cols]


def _batch_polish(problem, X, f, steps):
    """Projected gradient descent on the sphere with Armijo backtracking,
    vectorized over the sample columns.  Each step prices rows 0..2 of every
    column's backtracking ladder at once (``_ladder_objective``), rows 3..24
    only for the columns none of those accept, and takes a column's first
    trial step with sufficient decrease; an accepted step doubles (capped at
    1e6) for the next iteration, and a column whose trials all fail keeps
    the halved step, as a one-trial-at-a-time search would.  The forms at
    the columns come from one product with the stack of A1, A2, A3 and I,
    and those at their gradients from one more.  A column stops where a
    denominator vanishes, its value is +inf, its step has fallen to 1e-18 or
    its squared gradient norm to 1e-20; it can never change again, so it is
    written back to X and f once and leaves the batch.  The returned values
    are the closed-form ones."""
    n = problem.n
    s4 = np.vstack((problem.stacked, np.eye(n)))
    x, fx, t, cols = X, f, np.ones(X.shape[1]), np.arange(X.shape[1])
    for _ in range(steps):
        z = s4 @ x
        forms = _block_forms(x, z)
        q1, q2, q3, nrm2 = forms
        d1, d2 = _denominators(problem, nrm2, q3)
        live = _smooth(problem, nrm2, d1, d2) & np.isfinite(fx) & (t > _MIN_STEP)
        # d = 1 stands in on the columns that stop, so no division is by zero
        d1, d2 = np.where(live, d1, 1.0), np.where(live, d2, 1.0)
        hx = _h_combination(problem, q1, q2, d1, d2, *z[: 3 * n].reshape(3, n, -1))
        grad = hx - x * np.real(np.einsum("ij,ij->j", x.conj(), hx))
        lin, quad = _block_forms(grad, np.concatenate((z, s4 @ grad))).reshape(2, 4, -1)
        coef = _with_denominators(problem, np.array((forms, lin, quad)).swapaxes(0, 1))
        keep = live & (quad[3] > 1e-20)
        if not keep.all():
            out = ~keep
            X[:, cols[out]], f[cols[out]] = x[:, out], fx[out]
            x, grad, coef = x[:, keep], grad[:, keep], coef[..., keep]
            fx, t, cols = fx[keep], t[keep], cols[keep]
            if cols.size == 0:
                break
        acc, step, fc = _first_passing(problem, coef, t, fx, _HEAD)
        miss = np.flatnonzero(~acc)
        if miss.size:
            tail = _first_passing(problem, coef[..., miss], t[miss], fx[miss], _TAIL)
            acc[miss], step[miss], fc[miss] = tail
            # t 2^-(trials tried) where the whole ladder fails
            t[miss] *= 0.5 ** np.count_nonzero(_LADDER[:, None] * t[miss] > _MIN_STEP, axis=0)
        cand = x - grad * step
        norms = np.linalg.norm(cand, axis=0)
        norms[norms == 0.0] = 1.0
        x = np.where(acc, cand / norms, x)
        fx = np.where(acc, fc, fx)
        t = np.where(acc, np.minimum(step * 2.0, 1e6), t)
    X[:, cols], f[cols] = x, fx
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
    _require_nonnegative(polish_steps=polish_steps, polish_top=polish_top, seed=seed)
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
