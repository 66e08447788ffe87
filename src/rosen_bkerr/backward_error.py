"""Backward errors of approximate eigenvalues of Rosenbrock system matrices
under block-perturbation patterns.

For a shift lambda and a nonempty pattern of perturbable blocks among
{A, B, C, P}, the backward error is the smallest aggregate perturbation
norm making lambda an exact eigenvalue.  Every pattern is computable:

* A, B, P, AB, CP reduce to a Hermitian pencil on the null space of one
  block-row Gram matrix (possibly semidefinite on the right-hand side);
* AP, BC, ABC, ABP, BCP, ABCP reduce to a two-quotient minimization on
  the sphere;
* C, AC, BP, ACP follow by transposing the system and renaming blocks.

``ROUTES`` is the one pattern-to-route map.  ``_shift`` alone evaluates a
shift: its view holds the route, the error matrices (S(lambda) and gamma) of
the system the route solves on, and the input's S(lambda) with its 1-norm,
the one scale of the zero gate, reconstruction and the certificate.  The
view alone forms the routes' Gram matrices and weightings from them.
``backward_error`` builds one view per call, follows the route and hands
the view to ``certify``, which rebuilds the perturbation from it and the
result's (eta, x) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import linalg, srq2
from .rosenbrock import ErrorMatrices, RosenbrockSystem, _frozen, assemble_error_matrices

__all__ = [
    "BackwardErrorResult",
    "Certificate",
    "CertificateCheck",
    "METHOD_PENCIL",
    "METHOD_SRQ2",
    "METHOD_TRANSPOSED_PENCIL",
    "METHOD_TRANSPOSED_SRQ2",
    "METHOD_ZERO_EIGENVALUE",
    "PerturbationPattern",
    "ROUTES",
    "ReconstructionError",
    "Route",
    "all_patterns",
    "backward_error",
    "certify",
    "reconstruct_perturbation",
    "srq2_problem_for",
]

METHOD_ZERO_EIGENVALUE = "zero_eigenvalue"
METHOD_PENCIL = "pencil"
METHOD_SRQ2 = "srq2"
METHOD_TRANSPOSED_PENCIL = f"transposed_{METHOD_PENCIL}"
METHOD_TRANSPOSED_SRQ2 = f"transposed_{METHOD_SRQ2}"

_LETTERS = "ABCP"

_FEAS_TOL = 1e-8
_NORM_MATCH_TOL = 1e-10
_NEPV_CERT_TOL = 1e-9
_PENCIL_CERT_TOL = 1e-10


class ReconstructionError(ValueError):
    """The given minimizer violates a feasibility constraint of the pattern,
    so no pattern-restricted perturbation maps exist at it."""


@dataclass(frozen=True)
class PerturbationPattern:
    """A nonempty subset of the perturbable blocks A, B, C, P."""

    blocks: frozenset[str]

    def __post_init__(self):
        blocks = frozenset(self.blocks)
        bad = sorted(blocks - set(_LETTERS))
        if bad:
            raise ValueError(
                f"unknown block letter(s) {bad}; valid letters are A, B, C, P"
            )
        if not blocks:
            raise ValueError("a perturbation pattern must name at least one block")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_string(cls, text: str) -> "PerturbationPattern":
        return cls(frozenset(text.strip()))

    @property
    def letters(self) -> str:
        """Canonical spelling, letters in the fixed order A < B < C < P."""
        return "".join(c for c in _LETTERS if c in self.blocks)

    def __str__(self) -> str:
        return self.letters

    def issubset(self, other: "PerturbationPattern") -> bool:
        return self.blocks <= other.blocks


@dataclass(frozen=True)
class Route:
    """How the backward error of one pattern is computed.

    ``kind`` (METHOD_PENCIL or METHOD_SRQ2) is solved for the pattern
    ``inner``: on the system itself, or on its transpose when
    ``transposed``.  A pencil route restricts to the null space of the Gram
    matrix of the block row its pattern freezes, with the right-hand side
    ``rhs`` (the projector "H1" or "H2", the weighting "Hlam", or the
    identity for None).  An SRQ2 route takes its scalar pairs from
    ``srq2.PATTERN_SCALARS[inner]``.  With
    ``over_gamma`` the second block row's Gram matrix G2 enters divided by
    the polynomial weight gamma, which scales the value by 1/gamma.
    """

    kind: str
    inner: str
    transposed: bool = False
    rhs: str | None = None
    over_gamma: bool = False


ROUTES = MappingProxyType(
    {
        "A": Route(METHOD_PENCIL, "A", rhs="H1"),
        "B": Route(METHOD_PENCIL, "B", rhs="H2"),
        "C": Route(METHOD_PENCIL, "B", transposed=True, rhs="H2"),
        "P": Route(METHOD_PENCIL, "P", rhs="H2", over_gamma=True),
        "AB": Route(METHOD_PENCIL, "AB"),
        "AC": Route(METHOD_PENCIL, "AB", transposed=True),
        "AP": Route(METHOD_SRQ2, "AP", over_gamma=True),
        "BC": Route(METHOD_SRQ2, "BC"),
        "BP": Route(METHOD_PENCIL, "CP", transposed=True, rhs="Hlam"),
        "CP": Route(METHOD_PENCIL, "CP", rhs="Hlam"),
        "ABC": Route(METHOD_SRQ2, "ABC"),
        "ABP": Route(METHOD_SRQ2, "ABP", over_gamma=True),
        "ACP": Route(METHOD_SRQ2, "ABP", transposed=True, over_gamma=True),
        "BCP": Route(METHOD_SRQ2, "BCP"),
        "ABCP": Route(METHOD_SRQ2, "ABCP"),
    }
)


def all_patterns() -> tuple[PerturbationPattern, ...]:
    """All 15 patterns, ordered by size then canonical spelling."""
    spellings = sorted(ROUTES, key=lambda s: (len(s), s))
    return tuple(PerturbationPattern.from_string(s) for s in spellings)


def _as_pattern(pattern) -> PerturbationPattern:
    if isinstance(pattern, PerturbationPattern):
        return pattern
    return PerturbationPattern.from_string(str(pattern))


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    value: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class Certificate:
    """Certification quantities re-derived from a result's (eta, x) alone,
    with the perturbation rebuilt from them (None when x is infeasible).
    It passes when the perturbation was rebuilt and every check passes."""

    checks: tuple[CertificateCheck, ...]
    perturbation: RosenbrockSystem | None
    perturbed_residual: float
    """||(S - Delta S)(lam) x|| at the unit x, an upper bound on sigma_min of
    S - Delta (Delta = 0 at the zero gate); NaN where x is missing or infeasible."""
    nepv_residual: float | None = None
    """SRQ2 routes, where H(x) is defined: ||H(x) x - s x|| / (||H(x)||_1 + 1),
    s = x* H(x) x, the ``rel_residual`` of ``srq2.nepv_residuals``, unlike its
    unscaled ``nepv_residual`` against lambda_min(H(x)); None elsewhere."""
    pencil_residual: float | None = None
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None and all(c.passed for c in self.checks)

    @property
    def delta_norm(self) -> float:
        """Aggregate norm of the rebuilt perturbation; NaN without one."""
        return math.nan if self.perturbation is None else self.perturbation.norm()


@dataclass(frozen=True, eq=False)
class BackwardErrorResult:
    """Backward error ``eta`` (may be +inf) with its minimizer and audit data.

    For transposed patterns ``x`` is the minimizer of the transposed
    problem (flagged by ``transposed``); the perturbation, the one the
    certificate rebuilt from (eta, x), always applies to the original
    system.
    """

    eta: float
    x: np.ndarray | None
    method: str
    pattern: PerturbationPattern
    lam: complex
    solver: srq2.Srq2Solution | None = None
    infeasibility_witness: str | None = None
    certificate: Certificate | None = None

    @property
    def converged(self) -> bool:
        """True unless an SRQ2 solve stopped short or found no finite value."""
        return self.solver is None or (self.solver.converged and math.isfinite(self.eta))

    @property
    def transposed(self) -> bool:
        """Whether ``x`` belongs to the transposed system's problem."""
        return self.method.startswith("transposed_")

    @property
    def perturbation(self) -> RosenbrockSystem | None:
        """The minimal perturbation the certificate rebuilt, as a system of
        the original's shapes; ``system - perturbation`` has lam as an
        eigenvalue."""
        return None if self.certificate is None else self.certificate.perturbation


def _restrict(m: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis* m basis, symmetrized; a vector m stands for its diagonal matrix."""
    left = basis.conj().T * m if m.ndim == 1 else basis.conj().T @ m
    out = left @ basis
    return (out + out.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class _Shift:
    """One call's view of (lam, pattern): ``em`` belongs to the system the
    route solves on, ``s`` is S(lam) of the input system and ``scale`` its
    1-norm.  The view alone forms the Hermitian data of the routes from
    ``em``: the Gram matrices G1 and G2 of the block rows of em.s, and the
    weightings H1, H2 and Hlam = H1 + gamma H2 as their diagonals.  The
    solve, the certificate and the reconstruction share it, and what they
    derive from it is computed once, on first read."""

    pattern: PerturbationPattern
    lam: complex
    route: Route
    em: ErrorMatrices
    s: np.ndarray
    scale: float

    @cached_property
    def smin(self) -> float:
        """sigma_min(S(lam)), the zero gate's value: the only SVD of a call
        the gate lets through."""
        return linalg.smallest_singular_value(self.s)

    def _gram(self, row: int) -> np.ndarray:
        """G1 (row 1) or G2 (row 2): the Gram matrix of a block row of em.s."""
        rows = self.em.s[: self.em.r] if row == 1 else self.em.s[self.em.r :]
        return linalg.hermitian_part(rows.conj().T @ rows, f"g{row}")

    @property
    def _h2(self) -> np.ndarray:
        """The diagonal of H2, the trailing-coordinate indicator; H1 = I - H2."""
        return (np.arange(len(self.em.s)) >= self.em.r).astype(float)

    @cached_property
    def problem(self) -> srq2.Srq2Problem:
        """The quotient data of an SRQ2 route."""
        em, route = self.em, self.route
        g2 = self._gram(2)
        a2 = g2 / em.gamma if route.over_gamma else g2
        scalars = srq2.PATTERN_SCALARS[route.inner](em.gamma)
        return srq2.Srq2Problem(self._gram(1), a2, np.diag(self._h2), *scalars)

    @cached_property
    def pencil(self) -> tuple:
        """Of a pencil route: the basis of the null space of the Gram matrix
        of the block row the pattern freezes and the pencil (M, N) restricted
        to it, all three read-only, the name of N, and the factor that turns
        the pencil's eigenvalue into eta^2."""
        em, route = self.em, self.route
        if "A" in route.inner or "B" in route.inner:  # C and P are frozen
            basis, numerator, v = linalg.psd_nullspace(self._gram(2)), self._gram(1), "V"
        else:  # A and B are frozen
            basis, numerator, v = linalg.psd_nullspace(self._gram(1)), self._gram(2), "U"
        if route.rhs is None:
            nmat = np.eye(basis.shape[1], dtype=np.complex128)
        else:
            h2 = self._h2
            h1 = 1.0 - h2
            nmat = _restrict({"H1": h1, "H2": h2, "Hlam": h1 + em.gamma * h2}[route.rhs], basis)
        scale = 1.0 / em.gamma if route.over_gamma else 1.0
        m = _restrict(numerator, basis)
        return _frozen(basis), _frozen(m), _frozen(nmat), f"{v}*{route.rhs}{v}", scale


def _shift(system: RosenbrockSystem, lam, pattern) -> _Shift:
    """The view of (lam, pattern): one evaluation of S(lam); a transposed
    route solves on a C-ordered copy of S(lam)^T, whose ``.T`` is ``s``."""
    pattern = _as_pattern(pattern)
    route = ROUTES[pattern.letters]
    em = assemble_error_matrices(system, lam)
    if route.transposed:
        em = replace(em, s=_frozen(em.s.T.copy()))
    s = em.s.T if route.transposed else em.s
    return _Shift(pattern, complex(lam), route, em, s, linalg.norm1(s))


def srq2_problem_for(system: RosenbrockSystem, lam, pattern) -> srq2.Srq2Problem:
    """Quotient data of a pattern that reduces to the two-quotient
    minimization, assembled on the system its route solves on: the
    transpose for ACP, whose minimizers belong to the transposed system.
    A3 is always the trailing-coordinate projector."""
    view = _shift(system, lam, pattern)
    if view.route.kind != METHOD_SRQ2:
        raise ValueError(f"pattern {view.pattern} does not reduce to a two-quotient minimization")
    return view.problem


def _solve_pencil(view: _Shift):
    """(squared value, minimizer, infeasibility witness) of a pencil route."""
    basis, m, nmat, rhs_name, scale = view.pencil
    try:
        value, y = linalg.semidefinite_pencil_smallest(m, nmat)
    except linalg.ZeroPencilError:
        return math.inf, None, f"{rhs_name} = 0"
    return scale * value, linalg.fix_phase(linalg.normalize(basis @ y)), None


def backward_error(
    system: RosenbrockSystem, lam, pattern, *, restarts: int = 5, seed: int = 0
) -> BackwardErrorResult:
    """Backward error of the shift ``lam`` under the given pattern, with a
    certificate and the minimal perturbation it rebuilds from (eta, x).

    Returns eta = 0 immediately when lam is already a numerical eigenvalue
    (the zero perturbation works for every pattern), eta = +inf with a
    witness when the pattern admits no feasible perturbation.  A
    transposed route solves its inner pattern on the transposed system;
    the perturbation is mapped back and certified on the original system.
    """
    srq2._require_nonnegative(restarts=restarts, seed=seed)  # on every route
    view = _shift(system, lam, pattern)
    route = view.route
    solver = witness = None
    if view.smin <= linalg.threshold(linalg.ZERO_TOL, view.scale):
        method = METHOD_ZERO_EIGENVALUE
        value, x = 0.0, linalg.fix_phase(np.linalg.svd(view.s)[2][-1].conj())
    else:
        method = f"transposed_{route.kind}" if route.transposed else route.kind
        if route.kind == METHOD_PENCIL:
            value, x, witness = _solve_pencil(view)
        else:
            solver = srq2.solve(view.problem, restarts=restarts, seed=seed)
            value, x = solver.value, solver.x
            if not math.isfinite(value):
                value, x = math.inf, None
                witness = "quotient-sum objective was unbounded at every candidate"
        if witness is not None and route.transposed:
            witness = f"transposed system: {witness}"
    result = BackwardErrorResult(
        eta=math.sqrt(max(value, 0.0)),
        x=x,
        method=method,
        pattern=view.pattern,
        lam=view.lam,
        solver=solver,
        infeasibility_witness=witness,
    )
    if witness is None:
        result = replace(result, certificate=certify(system, result, _view=view))
    return result


def _row_maps(rhs: np.ndarray, parts: dict, open_blocks: str, res_tol: float) -> list:
    """Minimal-Frobenius-norm maps, one per block of a block row, with
    sum_k D_k parts[k] = rhs, where the blocks the pattern freezes keep zero
    maps.  Raises ReconstructionError when the open blocks' coordinates
    vanish but the row's residual does not."""
    opened = [v for k, v in parts.items() if k in open_blocks]
    v = np.concatenate(opened) if opened else np.zeros(0, dtype=np.complex128)
    feasible = np.linalg.norm(v) > _FEAS_TOL
    if not feasible and np.linalg.norm(rhs) > res_tol:
        raise ReconstructionError(
            "a block row is not annihilated at the minimizer and the "
            f"pattern's blocks in it ({', '.join(parts)}) cannot act on it"
        )
    nv2 = float(np.real(np.vdot(v, v)))
    return [
        np.outer(rhs, part.conj()) / nv2
        if feasible and k in open_blocks
        else np.zeros((rhs.size, part.size), dtype=np.complex128)
        for k, part in parts.items()
    ]


def reconstruct_perturbation(
    system: RosenbrockSystem, lam, pattern, x, *, _view=None
) -> RosenbrockSystem:
    """Minimal-Frobenius-norm perturbation supported on the pattern that
    makes lam an exact eigenvalue with null vector x, as a system of the
    original's shapes (``system - delta`` is the perturbed system).

    Each block row of S(lam) x is cancelled by the minimal map onto the
    coordinates the pattern opens up: x1 for A and C, x2 for B, and
    [x2; lam x2; ...; lam^d x2] for P.  A row whose open coordinates vanish
    must already be annihilated by x, else the point is infeasible and
    ReconstructionError is raised.  For transposed patterns x is
    interpreted against the transposed system and the perturbation is
    mapped back.  ``certify`` passes its view of (lam, pattern) as ``_view``.
    """
    view = _shift(system, lam, pattern) if _view is None else _view
    route, lam, s_mat, r = view.route, view.lam, view.em.s, view.em.r
    n, d = s_mat.shape[0] - r, system.d
    x = linalg.normalize(linalg._direction(x, r + n))
    x1, x2 = x[:r], x[r:]
    res_tol = linalg.threshold(_FEAS_TOL, view.scale)
    trailing = np.concatenate([(lam**j) * x2 for j in range(d + 1)])
    dA, dB = _row_maps(s_mat[:r] @ x, {"A": x1, "B": x2}, route.inner, res_tol)
    dC, dP = _row_maps(s_mat[r:] @ x, {"C": x1, "P": trailing}, route.inner, res_tol)
    delta = RosenbrockSystem(dA, dB, dC, tuple(dP[:, j * n : (j + 1) * n] for j in range(d + 1)))
    return delta.transpose() if route.transposed else delta


def _check(name: str, value: float, bound: float) -> CertificateCheck:
    return CertificateCheck(name=name, value=value, bound=bound, passed=value <= bound)


def certify(system: RosenbrockSystem, result: BackwardErrorResult, *, _view=None) -> Certificate:
    """Re-derive every certification quantity from the result's stored
    (eta, x) at its own shift and pattern: rebuild the pattern perturbation
    at x, compare its aggregate norm with eta, bound ||(S - Delta S)(lam) x||
    (no SVD: at the unit x it bounds sigma_min of S - Delta from above), and
    recompute the pencil residual at the unit x, or on an SRQ2 route where
    H(x) is defined the stationarity residual and the aufbau gap s -
    lambda_min(H(x)).  Passes only when every check meets its bound; only x's
    direction counts, and a non-finite, zero or wrong-length x is a
    ValueError naming x.  ``backward_error`` passes its view as ``_view``."""
    view = _shift(system, result.lam, result.pattern) if _view is None else _view
    x = None if result.x is None else linalg._direction(result.x, len(view.s))
    feas_bound = linalg.threshold(_FEAS_TOL, view.scale)

    if result.method == METHOD_ZERO_EIGENVALUE:
        zero = RosenbrockSystem(*(np.zeros_like(m) for m in (system.A, system.B, system.C)),
                                tuple(map(np.zeros_like, system.poly_coeffs)))
        checks = (
            _check("sigma_min of the unperturbed evaluation", view.smin, feas_bound),
            _check("eta equals the zero perturbation's norm", abs(result.eta), 0.0),
        )
        residual = math.nan if x is None else float(np.linalg.norm(view.s @ linalg.normalize(x)))
        return Certificate(checks, zero, residual)

    if not math.isfinite(result.eta) or x is None:
        raise ValueError("certify requires a finite result carrying a minimizer")

    try:
        delta = reconstruct_perturbation(system, view.lam, view.pattern, x, _view=view)
    except ReconstructionError as exc:
        return Certificate((), None, math.nan, failure=str(exc))

    eta = result.eta
    delta_norm = delta.norm()
    norm_match = abs(delta_norm - eta) / eta if eta > 0.0 else abs(delta_norm)
    # Delta S(lam) has no -lam I, so it is not delta.evaluate(lam)
    ds = np.block([[delta.A, delta.B], [delta.C, delta.poly_at(view.lam)]])
    u = linalg.normalize(x)
    residual = float(np.linalg.norm((view.em.s - (ds.T if view.route.transposed else ds)) @ u))
    checks = [
        _check("perturbation norm matches eta (relative)", norm_match, _NORM_MATCH_TOL),
        _check("residual of the perturbed evaluation at x", residual, feas_bound),
    ]

    nepv_residual = pencil_residual = None
    if view.route.kind == METHOD_SRQ2:
        try:
            info = srq2.nepv_residuals(view.problem, x)
        except srq2.NondifferentiablePointError:  # a 0/0 point: no H(x)
            pass
        else:  # stationary, and paired with the smallest eigenvalue of H(x)
            nepv_residual = info.rel_residual
            checks += [
                _check("stationarity residual (relative)", nepv_residual, _NEPV_CERT_TOL),
                _check("aufbau gap s - lambda_min(H)", info.smallest_eig_gap, info.aufbau_bound),
            ]
    else:
        basis, m, nmat, _, scale = view.pencil
        y = basis.conj().T @ u
        mu = eta**2 / scale
        pencil_residual = float(np.linalg.norm(m @ y - mu * (nmat @ y)))
        bound = _PENCIL_CERT_TOL * (linalg.norm1(m) + mu * linalg.norm1(nmat))
        checks.append(_check("pencil eigenpair residual", pencil_residual, bound))

    return Certificate(tuple(checks), delta, residual, nepv_residual, pencil_residual)
