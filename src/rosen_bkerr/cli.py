"""Command-line interface: compute backward errors, sample joint numerical
range boundaries, re-certify stored results, and audit the solver against
the sampled oracle.

File formats are JSON throughout, with complex entries encoded as
[real, imag] pairs, plus one CSV output for boundary samples.  All runs
are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import jnr, srq2
from .backward_error import (
    BackwardErrorResult,
    PerturbationPattern,
    backward_error,
    certify,
    srq2_problem_for,
)
from .rosenbrock import RosenbrockSystem

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


class CliInputError(Exception):
    """Invalid input file, flag, or value; maps to exit code 1."""


# ---------------------------------------------------------------------------
# JSON encoding of complex data.


def _pair_to_complex(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in value)
    ):
        raise CliInputError(f"{where}: expected a [real, imag] number pair")
    re_part, im_part = float(value[0]), float(value[1])
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise CliInputError(f"{where}: entries must be finite")
    return complex(re_part, im_part)


def _nested_to_matrix(value, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise CliInputError(f"{where}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise CliInputError(f"{where}: row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _pair_to_complex(entry, f"{where}[{i}][{j}]")
    return out


def _matrix_to_nested(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=np.complex128)]


def _vector_to_pairs(x: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(x, dtype=np.complex128).ravel()]


def _pairs_to_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise CliInputError(f"{where}: expected a nonempty list of [real, imag] pairs")
    return np.array([_pair_to_complex(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _require_int(doc: dict, key: str, where: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliInputError(f"{where}: field {key!r} must be an integer")
    return value


def _read_object(path) -> dict:
    """The JSON object stored in the file ``path``."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliInputError(f"{path}: top level must be an object")
    return doc


def load_system_document(path) -> RosenbrockSystem:
    """Parse and validate a system document, rejecting missing fields,
    dimension mismatches, ragged rows and non-finite entries."""
    return _system_from_document(_read_object(path), str(path))


def _system_from_document(doc: dict, where: str) -> RosenbrockSystem:
    r = _require_int(doc, "r", where)
    n = _require_int(doc, "n", where)
    d = _require_int(doc, "d", where)
    if r < 1 or n < 1 or d < 0:
        raise CliInputError(f"{where}: need r >= 1, n >= 1, d >= 0")
    coeffs_raw = doc.get("polyCoeffs")
    if not isinstance(coeffs_raw, list) or len(coeffs_raw) != d + 1:
        raise CliInputError(f"{where}: polyCoeffs must hold d+1 = {d + 1} matrices")
    try:
        return RosenbrockSystem(
            A=_nested_to_matrix(doc.get("A"), r, r, f"{where}: A"),
            B=_nested_to_matrix(doc.get("B"), r, n, f"{where}: B"),
            C=_nested_to_matrix(doc.get("C"), n, r, f"{where}: C"),
            poly_coeffs=tuple(
                _nested_to_matrix(c, n, n, f"{where}: polyCoeffs[{j}]")
                for j, c in enumerate(coeffs_raw)
            ),
        )
    except ValueError as exc:
        raise CliInputError(f"{where}: {exc}") from exc


def system_to_document(system: RosenbrockSystem) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "r": system.r,
        "n": system.n,
        "d": system.d,
        "A": _matrix_to_nested(system.A),
        "B": _matrix_to_nested(system.B),
        "C": _matrix_to_nested(system.C),
        "polyCoeffs": [_matrix_to_nested(c) for c in system.poly_coeffs],
    }


def _srq2_from_document(doc: dict, where: str) -> srq2.Srq2Problem:
    n = _require_int(doc, "n", where)
    if n < 1:
        raise CliInputError(f"{where}: need n >= 1")
    params = {}
    for key in ("alpha1", "beta1", "alpha2", "beta2"):
        value = doc.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CliInputError(f"{where}: field {key!r} must be a number")
        params[key] = float(value)
    try:
        return srq2.Srq2Problem(
            a1=_nested_to_matrix(doc.get("A1"), n, n, f"{where}: A1"),
            a2=_nested_to_matrix(doc.get("A2"), n, n, f"{where}: A2"),
            a3=_nested_to_matrix(doc.get("A3"), n, n, f"{where}: A3"),
            **params,
        )
    except ValueError as exc:
        raise CliInputError(f"{where}: {exc}") from exc


_COMPLEX_RE = re.compile(
    r"^\s*([+-]?\d+\.\d+(?:[eE][+-]?\d+)?)([+-]\d+\.\d+(?:[eE][+-]?\d+)?)i\s*$"
)


def parse_complex_literal(text: str) -> complex:
    """Parse the shift literal 'a+bi' (decimal points mandatory in both parts)."""
    match = _COMPLEX_RE.match(text)
    if not match:
        raise CliInputError(
            f"invalid shift literal {text!r}; expected the form a+bi with "
            "decimal points, e.g. 1.0+2.0i"
        )
    return complex(float(match.group(1)), float(match.group(2)))


# ---------------------------------------------------------------------------
# Result documents.


def result_to_document(result: BackwardErrorResult) -> dict:
    cert = result.certificate
    certificates = None
    if cert is not None:
        certificates = {
            "passed": cert.passed,
            "deltaNorm": cert.delta_norm,
            "perturbedResidual": cert.perturbed_residual,
            "nepvResidual": cert.nepv_residual,
            "pencilResidual": cert.pencil_residual,
            "failure": cert.failure,
            "checks": [
                {"name": c.name, "value": c.value, "bound": c.bound, "passed": c.passed}
                for c in cert.checks
            ],
        }
    return _json_safe({
        "schemaVersion": SCHEMA_VERSION,
        "pattern": result.pattern.letters,
        "lambda": [result.lam.real, result.lam.imag],
        "eta": result.eta,
        "method": result.method,
        "transposed": result.transposed,
        "x": None if result.x is None else _vector_to_pairs(result.x),
        "infeasibilityWitness": result.infeasibility_witness,
        "certificates": certificates,
        "solver": None if result.solver is None else _solver_document(result.solver),
    })


def _solver_document(sol: srq2.Srq2Solution) -> dict:
    return {
        "iterations": sol.iterations,
        "residual": sol.rel_residual,
        "shiftsUsed": list(sol.shifts_used),
        "converged": sol.converged,
    }


def _json_safe(value):
    """``value`` with every float made valid JSON: NaN becomes None and
    +-inf the strings "inf" and "-inf", inside dicts and lists too."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def serialize_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8", newline="")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_compute(args) -> int:
    system = load_system_document(args.system)
    lam = parse_complex_literal(args.lam)
    try:
        pattern = PerturbationPattern.from_string(args.pattern)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    try:
        result = backward_error(system, lam, pattern, restarts=args.restarts, seed=args.seed)
    except ValueError as exc:  # a shift whose evaluation overflows
        raise CliInputError(str(exc)) from exc
    doc = result_to_document(result)
    _write_output(serialize_document(doc), args.out)
    if math.isinf(result.eta):
        print(f"eta = inf ({result.infeasibility_witness})", file=sys.stderr)
        return EXIT_OK
    certified = result.certificate is not None and result.certificate.passed
    print(
        f"eta = {result.eta:.12e} method = {result.method} "
        f"converged = {result.converged} certified = {certified}",
        file=sys.stderr,
    )
    return EXIT_OK if (result.converged and certified) else EXIT_NOT_CERTIFIED


def cmd_jnr(args) -> int:
    doc = _read_object(args.system)
    where = str(args.system)
    if "A1" in doc:
        problem = _srq2_from_document(doc, where)
    else:
        system = _system_from_document(doc, where)
        if args.lam is None:
            raise CliInputError("--lambda is required with a system document")
        lam = parse_complex_literal(args.lam)
        try:
            problem = srq2_problem_for(system, lam, args.pattern)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
    matrices = (problem.a1, problem.a2, problem.a3)
    directions = jnr.direction_grid(args.samples)
    points = jnr.boundary_sample(matrices, directions)
    lines = ["vx,vy,vz,y1,y2,y3,support"]
    for p in points:
        fields = [*p.direction, *p.point, p.support_value]
        lines.append(",".join(repr(float(v)) for v in fields))
    csv_text = "\n".join(lines) + "\n"
    _write_output(csv_text, args.out)

    solution = srq2.solve(problem, restarts=args.restarts, seed=args.seed)
    try:
        support_gap = srq2.nepv_residuals(problem, solution.x).smallest_eig_gap
    except srq2.NondifferentiablePointError:
        support_gap = None
    y_star = jnr.rho(matrices, solution.x)
    # g(rho(w)) = f(w) at a unit witness w
    boundary_min = min(srq2.objective(problem, p.witness) for p in points)
    sidecar = _json_safe({
        "schemaVersion": SCHEMA_VERSION,
        "objectiveAtSolution": solution.value,
        "rhoAtSolution": [float(v) for v in y_star],
        "supportGap": support_gap,
        "boundaryObjectiveGap": boundary_min - solution.value,
        "solver": _solver_document(solution),
    })
    meta_path = None if args.out is None else f"{args.out}.meta.json"
    _write_output(serialize_document(sidecar), meta_path)
    return EXIT_OK


def cmd_certify(args) -> int:
    system = load_system_document(args.system)
    doc = _read_object(args.result)
    where = str(args.result)
    try:
        pattern = PerturbationPattern.from_string(str(doc.get("pattern", "")))
    except ValueError as exc:
        raise CliInputError(f"{where}: {exc}") from exc
    lam = _pair_to_complex(doc.get("lambda"), f"{where}: lambda")
    eta_field = doc.get("eta")
    if eta_field == "inf":
        raise CliInputError(f"{where}: cannot re-certify an infinite backward error")
    finite = isinstance(eta_field, (int, float)) and math.isfinite(eta_field)
    if isinstance(eta_field, bool) or not finite:
        raise CliInputError(f"{where}: eta must be a finite number or 'inf'")
    x_field = doc.get("x")
    if x_field is None:
        raise CliInputError(f"{where}: result carries no minimizer to certify")
    stored = BackwardErrorResult(
        eta=float(eta_field),
        x=_pairs_to_vector(x_field, f"{where}: x"),
        method=str(doc.get("method", "")),
        pattern=pattern,
        lam=lam,
    )
    try:
        cert = certify(system, stored)
    except ValueError as exc:
        raise CliInputError(f"{where}: {exc}") from exc
    header = f"{'check':<42} {'value':>14} {'bound':>14} verdict"
    print(header)
    print("-" * len(header))
    for c in cert.checks:
        verdict = "pass" if c.passed else "FAIL"
        print(f"{c.name:<42} {c.value:>14.6e} {c.bound:>14.6e} {verdict}")
    if cert.failure:
        print(f"reconstruction failed: {cert.failure}")
    print(f"certificate: {'PASS' if cert.passed else 'FAIL'}")
    return EXIT_OK if cert.passed else EXIT_NOT_CERTIFIED


def cmd_oracle_check(args) -> int:
    if args.n > 6:
        raise CliInputError("oracle-check supports n <= 6")
    if args.n < 2:
        raise CliInputError("oracle-check needs n >= 2")
    if args.trials == 0:
        print("warning: zero trials requested; vacuously passing", file=sys.stderr)
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    tol_match = 1e-4
    undercut_tol = 1e-8
    within = 0
    worst = 0.0
    undercut = False
    for trial in range(args.trials):
        template = srq2.PATTERN_TEMPLATES[trial % len(srq2.PATTERN_TEMPLATES)]
        problem = srq2.random_problem(
            args.n, rng, template, rank_deficient=(trial % 5 == 4)
        )
        solver_seed = int(rng.integers(2**31 - 1))
        oracle_seed = int(rng.integers(2**31 - 1))
        sol = srq2.solve(problem, restarts=args.restarts, seed=solver_seed)
        oracle = srq2.brute_force_oracle(problem, args.budget, seed=oracle_seed)
        if math.isinf(sol.value) and math.isinf(oracle):
            within += 1
            continue
        diff = sol.value - oracle
        worst = max(worst, abs(diff))
        if abs(diff) <= tol_match:
            within += 1
        if diff < -undercut_tol:
            undercut = True
            print(
                f"trial {trial}: solver {sol.value:.12e} undercuts oracle "
                f"{oracle:.12e} ({template}, n={args.n})",
                file=sys.stderr,
            )
    needed = math.ceil(0.95 * args.trials)
    print(
        f"oracle-check: {within}/{args.trials} trials within {tol_match:g} "
        f"(need {needed}); max discrepancy {worst:.3e}; undercut: {undercut}"
    )
    return EXIT_OK if (within >= needed and not undercut) else EXIT_NOT_CERTIFIED


# ---------------------------------------------------------------------------
# Argument parsing.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosen-bkerr",
        description="Structured eigenvalue backward errors of Rosenbrock system matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the solver settings of every command that solves
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument(
        "--restarts",
        type=int,
        default=5,
        help="most seeded random SCF starts per two-quotient solve, run only "
        "when the two single-quotient starts do not agree (default 5)",
    )
    solver.add_argument("--seed", type=int, default=0)

    p_compute = sub.add_parser(
        "compute", parents=[solver], help="backward error of a shift under a pattern"
    )
    p_compute.add_argument("--system", required=True, help="system document (JSON)")
    p_compute.add_argument("--lambda", dest="lam", required=True, help="shift literal a+bi")
    p_compute.add_argument("--pattern", default="ABCP", help="perturbable blocks, e.g. AP")
    p_compute.add_argument("--out", default=None, help="result document path (default stdout)")
    p_compute.set_defaults(func=cmd_compute)

    p_jnr = sub.add_parser(
        "jnr", parents=[solver], help="sample the joint numerical range boundary"
    )
    p_jnr.add_argument(
        "--system",
        required=True,
        help="system document, or a quotient-problem document with A1/A2/A3",
    )
    p_jnr.add_argument("--lambda", dest="lam", default=None, help="shift literal a+bi")
    p_jnr.add_argument("--pattern", default="ABCP")
    p_jnr.add_argument("--samples", type=int, default=800)
    p_jnr.add_argument("--out", default=None, help="CSV path (sidecar written next to it)")
    p_jnr.set_defaults(func=cmd_jnr)

    p_cert = sub.add_parser("certify", help="re-certify a stored result document")
    p_cert.add_argument("--system", required=True)
    p_cert.add_argument("--result", required=True, help="result document (JSON)")
    p_cert.set_defaults(func=cmd_certify)

    p_oracle = sub.add_parser(
        "oracle-check", parents=[solver], help="audit the solver against the sampled oracle"
    )
    p_oracle.add_argument("--n", type=int, default=3, help="problem dimension (<= 6)")
    p_oracle.add_argument("--trials", type=int, default=50)
    p_oracle.add_argument("--budget", type=int, default=5000)
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


# The least value of each integer flag, checked by ``main`` before any
# command reads or writes a file.
_FLAG_FLOORS = {"seed": 0, "restarts": 0, "samples": 1, "trials": 0, "budget": 1}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    try:
        for flag, least in _FLAG_FLOORS.items():
            if getattr(args, flag, least) < least:
                floor = "nonnegative" if least == 0 else f"at least {least}"
                raise CliInputError(f"{flag} must be {floor}")
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
