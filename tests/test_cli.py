"""Command-line interface: document parsing, exit codes, round trips, and
deterministic outputs."""

import json

import numpy as np
import pytest

from rosen_bkerr import cli, jnr, srq2
from rosen_bkerr.backward_error import all_patterns, backward_error, srq2_problem_for
from rosen_bkerr.rosenbrock import RosenbrockSystem
from support import (
    EXAMPLE_A1,
    EXAMPLE_A2,
    EXAMPLE_A3,
    EXAMPLE_PARAMS,
    SOLVE_VALUE,
    example_problem,
    random_system,
    tiny_coupling_system,
)


def write_system(tmp_path, system, name="system.json"):
    path = tmp_path / name
    path.write_text(cli.serialize_document(cli.system_to_document(system)))
    return path


def write_quotient_doc(tmp_path, name="problem.json"):
    def nested(m):
        return [[[float(v), 0.0] for v in row] for row in np.asarray(m)]

    doc = {
        "n": 3,
        "A1": nested(EXAMPLE_A1),
        "A2": nested(EXAMPLE_A2),
        "A3": nested(EXAMPLE_A3),
        **EXAMPLE_PARAMS,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# Literals and documents.


def test_parse_complex_literal():
    assert cli.parse_complex_literal("1.0+2.0i") == 1.0 + 2.0j
    assert cli.parse_complex_literal("-0.5-1.25e-3i") == -0.5 - 0.00125j
    for bad in ("1+2i", "1.0", "1.0+2.0j", "abc", "1.0+i"):
        with pytest.raises(cli.CliInputError):
            cli.parse_complex_literal(bad)


def test_system_document_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    system = random_system(rng, r=2, n=3, d=2)
    path = write_system(tmp_path, system)
    loaded = cli.load_system_document(path)
    assert np.allclose(loaded.A, system.A)
    assert np.allclose(loaded.B, system.B)
    assert np.allclose(loaded.C, system.C)
    for c1, c2 in zip(loaded.poly_coeffs, system.poly_coeffs):
        assert np.allclose(c1, c2)


def test_system_document_rejects_ragged_rows(tmp_path):
    doc = {
        "r": 1,
        "n": 1,
        "d": 0,
        "A": [[[1.0, 0.0]]],
        "B": [[[1.0, 0.0], [0.0, 0.0]]],
        "C": [[[1.0, 0.0]]],
        "polyCoeffs": [[[[1.0, 0.0]]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.CliInputError):
        cli.load_system_document(path)


def test_system_document_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["compute", "--system", str(path), "--lambda", "0.0+0.0i"]) == 1


def test_system_document_rejects_bool_dimensions(tmp_path):
    doc = {
        "r": True,
        "n": 1,
        "d": 0,
        "A": [[[1.0, 0.0]]],
        "B": [[[1.0, 0.0]]],
        "C": [[[1.0, 0.0]]],
        "polyCoeffs": [[[[1.0, 0.0]]]],
    }
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.CliInputError):
        cli.load_system_document(path)


# ---------------------------------------------------------------------------
# compute and certify.


def test_compute_then_certify_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(1)
    system = random_system(rng, r=2, n=2, d=1)
    sys_path = write_system(tmp_path, system)
    out_path = tmp_path / "result.json"
    code = cli.main(
        [
            "compute",
            "--system",
            str(sys_path),
            "--lambda",
            "0.4-0.6i",
            "--pattern",
            "ABCP",
            "--restarts",
            "3",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["pattern"] == "ABCP"
    assert doc["lambda"] == [0.4, -0.6]
    assert isinstance(doc["eta"], float) and doc["eta"] > 0
    assert doc["certificates"]["passed"] is True
    assert doc["solver"]["converged"] is True
    assert doc["solver"]["residual"] <= 1e-10

    capsys.readouterr()
    code = cli.main(
        ["certify", "--system", str(sys_path), "--result", str(out_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out


def test_certify_detects_tampering(tmp_path, capsys):
    rng = np.random.default_rng(2)
    system = random_system(rng, r=2, n=2, d=1)
    sys_path = write_system(tmp_path, system)
    out_path = tmp_path / "result.json"
    assert (
        cli.main(
            [
                "compute",
                "--system",
                str(sys_path),
                "--lambda",
                "0.2+0.1i",
                "--pattern",
                "AB",
                "--out",
                str(out_path),
            ]
        )
        == 0
    )
    doc = json.loads(out_path.read_text())
    doc["eta"] = doc["eta"] * 1.5
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["certify", "--system", str(sys_path), "--result", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "FAIL" in captured.out

    # a zero-eigenvalue result: lambda is an eigenvalue of A - B P0^-1 C, so
    # the stored eta must be the zero perturbation's norm
    system = RosenbrockSystem(
        A=np.diag([1.0, 2.0]), B=np.ones((2, 1)), C=np.ones((1, 2)), poly_coeffs=([[3.0]],)
    )
    lam = float(np.linalg.eigvalsh(np.diag([1.0, 2.0]) - np.ones((2, 2)) / 3.0)[0])
    sys_path = write_system(tmp_path, system, "eigen.json")
    args = ["--system", str(sys_path), "--lambda", f"{lam!r}+0.0i", "--pattern", "AB"]
    assert cli.main(["compute", *args, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["method"] == "zero_eigenvalue" and doc["eta"] == 0.0
    doc["eta"] = 5.0
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["certify", "--system", str(sys_path), "--result", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "FAIL" in captured.out


def test_certify_reports_failed_reconstruction(tmp_path, capsys):
    rng = np.random.default_rng(9)
    system = random_system(rng, r=2, n=2, d=1)
    sys_path = write_system(tmp_path, system)
    out_path = tmp_path / "result.json"
    args = ["--system", str(sys_path), "--lambda", "0.7+0.0i", "--pattern", "A"]
    assert cli.main(["compute", *args, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    # a random x leaves the frozen second block row unresolved for pattern A
    bad = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    doc["x"] = [[float(v.real), float(v.imag)] for v in bad / np.linalg.norm(bad)]
    out_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["certify", "--system", str(sys_path), "--result", str(out_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "reconstruction failed:" in out
    assert "certificate: FAIL" in out


@pytest.mark.parametrize(
    "edit",
    [
        {"eta": float("nan")},
        {"eta": float("inf")},
        {"x": [[1.0, 0.0]] * 4},
        {"x": [[0.0, 0.0]] * 5},
    ],
    ids=["eta-nan", "eta-infinity", "x-not-r-plus-n", "x-zero"],
)
def test_certify_rejects_malformed_result(tmp_path, capsys, edit):
    # json writes and reads the literals NaN and Infinity
    system = random_system(np.random.default_rng(5), r=2, n=3, d=1)
    sys_path = write_system(tmp_path, system)
    out_path = tmp_path / "result.json"
    args = ["--system", str(sys_path), "--lambda", "0.3+0.4i", "--pattern", "BC"]
    assert cli.main(["compute", *args, "--out", str(out_path)]) == 0
    out_path.write_text(json.dumps({**json.loads(out_path.read_text()), **edit}))
    capsys.readouterr()
    code = cli.main(["certify", "--system", str(sys_path), "--result", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize(
    "command, shift", [("compute", 1e300), ("compute", 1e160), ("certify", 1e300)]
)
def test_overflowing_shift_is_an_input_error(tmp_path, capsys, command, shift):
    # S(lambda) or the Gram matrices of its block rows overflow at these shifts
    system = random_system(np.random.default_rng(5), r=2, n=3, d=1)
    sys_path = write_system(tmp_path, system)
    out_path = tmp_path / "result.json"
    args = ["--system", str(sys_path), "--pattern", "BC", "--out", str(out_path)]
    if command == "compute":
        code = cli.main(["compute", *args, "--lambda", f"{shift:.1e}+0.0i"])
    else:
        assert cli.main(["compute", *args, "--lambda", "0.3+0.4i"]) == 0
        doc = {**json.loads(out_path.read_text()), "lambda": [shift, 0.0]}
        out_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["certify", "--system", str(sys_path), "--result", str(out_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["compute", "certify", "jnr"])
def test_overflowing_gamma_is_an_input_error(tmp_path, capsys, command):
    # at 1e100 a degree-2 system's S(lambda) and Gram matrices are finite,
    # but gamma = 1 + |lambda|^2 + |lambda|^4 overflows
    rng = np.random.default_rng(0)
    A, B, C, P0, P1 = (rng.standard_normal((2, 2)) for _ in range(5))
    system = RosenbrockSystem(A, B, C, (P0, P1, 1e-250 * rng.standard_normal((2, 2))))
    sys_path = write_system(tmp_path, system)
    out_path = tmp_path / "result.json"
    args = ["--system", str(sys_path), "--pattern", "BC", "--out", str(out_path)]
    if command == "certify":
        assert cli.main(["compute", *args, "--lambda", "0.3+0.4i"]) == 0
        doc = {**json.loads(out_path.read_text()), "lambda": [1e100, 0.0]}
        out_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.main(["certify", "--system", str(sys_path), "--result", str(out_path)])
    else:
        extra = ["--samples", "4"] if command == "jnr" else []
        code = cli.main([command, *args, *extra, "--lambda", "1.0e100+0.0i"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gamma" in err


def test_compute_pencil_pattern_writes_no_solver_block(tmp_path):
    rng = np.random.default_rng(3)
    system = random_system(rng, r=2, n=2, d=1)
    sys_path = write_system(tmp_path, system)
    out_path = tmp_path / "result.json"
    assert (
        cli.main(
            [
                "compute",
                "--system",
                str(sys_path),
                "--lambda",
                "0.9+0.0i",
                "--pattern",
                "B",
                "--out",
                str(out_path),
            ]
        )
        == 0
    )
    doc = json.loads(out_path.read_text())
    assert doc["method"] == "pencil"
    assert doc["solver"] is None
    assert doc["certificates"]["pencilResidual"] is not None


def test_compute_infeasible_pattern_reports_witness(tmp_path):
    system = RosenbrockSystem(
        A=[[5.0]],
        B=[[1.0, 0.0]],
        C=[[1.0], [0.0]],
        poly_coeffs=(np.diag([0.0, 1.0]),),
    )
    sys_path = write_system(tmp_path, system)
    out_path = tmp_path / "result.json"
    code = cli.main(
        [
            "compute",
            "--system",
            str(sys_path),
            "--lambda",
            "0.0+0.0i",
            "--pattern",
            "A",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["eta"] == "inf"
    assert doc["x"] is None
    assert doc["infeasibilityWitness"]
    # an infinite result carries no minimizer, so re-certification is an
    # input error rather than a verdict
    assert (
        cli.main(["certify", "--system", str(sys_path), "--result", str(out_path)])
        == 1
    )


def test_compute_rejects_unknown_pattern(tmp_path, capsys):
    rng = np.random.default_rng(4)
    sys_path = write_system(tmp_path, random_system(rng, r=1, n=2, d=0))
    code = cli.main(
        ["compute", "--system", str(sys_path), "--lambda", "1.0+0.0i", "--pattern", "Q"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "A, B, C, P" in captured.err


def test_compute_rejects_bad_shift(tmp_path, capsys):
    rng = np.random.default_rng(5)
    sys_path = write_system(tmp_path, random_system(rng, r=1, n=2, d=0))
    code = cli.main(["compute", "--system", str(sys_path), "--lambda", "1+2i"])
    captured = capsys.readouterr()
    assert code == 1
    assert "shift literal" in captured.err


def test_compute_missing_file(capsys):
    assert cli.main(["compute", "--system", "/nonexistent.json", "--lambda", "0.0+0.0i"]) == 1


# ---------------------------------------------------------------------------
# jnr.


def test_jnr_on_quotient_document(tmp_path):
    doc_path = write_quotient_doc(tmp_path)
    out_path = tmp_path / "boundary.csv"
    code = cli.main(
        ["jnr", "--system", str(doc_path), "--samples", "24", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "vx,vy,vz,y1,y2,y3,support"
    assert len(lines) == 25
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 7
    # first grid direction is the north pole, so the support value is the
    # smallest eigenvalue of A3
    assert first[:3] == pytest.approx([0.0, 0.0, 1.0])
    assert first[6] == pytest.approx(float(np.min(np.diag(EXAMPLE_A3))), abs=1e-12)

    meta = json.loads((tmp_path / "boundary.csv.meta.json").read_text())
    assert meta["objectiveAtSolution"] == pytest.approx(SOLVE_VALUE, abs=1e-9)
    assert meta["supportGap"] <= 1e-8
    assert meta["boundaryObjectiveGap"] >= -1e-9
    assert meta["solver"]["converged"] is True
    # the gap is taken over the objective at the boundary witnesses
    problem = example_problem()
    points = jnr.boundary_sample((problem.a1, problem.a2, problem.a3), jnr.direction_grid(24))
    boundary_min = min(srq2.objective(problem, p.witness) for p in points)
    assert meta["boundaryObjectiveGap"] == boundary_min - meta["objectiveAtSolution"]


def test_jnr_identical_across_runs(tmp_path):
    doc_path = write_quotient_doc(tmp_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        assert (
            cli.main(
                ["jnr", "--system", str(doc_path), "--samples", "16", "--out", str(out_path)]
            )
            == 0
        )
        outs.append(
            (out_path.read_bytes(), (tmp_path / (name + ".meta.json")).read_bytes())
        )
    assert outs[0] == outs[1]


def test_jnr_on_system_document_requires_lambda(tmp_path, capsys):
    rng = np.random.default_rng(6)
    sys_path = write_system(tmp_path, random_system(rng, r=2, n=2, d=1))
    code = cli.main(["jnr", "--system", str(sys_path), "--samples", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--lambda" in captured.err

    out_path = tmp_path / "sys.csv"
    code = cli.main(
        [
            "jnr",
            "--system",
            str(sys_path),
            "--lambda",
            "0.3+0.2i",
            "--pattern",
            "BC",
            "--samples",
            "4",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert out_path.exists()


def test_jnr_transposed_two_quotient_pattern(tmp_path, monkeypatch):
    # ACP is ABP on the transposed system; the input is read once
    rng = np.random.default_rng(8)
    system = random_system(rng, r=2, n=3, d=1)
    sys_path = write_system(tmp_path, system)
    reads = []
    read_object = cli._read_object

    def counting_read(path):
        reads.append(path)
        return read_object(path)

    monkeypatch.setattr(cli, "_read_object", counting_read)
    out_path = tmp_path / "acp.csv"
    code = cli.main(
        [
            "jnr",
            "--system",
            str(sys_path),
            "--lambda",
            "0.3+0.2i",
            "--pattern",
            "ACP",
            "--samples",
            "6",
            "--restarts",
            "3",
            "--seed",
            "4",
            "--tol",
            "1e-9",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    assert len(reads) == 1
    lines = out_path.read_text().splitlines()
    assert lines[0] == "vx,vy,vz,y1,y2,y3,support"
    assert len(lines) == 7
    meta = json.loads((tmp_path / "acp.csv.meta.json").read_text())
    problem = srq2_problem_for(system, 0.3 + 0.2j, "ACP")
    expected = srq2.solve(problem, restarts=3, seed=4, tol=1e-9)
    assert meta["objectiveAtSolution"] == expected.value


def test_jnr_rejects_pencil_pattern(tmp_path, capsys):
    sys_path = write_system(tmp_path, random_system(np.random.default_rng(9), r=2, n=2, d=1))
    args = ["jnr", "--system", str(sys_path), "--lambda", "0.3+0.2i", "--samples", "4"]
    assert cli.main(args + ["--pattern", "C"]) == 1
    assert "two-quotient" in capsys.readouterr().err


def test_jnr_quotient_document_validation(tmp_path):
    doc = json.loads(write_quotient_doc(tmp_path).read_text())
    del doc["alpha1"]
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["jnr", "--system", str(bad), "--samples", "4"]) == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_jnr_rejects_nonpositive_samples(tmp_path, capsys, samples):
    doc_path = write_quotient_doc(tmp_path)
    assert cli.main(["jnr", "--system", str(doc_path), "--samples", samples]) == 1
    assert "error: samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "jnr", "oracle-check"])
@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--restarts", "-3"), ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan")],
)
def test_solving_commands_reject_invalid_solver_flags(tmp_path, capsys, command, flag, value):
    out_path = tmp_path / "out.csv"
    if command == "compute":
        sys_path = write_system(tmp_path, random_system(np.random.default_rng(0), 2, 2, 1))
        args = ["compute", "--system", str(sys_path), "--lambda", "0.3+0.2i"]
        args += ["--out", str(out_path)]
    elif command == "jnr":
        doc_path = write_quotient_doc(tmp_path)
        args = ["jnr", "--system", str(doc_path), "--samples", "4", "--out", str(out_path)]
    else:
        args = ["oracle-check", "--trials", "1", "--budget", "50"]
    assert cli.main([*args, flag, value]) == 1
    assert f"error: {flag[2:]} must be" in capsys.readouterr().err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# oracle-check.


def test_oracle_check_small_run(capsys):
    code = cli.main(
        [
            "oracle-check",
            "--n",
            "3",
            "--trials",
            "3",
            "--budget",
            "800",
            "--restarts",
            "2",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "3/3" in captured.out


def test_oracle_check_zero_trials(capsys):
    code = cli.main(["oracle-check", "--trials", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "vacuously" in captured.err


def test_oracle_check_dimension_guard(capsys):
    assert cli.main(["oracle-check", "--n", "7", "--trials", "1"]) == 1
    assert cli.main(["oracle-check", "--n", "1", "--trials", "1"]) == 1


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_oracle_check_rejects_nonpositive_budget(capsys, budget):
    assert cli.main(["oracle-check", "--budget", budget, "--trials", "1"]) == 1
    assert "error: budget must be at least 1" in capsys.readouterr().err


def test_result_document_eta_inf_spelling():
    assert cli.serialize_document({"eta": "inf"}).strip() == '{\n  "eta": "inf"\n}'


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def test_compute_exits_0_on_a_numerically_zero_pencil_rhs(tmp_path, capsys):
    sys_path = write_system(tmp_path, tiny_coupling_system("C"))
    out_path = tmp_path / "result.json"
    args = ["--system", str(sys_path), "--lambda", "0.3+0.4i", "--pattern", "B"]
    assert cli.main(["compute", *args, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text(), parse_constant=_reject_constant)
    assert doc["eta"] == "inf"
    assert doc["infeasibilityWitness"] == "V*H2V = 0"
    assert "eta = inf (V*H2V = 0)" in capsys.readouterr().err


# At this scale the residual norms of the certificates overflow (numpy warns),
# which is what puts non-finite floats into the documents.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_result_documents_are_valid_json_at_large_scale():
    c = 1e100
    base = random_system(np.random.default_rng(2), 3, 4, 0)
    system = RosenbrockSystem(
        base.A * c, base.B * c, base.C * c, tuple(m * c for m in base.poly_coeffs)
    )
    for pattern in all_patterns():
        result = backward_error(system, c * (0.3 + 0.4j), pattern)
        text = cli.serialize_document(cli.result_to_document(result))
        doc = json.loads(text, parse_constant=_reject_constant)
        assert doc["eta"] == result.eta


def test_jnr_sidecar_is_valid_json_when_every_value_is_infinite(tmp_path):
    # b1 = 0 under the numerator A1 = I: the objective is +inf everywhere, so
    # the support gap is undefined and the boundary gap is inf - inf
    def nested(m):
        return [[[float(v), 0.0] for v in row] for row in m]

    eye, zero = nested(np.eye(2)), nested(np.zeros((2, 2)))
    doc = {"n": 2, "A1": eye, "A2": eye, "A3": zero}
    doc.update(alpha1=0.0, beta1=1.0, alpha2=1.0, beta2=0.0)
    doc_path = tmp_path / "problem.json"
    doc_path.write_text(json.dumps(doc))
    out_path = tmp_path / "boundary.csv"
    args = ["jnr", "--system", str(doc_path), "--samples", "8", "--out", str(out_path)]
    assert cli.main(args) == 0
    meta_text = (tmp_path / "boundary.csv.meta.json").read_text()
    meta = json.loads(meta_text, parse_constant=_reject_constant)
    assert meta["objectiveAtSolution"] == "inf"
    assert meta["supportGap"] is None
    assert meta["boundaryObjectiveGap"] is None
    assert meta["solver"]["residual"] is None


def test_serialize_document_rejects_non_finite_floats():
    with pytest.raises(ValueError):
        cli.serialize_document({"eta": float("nan")})
