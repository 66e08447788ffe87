"""Command-line interface: document parsing, exit codes, round trips, and
deterministic outputs."""

import json

import numpy as np
import pytest

from rosen_bkerr import cli, srq2
from rosen_bkerr.backward_error import srq2_problem_for
from rosen_bkerr.rosenbrock import RosenbrockSystem, assemble_error_matrices
from support import (
    EXAMPLE_A1,
    EXAMPLE_A2,
    EXAMPLE_A3,
    EXAMPLE_PARAMS,
    SOLVE_VALUE,
    random_system,
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
    problem = srq2_problem_for(
        "ABP", assemble_error_matrices(system.transpose(), complex(0.3, 0.2))
    )
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


def test_result_document_eta_inf_spelling():
    assert cli.serialize_document({"eta": "inf"}).strip() == '{\n  "eta": "inf"\n}'
