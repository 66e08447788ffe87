"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Checks that the same seed gives identical inputs and another seed
different ones, that a smoke-sized run of every workload, traced and
untraced, finishes in seconds and prints exactly the metric names listed
in BENCHMARK.json, and that without the library's sources the benchmark
exits with an error instead of printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_LIMIT_S = 60.0

import run  # noqa: E402  (this directory is on sys.path when run as a script)


def check_seeded_inputs() -> None:
    run.import_library()
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        first = [op.digest for op in run.build_ops(workload, 7, True)]
        again = [op.digest for op in run.build_ops(workload, 7, True)]
        other = [op.digest for op in run.build_ops(workload, 8, True)]
        assert first == again, f"{name}: seed 7 gave different inputs twice"
        assert first != other, f"{name}: seeds 7 and 8 gave the same inputs"
        print(f"ok   {name}: inputs repeat for one seed and differ across seeds")


def run_benchmark(cwd: Path, *args: str) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc, time.perf_counter() - start


def check_smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, elapsed = run_benchmark(
                ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke",
            )
            assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            names = [m["name"] for m in spec[key]]
            assert sorted(result["metrics"]) == sorted(names), (
                f"{workload} trace {trace}: printed {sorted(set(result['metrics']) ^ set(names))} "
                "differ from BENCHMARK.json"
            )
            assert elapsed < SMOKE_LIMIT_S, f"{workload} trace {trace}: smoke run took {elapsed:.1f}s"
            print(f"ok   {workload} trace {trace}: {len(names)} metrics as listed, {elapsed:.1f}s")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc, _ = run_benchmark(
            bare, "--workload", "small_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the library's sources"
    assert '"correct"' not in proc.stdout, "printed a result without the library's sources"
    print("ok   without src/ the benchmark exits with an error and prints no result")


if __name__ == "__main__":
    check_seeded_inputs()
    check_refuses_without_sources()
    check_smoke_runs()
    print("all benchmark self-tests passed")
