"""Closed-loop benchmark of rosen_bkerr.

Run from the repository root:

    python3 perfbench/run.py --workload small_sweep --seed 1 --seconds 30 --trace 0

One client issues each call after the previous one returns, for
``--seconds`` seconds, over inputs generated from ``--seed``; every output
is checked.  Operations the timed loop did not reach are then run once,
untimed, so that a run checks every operation its seed generates: the
result line's ``attempted`` is the number of distinct operations and
``failed`` the number of those with a failed call.  With ``--trace 0``
the end-to-end metrics are measured; with ``--trace 1`` the same calls
run untraced and then traced, and the per-layer metrics come from the
traced pass.  The last line of standard output is one JSON object; the
lines before it are the environment record, every metric with its unit,
and each failed operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("small_sweep", "large_ladder", "quotient_audit")
SETUP_REPEATS = 5
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ROSEN_BKERR_THREADS")
TAIL_SAMPLES = 10
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 3
MAX_LISTED_FAILURES = 20
# CPU seconds of importing rosen_bkerr in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.thread_time(); "
    "import rosen_bkerr; print(time.thread_time() - t)"
)
ROUTES = ("zero", "pencil", "srq2", "transposed_pencil", "transposed_srq2", "infeasible")
# The end-to-end metrics every workload reports in its result line; the
# others are printed above it, for the workloads they apply to.  Its times
# are CPU times of the thread that makes the calls, set against the CPU time
# of a reference computation in the same run: on a shared virtual machine
# the hypervisor can take the CPU away for seconds at a time, which
# stretches wall times but is not charged to the thread; OpenBLAS worker
# threads spin while idle, which is charged to the process; and the speed
# of the CPU itself drifts with the host's load, which the ratio cancels.
RESULT_METRICS = ("setup_s", "cpu_per_call_ref", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes, for the benchmark's self-test"
    )
    return parser.parse_args(argv)


def import_library() -> None:
    """Import rosen_bkerr from this checkout's ``src``."""
    if not (SRC / "rosen_bkerr" / "__init__.py").is_file():
        raise SystemExit(f"error: no rosen_bkerr package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rosen_bkerr

    if Path(rosen_bkerr.__file__).resolve().parent != SRC / "rosen_bkerr":
        raise SystemExit(f"error: imported rosen_bkerr from {rosen_bkerr.__file__}, not {SRC}")


def import_seconds() -> float:
    """CPU seconds to import rosen_bkerr in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def nominal_seconds(measure):
    """Call ``measure``, which returns a value and the CPU seconds it took,
    between timings of the mixed reference computation; return the value
    and those seconds scaled to the speed at which that computation takes
    reference.MIXED_NOMINAL_MS."""
    before = statistics.median(reference.mixed() for _ in range(PROBE_WINDOW))
    value, seconds = measure()
    after = statistics.median(reference.mixed() for _ in range(PROBE_WINDOW))
    return value, seconds * reference.MIXED_NOMINAL_MS / ((before + after) / 2)


def environment() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    fields = [
        f"nproc={os.cpu_count()}",
        f"python={platform.python_version()}",
        f"numpy={numpy.__version__}",
        f"scipy={scipy.__version__}",
        f"blas={blas_text.replace(' ', '_')}",
    ]
    fields += [f"{var}={os.environ.get(var, '<unset>')}" for var in ENV_VARS]
    return "env " + " ".join(fields)


def build_ops(workload, seed: int, smoke: bool):
    import numpy as np

    return workload.build(seed, np.random.default_rng([seed, 1]), smoke)


def setup(workload, seed: int, smoke: bool):
    """Generate the operations and warm up; return them with the CPU seconds taken."""
    import numpy as np
    import workloads

    start = time.thread_time()
    ops = build_ops(workload, seed, smoke)
    for op in workloads.warmup_ops(workload.name, np.random.default_rng([seed, 2])):
        op.run()
    return ops, time.thread_time() - start


class SpeedProbe:
    """Times a reference computation between calls, at most once per
    PROBE_EVERY_S seconds of wall time (1-2 % of the run).  ``local`` is the
    median of the last PROBE_WINDOW timings: the machine's speed can change
    by half within seconds, so each call is set against its own moment."""

    def __init__(self, computation):
        self.computation = computation
        self.cpu_ms: list[float] = []
        self.local = 0.0
        self._due = 0.0

    def run(self, op):
        """Run ``op``, timing the reference computation first if it is due."""
        if time.perf_counter() >= self._due:
            self.cpu_ms.append(self.computation())
            self.local = statistics.median(self.cpu_ms[-PROBE_WINDOW:])
            self._due = time.perf_counter() + PROBE_EVERY_S
        return dataclasses.replace(op.run(), ref_ms=self.local)


def run_ops(ops, seconds=None, count=None, first=0, probe=None):
    """Closed loop over ``ops`` from index ``first`` (cycling if they run
    out), stopping once ``seconds`` have passed or after ``count`` operations,
    each call run through ``probe`` when one is given.  Returns the samples
    and the wall seconds taken."""
    samples = []
    start = time.perf_counter()
    while True:
        if count is not None and len(samples) >= count:
            break
        if count is None and time.perf_counter() - start >= seconds:
            break
        op = ops[(first + len(samples)) % len(ops)]
        samples.append((op, probe.run(op) if probe else op.run()))
    return samples, time.perf_counter() - start


def cover(ops, samples, probe=None):
    """Run once, untimed, every operation that ``samples`` does not hold."""
    reached = {id(op) for op, _ in samples}
    return [(op, probe.run(op) if probe else op.run()) for op in ops if id(op) not in reached]


def failed_ops(samples) -> list:
    """The first failed call of each operation that has one."""
    first = {}
    for op, s in samples:
        if s.failure is not None:
            first.setdefault(id(op), (op, s))
    return list(first.values())


def percentile_metrics(prefix: str, values, out: dict, notes: list) -> None:
    """Median, and p90 when at least TAIL_SAMPLES samples lie beyond it."""
    if not values:
        notes.append(f"{prefix}_ms: no samples")
        return
    out[f"{prefix}_ms_p50"] = (statistics.median(values), "ms")
    if len(values) >= 2:
        p90 = statistics.quantiles(values, n=10)[-1]
        beyond = sum(v > p90 for v in values)
        if beyond >= TAIL_SAMPLES:
            out[f"{prefix}_ms_p90"] = (p90, "ms")
            return
        notes.append(f"{prefix}_ms_p90: only {beyond} of {len(values)} samples beyond p90")


def per_op_median(samples, value) -> list[float]:
    """For each operation for which ``value(sample)`` is not None, the
    median of that value over its calls."""
    values: dict[int, list[float]] = {}
    for op, s in samples:
        v = value(s)
        if v is not None:
            values.setdefault(id(op), []).append(v)
    return [statistics.median(v) for v in values.values()]


def end_to_end(workload: str, timed, wall: float, samples, n_ops: int, setup_s: float,
               reference_ms: float):
    """Wall-time metrics from the ``timed`` loop; CPU-time metrics and
    failures from all ``samples``, which hold every operation once at least,
    each operation weighted once.  ``reference_ms`` is the median CPU time
    of the reference computation over the run; the ``_ref`` metrics divide
    each call's CPU time by the reference's around that call."""
    out: dict = {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (len(timed) / wall, "1/s"),
        "cpu_ms_per_call": (statistics.mean(per_op_median(samples, lambda s: s.cpu_ms)), "ms"),
        "cpu_per_call_ref": (
            statistics.mean(per_op_median(samples, lambda s: s.cpu_ms / s.ref_ms)), "ref"
        ),
        "reference_cpu_ms": (reference_ms, "ms"),
    }
    notes: list = []
    by_route: dict[str, list[float]] = {}
    for _, s in timed:
        by_route.setdefault(s.route, []).append(s.ms)
    if workload == "quotient_audit":
        percentile_metrics("audit", by_route.get("audit", []), out, notes)
    else:
        pencil = by_route.get("pencil", []) + by_route.get("transposed_pencil", [])
        percentile_metrics("pencil", pencil, out, notes)
    srq2 = [s.srq2_ms for _, s in timed if s.srq2_ms is not None]
    percentile_metrics("srq2", srq2, out, notes)
    srq2_cpu = per_op_median(samples, lambda s: s.srq2_cpu_ms)
    if srq2_cpu:
        srq2_ref = per_op_median(
            samples, lambda s: None if s.srq2_cpu_ms is None else s.srq2_cpu_ms / s.ref_ms
        )
        out["srq2_cpu_ms_p50"] = (statistics.median(srq2_cpu), "ms")
        out["srq2_cpu_p50_ref"] = (statistics.median(srq2_ref), "ref")
    if workload == "small_sweep":
        zero = by_route.get("zero_eigenvalue", [])
        if zero:
            out["zero_ms_p50"] = (statistics.median(zero), "ms")
    out["failed_frac"] = (len(failed_ops(samples)) / n_ops, "1")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out, notes


def traced(workload, ops, seconds: float, seed: int):
    """Untraced pass for half the time, then the same operations traced."""
    from tracer import Tracer

    plain, plain_wall = run_ops(ops, seconds=seconds / 2.0)
    if len(plain) < workload.min_traced_ops:
        extra, extra_wall = run_ops(
            ops, count=workload.min_traced_ops - len(plain), first=len(plain)
        )
        plain, plain_wall = plain + extra, plain_wall + extra_wall
    count = len(plain)
    tracer = Tracer()
    tracer.install()
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        tracer.enter("bench.run")
        samples = []
        for i in range(count):
            op = ops[i % len(ops)]
            tracer.enter("bench.call")
            try:
                samples.append((op, op.run()))
            finally:
                tracer.exit()
        tracer.exit()
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    tracer.write(
        OUT / f"spans-{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed, "calls": count},
    )
    missing = sorted((workload.expected & tracer.installed) - tracer.fired())
    metrics = tracer.layer_metrics(count)
    routes = Counter(
        "infeasible" if s.infeasible else {"zero_eigenvalue": "zero"}.get(s.route, s.route)
        for _, s in samples
    )
    for key in ROUTES:
        metrics[f"backward_error.route.{key}"] = (routes[key] / count, "1/call")
    layers = tracer.layer_self_ms(count)
    for layer in ("bench", "rosenbrock", "linalg", "numpy", "srq2", "backward_error",
                  "jnr", "parallel"):
        metrics[f"layer.{layer}.ms"] = (layers.get(layer, 0.0), "ms/call")
    metrics["trace.self_sum_frac"] = (sum(layers.values()) * count / 1e3 / wall, "frac")
    metrics["process.cpu_s"] = (cpu / count, "s/call")
    metrics["trace.overhead_frac"] = (wall / plain_wall - 1.0, "frac")
    return plain + samples, metrics, missing


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        raise SystemExit("error: --seconds must be positive")
    import_library()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print(environment())
    print(
        f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
        f"{' smoke' if args.smoke else ''} (closed loop, one client)"
    )
    durations, imports = [], []
    for _ in range(SETUP_REPEATS):
        ops = None  # drop the previous round's inputs before making new ones
        ops, seconds = nominal_seconds(lambda: setup(workload, args.seed, args.smoke))
        durations.append(seconds)
        imports.append(nominal_seconds(lambda: (None, import_seconds()))[1])
    setup_s = statistics.median(imports) + statistics.median(durations)
    print("setup CPU at reference speed: import " + ", ".join(fmt(t) for t in imports)
          + " s, inputs and warm-up " + ", ".join(fmt(d) for d in durations) + " s")

    if args.trace:
        samples, metrics, missing = traced(workload, ops, args.seconds, args.seed)
        if missing:
            print(f"error: wrappers expected on {workload.name} never fired: {', '.join(missing)}",
                  file=sys.stderr)
            return 3
        notes = []
        samples += cover(ops, samples)
    else:
        probe = SpeedProbe(workload.reference)
        timed, wall = run_ops(ops, seconds=args.seconds, probe=probe)
        samples = timed + cover(ops, timed, probe)
        metrics, notes = end_to_end(workload.name, timed, wall, samples, len(ops), setup_s,
                                    statistics.median(probe.cpu_ms))

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {fmt(value)} {unit}")
    for note in notes:
        print(f"note {note}")
    failures = failed_ops(samples)
    print(f"failed {len(failures)} of {len(ops)} operations ({len(samples)} calls)")
    for op, s in failures[:MAX_LISTED_FAILURES]:
        print(f"failure {op.label}: {s.failure}")
    if len(failures) > MAX_LISTED_FAILURES:
        print(f"failure ... and {len(failures) - MAX_LISTED_FAILURES} more")

    wanted = list(metrics) if args.trace else RESULT_METRICS
    result = {
        "correct": not any(s.wrong for _, s in samples),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
