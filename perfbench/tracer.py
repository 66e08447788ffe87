"""Per-layer tracing of rosen_bkerr from outside the package.

``Tracer.install`` wraps the public functions of each module under
``src/rosen_bkerr`` (and the LAPACK Hermitian eigensolver beneath them),
replacing every binding of the original object in the package's modules,
because a name imported with ``from ... import`` or called as a module
global is looked up in the caller's namespace, not the defining one.
``uninstall`` puts the originals back.  Nothing under ``src`` changes.

Each wrapped call records a span (name, start, end, parent) in memory.  A
span's self time is its duration minus that of its direct children, so
the self times of all spans below a root add up to the root's duration.
Spans nest per thread; with ``ROSEN_BKERR_THREADS`` above 1 the worker
threads' spans are roots of their own and overlap the caller's.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

PACKAGE = "rosen_bkerr"
# numpy.linalg.eigh and eigvalsh (the same LAPACK heevd family) are timed as
# one kernel, split by the order of the matrix.
EIGH_SMALL_MAX = 16

# (module, attribute, span name) for every wrapped function; the span name's
# first component is the layer.
FUNCTIONS = (
    ("rosen_bkerr.rosenbrock", "assemble_error_matrices", "rosenbrock.assemble_error_matrices"),
    ("rosen_bkerr.linalg", "psd_nullspace", "linalg.psd_nullspace"),
    ("rosen_bkerr.linalg", "semidefinite_pencil_smallest", "linalg.semidefinite_pencil_smallest"),
    ("rosen_bkerr.linalg", "definite_pencil_smallest", "linalg.definite_pencil_smallest"),
    ("rosen_bkerr.linalg", "smallest_singular_value", "linalg.smallest_singular_value"),
    ("rosen_bkerr.srq2", "solve", "srq2.solve"),
    ("rosen_bkerr.srq2", "scf_solve", "srq2.scf_solve"),
    ("rosen_bkerr.srq2", "nondiff_candidates", "srq2.nondiff_candidates"),
    ("rosen_bkerr.srq2", "brute_force_oracle", "srq2.brute_force_oracle"),
    ("rosen_bkerr.backward_error", "backward_error", "backward_error.backward_error"),
    ("rosen_bkerr.backward_error", "certify", "backward_error.certify"),
    ("rosen_bkerr.backward_error", "reconstruct_perturbation", "backward_error.reconstruct_perturbation"),
    ("rosen_bkerr.jnr", "boundary_sample", "jnr.boundary_sample"),
    ("rosen_bkerr.jnr", "optimality_certificate", "jnr.optimality_certificate"),
    ("rosen_bkerr._parallel", "parallel_map", "parallel.parallel_map"),
)
# Called hundreds of thousands of times: counted, not timed, so their time
# stays in the caller's self time.
COUNTED = (
    ("rosen_bkerr.srq2", "objective", "srq2.objective"),
    ("rosen_bkerr.srq2", "_batch_objective", "srq2.oracle.batch_objective"),
)
# (module, class, method, span name)
METHODS = (
    ("rosen_bkerr.rosenbrock", "RosenbrockSystem", "evaluate", "rosenbrock.evaluate"),
    ("rosen_bkerr.rosenbrock", "RosenbrockSystem", "transpose", "rosenbrock.transpose"),
    ("rosen_bkerr.srq2", "Srq2Problem", "__post_init__", "srq2.Srq2Problem"),
)

ROOT = "bench.run"
CALL = "bench.call"


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Span store, per-name self time and call counts, and the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.sweeps: list[int] = []
        self.installed: set[str] = set()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack()
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0)
        stack.append([idx, 0])
        self.span_start.append(perf_counter_ns())

    def exit(self) -> None:
        end = perf_counter_ns()
        stack = self._stack()
        idx, child_ns = stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_ns[self.names[self.span_name[idx]]] += duration - child_ns
        if stack:
            stack[-1][1] += duration

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _eigh(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            small = np.shape(a)[-1] <= EIGH_SMALL_MAX
            tracer.enter("numpy.eigh.small" if small else "numpy.eigh.large")
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _after_scf(self, args, kwargs, sol):
        self.sweeps.append(sol.iterations)
        if sol.converged:
            self.counts["srq2.scf.converged"] += 1
        elif sol.iterations >= kwargs.get("max_iter", 400):
            self.counts["srq2.scf.capped"] += 1
        else:
            self.counts["srq2.scf.stalled"] += 1
        self.counts["srq2.scf.shifted_sweeps"] += sum(1 for s in sol.shifts_used if s != 0.0)

    def _after_boundary(self, args, kwargs, points):
        self.counts["jnr.directions"] += len(points)

    def _after_parallel(self, args, kwargs, results):
        self.counts["parallel.parallel_map.items"] += len(results)

    def _rebind(self, original, wrapper) -> None:
        """Replace every binding of ``original`` in the package's modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        after = {
            "srq2.scf_solve": self._after_scf,
            "jnr.boundary_sample": self._after_boundary,
            "parallel.parallel_map": self._after_parallel,
        }
        for module_name, attr, name in FUNCTIONS + COUNTED:
            mod = _module(module_name)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                continue  # removed from the library: its metrics are absent
            if (module_name, attr, name) in COUNTED:
                wrapper = self._counted(original, name)
            else:
                wrapper = self._timed(original, name, after.get(name))
            self._rebind(original, wrapper)
            self.installed.add(name)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(_module(module_name), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                continue
            setattr(cls, attr, self._timed(original, name))
            self._patches.append((cls, attr, original))
            self.installed.add(name)
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            setattr(np.linalg, attr, self._eigh(original))
            self._patches.append((np.linalg, attr, original))
        self.installed |= {"numpy.eigh.small", "numpy.eigh.large"}

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics -------------------------------------------------------------

    def fired(self) -> set[str]:
        return {name for name, count in self.calls.items() if count}

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each normalized per top-level operation."""
        out: dict[str, tuple[float, str]] = {}

        def per_op(value):
            return value / ops

        def timed(name, with_ms=True):
            if name in self.installed:
                out[f"{name}.calls"] = (per_op(self.calls[name]), "1/call")
                if with_ms:
                    out[f"{name}.ms"] = (per_op(self.self_ns[name] / 1e6), "ms/call")

        timed("rosenbrock.evaluate")
        timed("rosenbrock.assemble_error_matrices")
        timed("rosenbrock.transpose", with_ms=False)
        for fn in ("psd_nullspace", "semidefinite_pencil_smallest",
                   "definite_pencil_smallest", "smallest_singular_value"):
            timed(f"linalg.{fn}")
        for size in ("small", "large"):
            name = f"numpy.eigh.{size}"
            out[f"numpy.eigh.calls.{size}"] = (per_op(self.calls[name]), "1/call")
            out[f"numpy.eigh.ms.{size}"] = (per_op(self.self_ns[name] / 1e6), "ms/call")
        timed("srq2.solve")
        timed("srq2.scf_solve")
        if "srq2.scf_solve" in self.installed:
            runs = len(self.sweeps)
            out["srq2.scf.sweeps"] = (per_op(sum(self.sweeps)), "1/call")
            out["srq2.scf.sweeps_p50"] = (
                float(statistics.median(self.sweeps)) if runs else 0.0, "sweeps")
            out["srq2.scf.capped"] = (per_op(self.counts["srq2.scf.capped"]), "1/call")
            out["srq2.scf.stalled"] = (per_op(self.counts["srq2.scf.stalled"]), "1/call")
            out["srq2.scf.converged_frac"] = (
                self.counts["srq2.scf.converged"] / runs if runs else 0.0, "frac")
            out["srq2.scf.shifted_sweeps"] = (
                per_op(self.counts["srq2.scf.shifted_sweeps"]), "1/call")
        if "srq2.objective" in self.installed:
            out["srq2.objective.calls"] = (per_op(self.calls["srq2.objective"]), "1/call")
        if "srq2.Srq2Problem" in self.installed:
            out["srq2.Srq2Problem.ms"] = (per_op(self.self_ns["srq2.Srq2Problem"] / 1e6), "ms/call")
        timed("srq2.nondiff_candidates")
        timed("srq2.brute_force_oracle")
        if "srq2.oracle.batch_objective" in self.installed:
            out["srq2.oracle.batch_objective.calls"] = (
                per_op(self.calls["srq2.oracle.batch_objective"]), "1/call")
        timed("backward_error.backward_error")
        timed("backward_error.certify")
        timed("backward_error.reconstruct_perturbation")
        timed("jnr.boundary_sample")
        if "jnr.boundary_sample" in self.installed:
            out["jnr.directions"] = (per_op(self.counts["jnr.directions"]), "1/call")
        timed("jnr.optimality_certificate")
        timed("parallel.parallel_map")
        if "parallel.parallel_map" in self.installed:
            out["parallel.parallel_map.items"] = (
                per_op(self.counts["parallel.parallel_map.items"]), "1/call")
        return out

    def layer_self_ms(self, ops: int) -> dict[str, float]:
        """Self time per layer (first name component), per operation; the
        benchmark's own code between library calls is the ``bench`` layer."""
        totals: Counter = Counter()
        for name, ns in self.self_ns.items():
            totals[name.split(".", 1)[0]] += ns
        return {layer: ns / 1e6 / ops for layer, ns in totals.items()}
