"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps library
functions by module attribute and methods by class attribute.  A name it
lists that no longer resolves is skipped silently, and a traced run then
drops that metric, so every listed name must resolve.  A wrapper that a
workload expects (perfbench/workloads.py) but that never fires, because the
library stopped calling the wrapped name, fails a traced run, so each
expected wrapper must fire on a few small calls of the workloads' kinds."""

import dataclasses
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

from rosen_bkerr import jnr, srq2
from rosen_bkerr.backward_error import ROUTES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load_tracer() -> types.ModuleType:
    """Execute the tracer's source in a fresh module, writing nothing."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    source = TRACER_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER_PATH), "exec"), module.__dict__)
    return module


TRACER = _load_tracer()


def _traced_functions():
    for module_name, attr, span in TRACER.FUNCTIONS + TRACER.COUNTED:
        yield span, getattr(importlib.import_module(module_name), attr, None)


def test_traced_functions_are_module_attributes():
    missing = [span for span, fn in _traced_functions() if not callable(fn)]
    assert not missing, f"tracer entries that no longer resolve: {missing}"


def test_traced_methods_are_class_attributes():
    missing = []
    for module_name, cls_name, attr, span in TRACER.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None or attr not in cls.__dict__:
            missing.append(span)
    assert not missing, f"tracer entries that no longer resolve: {missing}"


def test_route_table_stores_no_traced_function():
    # the tracer rebinds module globals only, so a stored reference would
    # bypass its wrapper
    traced = [fn for _, fn in _traced_functions() if fn is not None]
    for letters, route in ROUTES.items():
        for field in dataclasses.fields(route):
            value = getattr(route, field.name)
            assert not any(value is fn for fn in traced), (letters, field.name)


def _load_workloads() -> types.ModuleType:
    """Import perfbench/workloads.py (and the ``reference`` module beside
    it) without leaving either in ``sys.modules`` or on the import path."""
    name = "perfbench_workloads"
    had_reference = "reference" in sys.modules
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while being built
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop(name, None)
        if not had_reference:
            sys.modules.pop("reference", None)
    return module


def test_expected_wrappers_fire():
    workloads = _load_workloads()
    # through the module, where the tracer installs its wrapper
    be = importlib.import_module("rosen_bkerr.backward_error")
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        # one audit instance, as quotient_audit runs it, at small sizes
        rng = np.random.default_rng(4)
        problem = srq2.random_problem(3, rng, "ABCP", rank_deficient=True)
        triple = (problem.a1, problem.a2, problem.a3)
        g_params = (problem.alpha1, problem.beta1, problem.alpha2, problem.beta2)
        sol = srq2.solve(problem, restarts=2, seed=1)
        srq2.brute_force_oracle(problem, 200, seed=2, polish_steps=5, polish_top=20)
        jnr.boundary_sample(triple, jnr.direction_grid(8))
        jnr.optimality_certificate(triple, g_params, sol.x)
        # a pencil, an SRQ2 and a transposed pattern, at an order above the
        # tracer's small-eigh cutoff
        system = workloads._random_system(rng, 2, TRACER.EIGH_SMALL_MAX, 1)
        for letters in ("B", "AP", "ACP"):
            be.backward_error(system, 0.3 + 0.4j, letters, restarts=2, seed=0)
    finally:
        tracer.uninstall()
    fired = tracer.fired()
    missing = {
        name: sorted(w.expected - fired)
        for name, w in workloads.WORKLOADS.items()
        if not w.expected <= fired
    }
    assert not missing, f"expected wrappers that never fired: {missing}"
