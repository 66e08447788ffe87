"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps library
functions by module attribute and methods by class attribute.  A name it
lists that no longer resolves is skipped silently, and a traced run then
drops that metric, so every listed name must resolve."""

import dataclasses
import importlib
import types
from pathlib import Path

from rosen_bkerr.backward_error import ROUTES

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
