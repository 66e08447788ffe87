"""Every name a module exports through ``__all__`` resolves, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import rosen_bkerr

MODULES = ["rosen_bkerr"] + [
    f"rosen_bkerr.{info.name}" for info in pkgutil.iter_modules(rosen_bkerr.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
