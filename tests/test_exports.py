"""Every exported name resolves, so deleting a definition cannot leave its export behind."""

import importlib
import pkgutil

import pytest

import hhw_pir

MODULES = ["hhw_pir"] + [f"hhw_pir.{info.name}" for info in pkgutil.iter_modules(hhw_pir.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    dangling = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not dangling, f"{name}.__all__ names what the module does not define: {dangling}"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hhw_pir import *", namespace)
    assert set(hhw_pir.__all__) <= namespace.keys()
