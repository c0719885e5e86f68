"""Every name a module lists in __all__ is defined in it."""

import importlib
import pkgutil

import pytest

import lpcert

MODULES = ["lpcert"] + sorted(f"lpcert.{m.name}"
                              for m in pkgutil.iter_modules(lpcert.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_defines_every_exported_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(importlib.import_module(module), "__all__", ())
    assert set(exported) <= namespace.keys()
