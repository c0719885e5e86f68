"""Every name a module lists in __all__ is defined in it, and every
function perfbench/tracer.py wraps exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_every_traced_function_resolves():
    # the tracer replaces each TARGETS entry at install time, so a name
    # deleted from lpcert would crash every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr, _ in tracer.TARGETS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert tracer.TARGETS and not missing
