"""The package's export lists name real objects and agree with each other.

Tools that look up each ``__all__`` name with ``getattr`` break on a stale
entry, so a deletion has to take its export lines with it.  The benchmark's
tracer is such a tool, and it is installed here once.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import types

import pytest

import idlab
from idlab import TriangularMap

MODULES = sorted(m.name for m in pkgutil.iter_modules(idlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"idlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_every_package_export_is_in_a_module_all():
    listed = set()
    for name in MODULES:
        listed |= set(getattr(importlib.import_module(f"idlab.{name}"), "__all__", ()))
    exported = {attr for attr, value in vars(idlab).items()
                if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exported - listed) == []


def _load_benchmark_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores():
    # the benchmark's tracer looks package names up with a bare ``getattr``,
    # so deleting a name it wraps fails here as well as in a traced run
    original = TriangularMap.forward
    tracer = _load_benchmark_tracer().Tracer()
    tracer.install()
    patched = list(tracer._patches)
    tracer.uninstall()
    assert patched and TriangularMap.forward is original
    assert all(getattr(owner, attr) is value for owner, attr, value in patched)
