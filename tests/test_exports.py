"""The package's export lists name real objects and agree with each other,
and its modules import one another without a cycle.

Tools that look up each ``__all__`` name with ``getattr`` break on a stale
entry, so a deletion has to take its export lines with it.  The benchmark's
tracer is such a tool, and it is installed here once.
"""

import ast
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


#: the package's layers, lowest first; a module imports only from lower layers,
#: so the import graph has no cycle
IMPORT_LAYERS = (("errors", "rng"), ("measures",), ("transport", "linear"),
                 ("envs", "indeterminacy"), ("tasks",), ("experiments",), ("cli",),
                 ("__init__",))


def test_modules_import_lower_layers_only_and_at_module_level():
    layer = {name: rank for rank, names in enumerate(IMPORT_LAYERS) for name in names}
    upward, nested = [], []
    for path in sorted(pathlib.Path(idlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_function = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level > 0):
                continue
            target = node.module or "__init__"
            if layer[target] >= layer[path.stem]:
                upward.append(f"{path.name}:{node.lineno} imports {target}")
            if id(node) in in_function:
                nested.append(f"{path.name}:{node.lineno}")
    assert upward == [] and nested == []
