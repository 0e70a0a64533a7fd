"""The package's export lists name real objects and agree with each other.

Tools that look up each ``__all__`` name with ``getattr`` break on a stale
entry, so a deletion has to take its export lines with it.
"""

import importlib
import pkgutil
import types

import pytest

import idlab

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
