import importlib
import pkgutil

import pytest

import torusfp

MODULES = ["torusfp"] + sorted(f"torusfp.{m.name}" for m in pkgutil.iter_modules(torusfp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_exist(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing symbols: {missing}"
    exec(f"from {name} import *", {})
