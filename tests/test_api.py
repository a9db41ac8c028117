import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_benchmark_tracer_installs_and_restores():
    # perfbench/tracing.py patches module attributes of torusfp from outside;
    # install fails if a tidy-up drops a name it patches
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = [importlib.import_module(name) for name in MODULES]
    before = {(mod.__name__, k): v for mod in mods for k, v in vars(mod).items()}

    def changed():
        return sorted(
            (mod.__name__, k)
            for mod in mods
            for k, v in vars(mod).items()
            if before.get((mod.__name__, k), object()) is not v
        )

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert ("torusfp.cli", "fit_duhamel_constant") in changed()
        assert ("torusfp.picard", "ImplicitStepper") in changed()
    finally:
        tracer.uninstall()
    assert changed() == []
