import importlib
import pkgutil

import pytest

import negdep

MODULES = sorted(m.name for m in pkgutil.iter_modules(negdep.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a removed function must leave __all__ with it
    module = importlib.import_module(f"negdep.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
