import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import negdep

MODULES = sorted(m.name for m in pkgutil.iter_modules(negdep.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a removed function must leave __all__ with it
    module = importlib.import_module(f"negdep.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_names_are_exported_by_their_submodules():
    # a name cannot leave a submodule's __all__ and stay in the package's imports
    tree = ast.parse(Path(negdep.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert {module for module, _ in imports} >= {"analyzer", "samplers", "variance"}
    missing = [(module, name) for module, name in imports
               if name not in importlib.import_module(f"negdep.{module}").__all__]
    assert missing == []
