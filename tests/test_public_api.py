import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ppt

MODULES = sorted(info.name for info in pkgutil.iter_modules(ppt.__path__))


def exported(module) -> list[str]:
    """``module.__all__``, or its public names when it has none (as ``import *``)."""
    names = getattr(module, "__all__", None)
    return list(names) if names is not None else [n for n in vars(module) if not n.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"ppt.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), "duplicate __all__ entries"
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    # a name deleted from a module must leave its __all__ and ppt/__init__.py together
    tree = ast.parse(Path(ppt.__file__).read_text(encoding="utf-8"))
    imported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"ppt.{node.module}")
            for alias in node.names:
                assert alias.name in exported(module), f"ppt.{node.module}.{alias.name}"
                assert getattr(ppt, alias.asname or alias.name) is getattr(module, alias.name)
                imported += 1
    assert imported > 0
