"""The public names: every ``__all__`` resolves, and the package exports what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import relkin

MODULES = sorted(info.name for info in pkgutil.iter_modules(relkin.__path__))


def public_names(module):
    """The module's ``__all__``, each checked to resolve; without one, every public name."""
    if not hasattr(module, "__all__"):
        return [name for name in vars(module) if not name.startswith("_")]
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names missing attributes: {missing}"
    return list(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    listed = public_names(importlib.import_module(f"relkin.{name}"))
    assert len(set(listed)) == len(listed)


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(relkin.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.module
    assert sorted(public_names(relkin)) == sorted(imported)
    # a re-exported name is public in the module it comes from too
    for name, module in imported.items():
        assert name in public_names(importlib.import_module(f"relkin.{module}")), (module, name)
