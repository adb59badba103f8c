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


def traced_names():
    """``module.name`` for every entry of ``perfbench/tracer.py``'s ``TRACED`` table."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            table = ast.literal_eval(node.value)
            return [f"{module}.{name}" for module, names in table.items() for name in names]
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


@pytest.mark.parametrize("key", traced_names())
def test_every_traced_name_is_defined_where_the_tracer_looks(key):
    # Tracer.install reads owner.__dict__[attr]: a traced name must be
    # defined on its module or class, not merely reachable from it
    module_name, name = key.split(".", 1)
    module = importlib.import_module(f"relkin.{module_name}")
    owner_name, _, attr = name.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(owner.__dict__.get(attr)), key
