"""The public names, and the fields of a simulated record that perfbench reads.

Every ``__all__`` resolves, and the package exports what it imports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("n", [10, 100])
def test_simulated_measurements_keep_the_fields_perfbench_reads(n):
    # perfbench/workloads.py checks simulate_measurements(...) through
    # .timestamps (K+1,), .edms (K+1, n, n) and .accels (K+1, d, n)
    k, d = 10, 2
    traj = relkin.benchmark_trajectory()
    if n != 10:
        rng = np.random.default_rng(n)
        traj = relkin.PolynomialTrajectory(tuple(rng.uniform(-500, 500, (d, n)) for _ in range(3)))
    cfg = relkin.SimConfig(n_nodes=n, k_samples=k, accel_rotation_angle=0.4)
    meas = relkin.simulate_measurements(cfg, traj)
    assert meas.timestamps.shape == (k + 1,)
    assert meas.edms.shape == (k + 1, n, n)
    assert meas.accels.shape == (k + 1, d, n)
    assert np.array_equal(meas.edms, meas.edms.swapaxes(-1, -2))
    assert np.array_equal(meas.edms[:, range(n), range(n)], np.zeros((k + 1, n)))
    again = relkin.MeasurementSet.from_edms(meas.timestamps, meas.edms, meas.accels)
    assert np.array_equal(again.pairs, meas.pairs)


@pytest.mark.parametrize("m", [2, 44, 46])
def test_a_pair_count_that_is_not_triangular_is_rejected(m):
    with pytest.raises(relkin.InvalidDimensionError, match=f"{m} is not a pair count"):
        relkin.MeasurementSet(np.arange(3.0), np.ones((3, m)))
