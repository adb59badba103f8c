"""Flat key=value scenario files and their three-layer override logic.

A scenario file is diffable, hand-editable UTF-8 text: one ``key = value``
per line, ``#`` comments, and matrix entries spelled ``Y0.row.col = v``
(likewise ``Y1``/``Y2``; no higher order).  Values from a file override
built-in defaults; explicit overrides (e.g. from CLI flags) override the
file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, get_type_hints

import numpy as np

from .errors import ConfigError
from .trajectory import PolynomialTrajectory, SimConfig

__all__ = ["ScenarioSettings", "benchmark_trajectory", "load_scenario", "parse_config_text"]

# every SimConfig field is a scenario key except n_nodes, which the
# trajectory's Y0 entries fix
_SIM_FIELDS = [f for f in fields(SimConfig) if f.name != "n_nodes"]
_SCALAR_TYPES = {f.name: get_type_hints(SimConfig)[f.name] for f in _SIM_FIELDS}
# the orders of the constant-acceleration model, the only one the estimators fit
_MATRIX_KEY = re.compile(r"^Y([0-2])\.(\d+)\.(\d+)$")

DEFAULTS: dict[str, object] = {f.name: f.default for f in _SIM_FIELDS}
DEFAULTS["k_sweep"] = (10, 20, 30, 40, 50)


def _known_key(key: str) -> bool:
    return key in _SCALAR_TYPES or key == "k_sweep" or bool(_MATRIX_KEY.match(key))


@dataclass
class ScenarioSettings:
    """Typed view of one scenario: simulation config plus ground truth."""

    sim: SimConfig
    trajectory: PolynomialTrajectory
    k_sweep: tuple[int, ...]


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a raw string map, rejecting unknown keys."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        if not _known_key(key):
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        values[key] = value
    return values


def _parse_k_sweep(value: str) -> tuple[int, ...]:
    ks = tuple(int(part) for part in value.split(",") if part.strip())
    if not ks or min(ks) < 4 or len(set(ks)) < len(ks):
        raise ConfigError(f"k_sweep must list distinct K >= 4 (the degree-4 fit), got '{value}'")
    return ks


def _convert(key: str, value: str) -> object:
    try:
        if key == "k_sweep":
            return _parse_k_sweep(value)
        if key in _SCALAR_TYPES:
            return _SCALAR_TYPES[key](value)
        return float(value)  # matrix entry
    except ValueError as exc:
        raise ConfigError(f"invalid value for '{key}': {value}") from exc


def _build_trajectory(typed: Mapping[str, object]) -> PolynomialTrajectory:
    """The planar trajectory of the ``Y<order>.<row>.<col>`` entries: two rows per order.

    An order missing below the highest one given is all zero; an order
    given at all must set every one of its ``2 * n_nodes`` entries.
    """
    cells = {}
    for key, value in typed.items():
        if match := _MATRIX_KEY.match(key):
            cells[tuple(int(g) for g in match.groups())] = value
    counts = np.bincount([order for order, _, _ in cells], minlength=1)
    if not counts[0]:
        raise ConfigError("scenario defines no trajectory (Y0.<row>.<col> entries missing)")
    n_nodes = 1 + max(col for _, _, col in cells)
    coeffs = np.zeros((len(counts), 2, n_nodes))
    for (order, row, col), value in cells.items():
        if row >= 2:
            raise ConfigError(f"Y{order}.{row}.{col} is outside the (2, {n_nodes}) shape")
        coeffs[order, row, col] = value
    for order, count in enumerate(counts):
        if count not in (0, 2 * n_nodes):
            raise ConfigError(
                f"Y{order} is incomplete: expected {2 * n_nodes} entries, got {count}"
            )
    return PolynomialTrajectory(tuple(coeffs))


def load_scenario(
    config_path: Optional[str] = None, overrides: Optional[Mapping[str, str]] = None
) -> ScenarioSettings:
    """Assemble a scenario from defaults, an optional file, and overrides.

    Precedence (lowest to highest): built-in defaults, the config file
    (the bundled default scenario when ``config_path`` is None), then
    ``overrides`` given as raw strings.  The bundled scenario is read and
    parsed once per process; each call overrides a copy of its values and
    builds its own ``SimConfig`` and trajectory.
    """
    if config_path is None:
        raw = dict(_bundled_values())
    else:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
        raw = parse_config_text(text, str(path))
    for key, value in (overrides or {}).items():
        if not _known_key(key):
            raise ConfigError(f"unknown override key '{key}'")
        raw[key] = value

    typed = {**DEFAULTS, **{key: _convert(key, value) for key, value in raw.items()}}
    trajectory = _build_trajectory(typed)
    sim = SimConfig(n_nodes=trajectory.n_nodes, **{key: typed[key] for key in _SCALAR_TYPES})
    return ScenarioSettings(sim=sim, trajectory=trajectory, k_sweep=tuple(typed["k_sweep"]))


@cache
def _bundled_values() -> Mapping[str, str]:
    """The raw key = value map of the bundled scenario, read once per process.

    Callers copy it before changing it.
    """
    text = resources.files("relkin").joinpath("default_scenario.cfg").read_text("utf-8")
    return MappingProxyType(parse_config_text(text, "<bundled default_scenario.cfg>"))


def benchmark_trajectory() -> PolynomialTrajectory:
    """The bundled scenario's ten-node planar constant-acceleration trajectory.

    Used throughout the test suite as a realistic desk-scale instance;
    each call returns its own arrays.
    """
    return load_scenario().trajectory
