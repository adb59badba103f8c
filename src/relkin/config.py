"""Flat key=value scenario files and their three-layer override logic.

A scenario file is diffable, hand-editable UTF-8 text: one ``key = value``
per line, ``#`` comments, and matrix entries spelled ``Y0.row.col = v``
(likewise ``Y1``/``Y2``).  Values from a file override built-in defaults;
explicit overrides (e.g. from CLI flags) override the file.
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

__all__ = ["ScenarioSettings", "default_config_text", "load_scenario", "parse_config_text"]

# every SimConfig field is a scenario key except n_nodes, which the
# trajectory's Y0 entries fix
_SIM_FIELDS = [f for f in fields(SimConfig) if f.name != "n_nodes"]
_SCALAR_TYPES = {f.name: get_type_hints(SimConfig)[f.name] for f in _SIM_FIELDS}
_MATRIX_KEY = re.compile(r"^Y([0-9])\.(\d+)\.(\d+)$")

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


def _build_trajectory(entries: Mapping[str, float], dim: int) -> PolynomialTrajectory:
    per_order: dict[int, dict[tuple[int, int], float]] = {}
    for key, value in entries.items():
        match = _MATRIX_KEY.match(key)
        order, row, col = (int(g) for g in match.groups())
        per_order.setdefault(order, {})[(row, col)] = value
    if 0 not in per_order:
        raise ConfigError("scenario defines no trajectory (Y0.<row>.<col> entries missing)")
    n_nodes = 1 + max(col for cells in per_order.values() for (_, col) in cells)
    max_order = max(per_order)
    coeffs = []
    for order in range(max_order + 1):
        mat = np.zeros((dim, n_nodes))
        for (row, col), value in per_order.get(order, {}).items():
            if row >= dim or col >= n_nodes:
                raise ConfigError(f"Y{order}.{row}.{col} is outside the ({dim}, {n_nodes}) shape")
            mat[row, col] = value
        if order in per_order and len(per_order[order]) != dim * n_nodes:
            raise ConfigError(
                f"Y{order} is incomplete: expected {dim * n_nodes} entries, "
                f"got {len(per_order[order])}"
            )
        coeffs.append(mat)
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

    typed: dict[str, object] = dict(DEFAULTS)
    matrix_entries: dict[str, float] = {}
    for key, value in raw.items():
        converted = _convert(key, value)
        if _MATRIX_KEY.match(key):
            matrix_entries[key] = converted  # type: ignore[assignment]
        else:
            typed[key] = converted

    trajectory = _build_trajectory(matrix_entries, int(typed["dim"]))
    sim = SimConfig(n_nodes=trajectory.n_nodes, **{key: typed[key] for key in _SCALAR_TYPES})
    return ScenarioSettings(sim=sim, trajectory=trajectory, k_sweep=tuple(typed["k_sweep"]))


@cache
def default_config_text() -> str:
    """Text of the bundled default scenario file, read once per process."""
    return resources.files("relkin").joinpath("default_scenario.cfg").read_text("utf-8")


@cache
def _bundled_values() -> Mapping[str, str]:
    """The raw key = value map of the bundled scenario; callers copy it before changing it."""
    text = default_config_text()
    return MappingProxyType(parse_config_text(text, "<bundled default_scenario.cfg>"))
