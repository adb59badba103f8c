"""CSV serialization for measurement bundles, estimates and benchmark tables.

All files are UTF-8 with '.' as the decimal separator and '\n' line
endings; floats are written with shortest round-trip precision so a
written bundle reads back bit for bit.  Every CSV file is written by one
table writer from whole columns (index grids broadcast against the value
arrays), not entry by entry.  ``edms.csv`` holds one (k, i < j) row per
entry of a set's ``pairs``, which the reader fills straight from the rows.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .distance_estimator import KinematicEstimate
from .errors import ConfigError
from .harness import RmseTable, TimeSweepEntry
from .linalg import triu_indices
from .trajectory import MeasurementSet

__all__ = [
    "ACCEL_FILE",
    "DIAGNOSTICS_FILE",
    "EDM_FILE",
    "ESTIMATE_FILE",
    "FAILURES_FILE",
    "RMSE_FILE",
    "TIMESTAMPS_FILE",
    "TIME_SWEEP_FILE",
    "read_measurement_bundle",
    "write_estimate",
    "write_failure_counts",
    "write_measurement_bundle",
    "write_rmse_table",
    "write_time_sweep",
]

TIMESTAMPS_FILE = "timestamps.csv"
EDM_FILE = "edms.csv"
ACCEL_FILE = "accels.csv"
ESTIMATE_FILE = "estimate.csv"
DIAGNOSTICS_FILE = "diagnostics.txt"
RMSE_FILE = "rmse.csv"
TIME_SWEEP_FILE = "time_sweep.csv"
FAILURES_FILE = "failures.csv"


def _write_table(path, header: str, *columns) -> Path:
    """Write a CSV table with one row per entry of the broadcast ``columns``.

    Rows run in C order over the broadcast shape.  Each column is formatted
    once at its own shape and its strings are broadcast, so an index grid
    costs one ``str`` per distinct index; ``str`` of a Python float is its
    shortest round-trip repr, so values read back bit for bit.  No columns,
    or an empty one, write the header alone.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    cells = []
    for a in arrays:
        strings = np.array(list(map(str, a.ravel().tolist())), dtype=object).reshape(a.shape)
        cells.append(np.broadcast_to(strings, shape).ravel().tolist())
    path.write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n", encoding="utf-8")
    return path


def write_measurement_bundle(meas: MeasurementSet, outdir) -> list[Path]:
    """Write a measurement set as a CSV bundle into ``outdir``.

    Produces ``timestamps.csv`` (k,t), ``edms.csv`` (k,i,j,value with
    i < j: the pairs) and, when accelerometer data is present,
    ``accels.csv`` (k,node,axis,value).
    """
    outdir = Path(outdir)
    k = np.arange(meas.timestamps.size)
    iu, ju = triu_indices(meas.n_nodes, 1)
    written = [
        _write_table(outdir / TIMESTAMPS_FILE, "k,t", k, meas.timestamps),
        _write_table(outdir / EDM_FILE, "k,i,j,value", k[:, None], iu, ju, meas.pairs),
    ]
    if meas.accels is not None:
        acc = meas.accels.transpose(0, 2, 1)  # rows run k, node, axis
        path = _write_table(outdir / ACCEL_FILE, "k,node,axis,value", *np.indices(acc.shape), acc)
        written.append(path)
    return written


def _read_columns(path: Path, header: str) -> list[np.ndarray]:
    """Columns of a CSV table: integer index columns, then the float last one.

    Blank and whitespace-only lines are skipped; the first other line must
    be ``header``.  The rows are parsed by one ``np.loadtxt`` call, so an
    index must be a plain integer and a value a plain float literal.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    lines = list(filter(str.strip, text.splitlines()))
    if not lines or lines[0] != header:
        raise ConfigError(f"{path}: expected header '{header}'")
    *index_names, value_name = header.split(",")
    rows = lines[1:]
    if not rows:  # loadtxt would warn that the input holds no data
        return [np.empty(0, dtype=np.int64) for _ in index_names] + [np.empty(0)]
    dtype = [(name, np.int64) for name in index_names] + [(value_name, float)]
    try:
        with warnings.catch_warnings():
            # numpy releases that still parse an integer field via a float
            # ('1.5' read as 1) only warn; here that is a malformed index.
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1, unpack=True)
    except (ValueError, DeprecationWarning) as exc:
        if any(row.count(",") != len(index_names) for row in rows):
            width = len(dtype)
            raise ConfigError(f"{path}: every row needs {width} comma-separated fields") from exc
        raise ConfigError(f"{path}: {exc}") from exc


def _placed(path: Path, cells: np.ndarray, values: np.ndarray, count: int, what: str):
    """``count`` cells, each filled by the one row of ``values`` that names it.

    Raises unless there are ``count`` rows and no two name the same cell;
    with the indices in range, as the caller checks, that fills every cell.
    """
    if values.size != count:
        raise ConfigError(
            f"{path}: every {what} must occur exactly once "
            f"({count} rows expected, got {values.size})"
        )
    if np.bincount(cells).max() > 1:
        raise ConfigError(f"{path}: every {what} must occur exactly once (found a repeat)")
    placed = np.empty(count)
    placed[cells] = values
    return placed


def read_measurement_bundle(indir) -> MeasurementSet:
    """Read a CSV bundle written by :func:`write_measurement_bundle`.

    Rejects with ConfigError any bundle whose ``k`` values are not 0..K
    once each in ``timestamps.csv``, or which lacks, repeats or adds an
    EDM pair (k, i < j) or an accelerometer reading (k, node, axis), and
    with InvalidDimensionError values that :class:`MeasurementSet` rejects.
    """
    indir = Path(indir)
    path = indir / TIMESTAMPS_FILE
    k, t = _read_columns(path, "k,t")
    kk = k.size
    if not np.array_equal(np.sort(k), np.arange(kk)):
        raise ConfigError(f"{path}: k must take each value 0..K exactly once")
    timestamps = np.empty(kk)
    timestamps[k] = t

    path = indir / EDM_FILE
    k, i, j, values = _read_columns(path, "k,i,j,value")
    if not values.size:
        raise ConfigError(f"{path}: no pairwise entries (need >= 2 nodes)")
    if k.min() < 0 or k.max() >= kk or i.min() < 0 or np.any(i >= j):
        raise ConfigError(f"{path}: entries need 0 <= k < {kk} ({TIMESTAMPS_FILE}) and 0 <= i < j")
    n = 1 + int(j.max())
    m = n * (n - 1) // 2
    cells = k * m + i * n - i * (i + 1) // 2 + j - i - 1
    pairs = _placed(path, cells, values, kk * m, "(k, i, j)").reshape(kk, m)

    accels = None
    path = indir / ACCEL_FILE
    if path.exists():
        k, node, axis, values = _read_columns(path, "k,node,axis,value")
        if not values.size:
            raise ConfigError(f"{path}: no accelerometer readings")
        if k.min() < 0 or k.max() >= kk or node.min() < 0 or node.max() >= n or axis.min() < 0:
            raise ConfigError(
                f"{path}: readings need 0 <= k < {kk} ({TIMESTAMPS_FILE}), "
                f"0 <= node < {n} ({EDM_FILE}) and axis >= 0"
            )
        d = 1 + int(axis.max())
        cells = (k * d + axis) * n + node
        accels = _placed(path, cells, values, kk * d * n, "(k, node, axis)").reshape(kk, d, n)

    return MeasurementSet(timestamps, pairs, accels)


def write_estimate(est: KinematicEstimate, outdir) -> list[Path]:
    """Write an estimate as (block,row,col,value) CSV plus diagnostics text."""
    outdir = Path(outdir)
    blocks = {"Y0": est.y0, "Y1": est.y1, "Y2": est.y2, "rotation": est.rotation}
    mats = list(blocks.values())
    est_path = _write_table(
        outdir / ESTIMATE_FILE,
        "block,row,col,value",
        np.repeat(list(blocks), [m.size for m in mats]),
        *np.hstack([np.indices(m.shape).reshape(2, -1) for m in mats]),
        np.concatenate([m.ravel() for m in mats]),
    )
    diag = [f"residual {name} = {float(value)}\n" for name, value in est.residuals.items()]
    diag += [f"conditioning {name} = {float(value)}\n" for name, value in est.conditioning.items()]
    diag += [f"warning: {w}\n" for w in est.warnings]
    diag_path = outdir / DIAGNOSTICS_FILE
    diag_path.write_text("".join(diag), encoding="utf-8")
    return [est_path, diag_path]


def write_rmse_table(table: RmseTable, path) -> Path:
    """Write an RMSE table as (method,k,block,rmse) CSV."""
    return _write_table(path, "method,k,block,rmse", *zip(*map(astuple, table.rows)))


def write_time_sweep(entries: Sequence[TimeSweepEntry], path) -> Path:
    """Write a positional time sweep as (method,k,t,rmse) CSV."""
    return _write_table(path, "method,k,t,rmse", *zip(*map(astuple, entries)))


def write_failure_counts(failure_counts: Mapping[int, int], n_trials: int, path) -> Path:
    """Write the failed trials per sample count K as (k,failures,n_trials) CSV."""
    counts = (list(failure_counts), list(failure_counts.values()), n_trials)
    return _write_table(path, "k,failures,n_trials", *counts)
