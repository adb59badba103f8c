"""Monte-Carlo experiment runner, frame alignment and RMSE tables.

Relative estimates live in an arbitrary orthogonal frame, so evaluation
first registers each estimate to the centered ground truth with a single
orthogonal transform shared by all derivative orders, then aggregates
squared errors into RMSE tables per method, sample count and block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .accel_estimator import estimate_with_accel_batch
from .distance_estimator import BatchEstimate, KinematicEstimate, estimate_from_distances_batch
from .errors import InvalidDimensionError, RelkinError
from .linalg import centering_matrix, orthogonal_procrustes, triu_indices, vech
from .trajectory import (
    MeasurementSet,
    PolynomialTrajectory,
    SimConfig,
    _add_noise,
    _noiseless_record,
)

__all__ = [
    "MonteCarloResult",
    "RmseEntry",
    "RmseTable",
    "TimeSweepEntry",
    "align_to_truth",
    "rmse",
    "run_monte_carlo",
]

E = TypeVar("E", KinematicEstimate, BatchEstimate)

#: the scored blocks in RMSE row order: the low-order Grammian coefficients, then the kinematics
BLOCKS = ("B0", "B1", "B2", "Y0", "Y1", "Y2")

#: the methods by name: each maps a (stacked) MeasurementSet and the dimension to a BatchEstimate
_ESTIMATORS: dict[str, Callable[..., BatchEstimate]] = {
    "distance": estimate_from_distances_batch,
    "accel": estimate_with_accel_batch,
}

#: trials of one K simulated, estimated and scored together; bounds a sweep's memory
_CHUNK_TRIALS = 128

#: instants of the time sweep, spread evenly over [t_start, t_end]
_TIME_GRID = 21


@dataclass(frozen=True)
class RmseEntry:
    method: str
    k: int
    block: str
    rmse: float


@dataclass
class RmseTable:
    """Rows of (method, K, block, rmse)."""

    rows: list[RmseEntry]

    def value(self, method: str, k: int, block: str) -> float:
        for row in self.rows:
            if row.method == method and row.k == k and row.block == block:
                return row.rmse
        raise KeyError(f"no RMSE entry for ({method}, {k}, {block})")


@dataclass(frozen=True)
class TimeSweepEntry:
    method: str
    k: int
    t: float
    rmse: float


@dataclass
class MonteCarloResult:
    rmse_table: RmseTable
    time_sweep: list[TimeSweepEntry]
    failure_counts: dict[int, int]
    n_trials: int


def _centered_blocks(truth: PolynomialTrajectory, count: int = 3) -> list[np.ndarray]:
    c = centering_matrix(truth.n_nodes)
    return [truth.coefficient(l) @ c for l in range(count)]


def align_to_truth(est: E, truth: PolynomialTrajectory) -> E:
    """Register an estimate, or each estimate of a batch, to centered ground truth.

    One orthogonal transform (possibly a reflection) is fit to the
    horizontally stacked position/velocity/acceleration blocks and applied
    to every block and to the rotation field; per-block alignment would
    hide rotation-estimation errors and is deliberately not done.  A
    :class:`BatchEstimate` gets one transform per record from one
    stacked SVD.
    """
    targets = _centered_blocks(truth)
    if est.y0.shape[-2:] != targets[0].shape:
        raise InvalidDimensionError("estimate and truth shapes do not match")
    est_stack = np.concatenate([est.y0, est.y1, est.y2], axis=-1)
    truth_stack = np.broadcast_to(np.hstack(targets), est_stack.shape)
    r = orthogonal_procrustes(est_stack, truth_stack)
    return replace(
        est,
        y0=r @ est.y0,
        y1=r @ est.y1,
        y2=r @ est.y2,
        rotation=r @ est.rotation,
    )


def rmse(mean_sq: dict[tuple[str, int], np.ndarray], n: int, d: int) -> RmseTable:
    """RMSE rows, sorted by (method, K, block), from mean squared errors.

    ``mean_sq[(method, k)]`` holds the mean over trials of each block's
    squared error, in ``BLOCKS`` order.  A row's rmse is the square root
    of that mean divided by the length of the vectorized block:
    n*(n+1)/2 for the half-vectorized coefficient blocks, n*d for the
    kinematic blocks.
    """
    sizes = (n * (n + 1) // 2,) * 3 + (n * d,) * 3
    rows = [
        RmseEntry(method, k, block, float(np.sqrt(ms)) / size)
        for (method, k), errs in sorted(mean_sq.items())
        for block, ms, size in zip(BLOCKS, errs, sizes, strict=True)
    ]
    return RmseTable(rows=rows)


def _trial_seed(seed: int, k: int, trial: int) -> int:
    """Deterministic sub-seed for one (K, trial) work item."""
    return int(np.random.SeedSequence([seed, k, trial]).generate_state(1)[0])


def _truth_coeff_vecs(truth: PolynomialTrajectory) -> list[np.ndarray]:
    """vech of the low-order Grammian coefficient blocks of the truth."""
    blocks = _centered_blocks(truth)
    out = []
    for l in range(3):
        b = np.zeros((truth.n_nodes, truth.n_nodes))
        for m in range(l + 1):
            b += blocks[m].T @ blocks[l - m] / (factorial(m) * factorial(l - m))
        out.append(vech(b))
    return out


def _positions(blocks: Iterable[np.ndarray], times: np.ndarray) -> np.ndarray:
    """Positions at each of the T ``times``, (T, d, n), or (B, T, d, n) for stacked blocks."""
    y0, y1, y2 = (np.asarray(y)[..., None, :, :] for y in blocks)
    t = times[:, None, None]
    return y0 + y1 * t + 0.5 * y2 * t * t


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, adding the entries in index order.

    ``sum`` adds a contiguous row pairwise but a strided one in order, and
    the gathered coefficient rows are strided unless the stack holds one
    record, so a trial's score would depend on the size of its chunk.
    """
    return np.cumsum(x, axis=-1)[..., -1]


def _check_sweep(methods: Sequence[str], k_values: Sequence[int]) -> None:
    for name, values in (("methods", methods), ("k_values", k_values)):
        if len(values) == 0 or len(set(values)) != len(values):
            raise InvalidDimensionError(
                f"{name} must be non-empty and without repeats, got {values!r}"
            )
    for method in methods:
        if method not in _ESTIMATORS:
            raise InvalidDimensionError(f"unknown method '{method}'")


def _simulate_chunk(config: SimConfig, record: tuple, trials: range) -> MeasurementSet:
    """The ``trials`` of one K, stacked on its grid, each with its sub-seeded noise.

    ``config`` is the K's configuration and ``record`` its
    ``_noiseless_record``.  Each trial is the record plus the noise of its
    (K, trial) sub-seed, written into its row of the pair and accelerometer
    stacks, bit for bit what ``simulate_measurements`` gives for that seed;
    the stack is validated once.
    """
    timestamps, _, true_pairs, distances, true_accels = record
    pairs = np.broadcast_to(true_pairs, (len(trials),) + true_pairs.shape).copy()
    accels = np.broadcast_to(true_accels, (len(trials),) + true_accels.shape).copy()
    for i, trial in enumerate(trials):
        seed = _trial_seed(config.seed, config.k_samples, trial)
        _add_noise(config, seed, distances, pairs[i], accels[i])
    return MeasurementSet(timestamps, pairs, accels)


def run_monte_carlo(
    config: SimConfig,
    truth: PolynomialTrajectory,
    methods: Sequence[str] = ("distance", "accel"),
    k_values: Sequence[int] = (10, 20, 30, 40, 50),
) -> MonteCarloResult:
    """Paired Monte-Carlo benchmark over a sweep of sample counts.

    For every K, the noise-free record is simulated once, and each
    trial adds the noise of its deterministic (K, trial) sub-seed, so
    every trial is what ``simulate_measurements`` gives for that seed.
    The K's trials run in chunks of ``_CHUNK_TRIALS``, which bounds the
    memory whatever ``n_trials`` is: a chunk's records are stacked on
    their shared time grid, and each requested method estimates the
    whole stack in one batch call, so methods see bit-identical noise.
    Each estimate is aligned to the truth, and its trial's column of
    the (method, K) score matrix gets the squared errors of ``BLOCKS``
    and of the positions at the ``_TIME_GRID`` instants of the time
    sweep, aligned with the same transform.  Trials where any method
    fails are excluded from all methods to keep the comparison paired
    and counted in ``failure_counts`` per K; a K with no surviving trial
    has no RMSE or time-sweep rows.  A record's failure is its slot of
    the batch's ``errors``; a batch call raises only for a cause that
    all its records share, and then every trial of the chunk fails.
    Judging the failure rate is left to the caller.  Both tables come
    from one mean per (method, K) over the kept trials in index order;
    trial indices and sub-seeds are global over the K's chunks, so
    neither table depends on the chunk size.

    ``methods`` and ``k_values`` must be non-empty and free of repeats.
    """
    _check_sweep(methods, k_values)
    time_grid = np.linspace(config.t_start, config.t_end, _TIME_GRID)
    truth_blocks = _centered_blocks(truth)
    truth_vecs = _truth_coeff_vecs(truth)
    truth_positions = _positions(truth_blocks, time_grid)
    n, d = truth.n_nodes, truth.dim
    iu, ju = triu_indices(n)

    mean_sq: dict[tuple[str, int], np.ndarray] = {}
    failure_counts: dict[int, int] = {}
    for k in k_values:
        config_k = replace(config, k_samples=k)
        record = _noiseless_record(config_k, truth)
        scores = {m: np.empty((len(BLOCKS) + _TIME_GRID, config.n_trials)) for m in methods}
        kept = np.zeros(config.n_trials, dtype=bool)
        for start in range(0, config.n_trials, _CHUNK_TRIALS):
            chunk = range(start, min(start + _CHUNK_TRIALS, config.n_trials))
            stack = _simulate_chunk(config_k, record, chunk)
            batches = {}
            # paired: a trial counts only if every method estimated it
            ok = np.ones(len(chunk), dtype=bool)
            for method in methods:
                try:
                    batches[method] = _ESTIMATORS[method](stack, d)
                except RelkinError:
                    # a batch call raises only for a cause that all its records share
                    ok[:] = False
                    continue
                ok &= [error is None for error in batches[method].errors]
            kept[start : chunk.stop] = ok
            if not ok.any():
                continue
            index = ok.nonzero()[0]
            for method, batch in batches.items():
                aligned = align_to_truth(batch.select(index), truth)
                blocks = (aligned.y0, aligned.y1, aligned.y2)
                # the coefficient blocks are exactly symmetric, so vech is a gather
                errors = [
                    _sum_in_order((aligned.coeffs.blocks[l][:, ju, iu] - truth_vecs[l]) ** 2)
                    for l in range(3)
                ]
                errors += [((y - t) ** 2).sum(axis=(-2, -1)) for y, t in zip(blocks, truth_blocks)]
                positions = _positions(blocks, time_grid)
                errors.append(((positions - truth_positions) ** 2).sum(axis=(2, 3)).T)
                scores[method][:, start + index] = np.vstack(errors)
        failure_counts[k] = config.n_trials - int(kept.sum())
        if kept.any():
            for m in methods:
                # unlike a boolean gather, compress keeps each row contiguous, so each mean is
                # summed pairwise, as np.mean of the per-trial list was
                mean_sq[(m, k)] = np.compress(kept, scores[m], axis=1).mean(axis=1)

    sweep = [
        TimeSweepEntry(m, k, float(t), float(np.sqrt(mean_sq[(m, k)][len(BLOCKS) + i])) / (n * d))
        for m in methods
        for k in k_values
        if (m, k) in mean_sq
        for i, t in enumerate(time_grid)
    ]
    return MonteCarloResult(
        rmse_table=rmse({key: ms[: len(BLOCKS)] for key, ms in mean_sq.items()}, n, d),
        time_sweep=sweep,
        failure_counts=failure_counts,
        n_trials=config.n_trials,
    )
