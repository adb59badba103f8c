"""Monte-Carlo experiment runner, frame alignment and RMSE tables.

Relative estimates live in an arbitrary orthogonal frame, so evaluation
first registers each estimate to the centered ground truth with a single
orthogonal transform shared by all derivative orders, then aggregates
squared errors into RMSE tables per method, sample count and block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import factorial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .accel_estimator import estimate_with_accel
from .distance_estimator import KinematicEstimate, estimate_from_distances
from .errors import InvalidDimensionError, RelkinError
from .linalg import centering_matrix, orthogonal_procrustes, vech
from .trajectory import PolynomialTrajectory, SimConfig, simulate_measurements

__all__ = [
    "MonteCarloResult",
    "RmseEntry",
    "RmseTable",
    "TimeSweepEntry",
    "TrialResult",
    "align_to_truth",
    "rmse",
    "run_monte_carlo",
]

KINEMATIC_BLOCKS = ("Y0", "Y1", "Y2")
COEFFICIENT_BLOCKS = ("B0", "B1", "B2")

_ESTIMATORS: dict[str, Callable[..., KinematicEstimate]] = {
    "distance": estimate_from_distances,
    "accel": estimate_with_accel,
}


@dataclass
class TrialResult:
    """Per-trial squared errors after frame alignment."""

    trial_index: int
    method: str
    k: int
    sq_errors: dict[str, float]
    n_nodes: int
    dim: int
    warnings: list[str] = field(default_factory=list)


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


def align_to_truth(est: KinematicEstimate, truth: PolynomialTrajectory) -> KinematicEstimate:
    """Register an estimate to centered ground truth.

    One orthogonal transform (possibly a reflection) is fit to the
    horizontally stacked position/velocity/acceleration blocks and applied
    to every block and to the rotation field; per-block alignment would
    hide rotation-estimation errors and is deliberately not done.
    """
    targets = _centered_blocks(truth)
    if est.y0.shape != targets[0].shape:
        raise InvalidDimensionError("estimate and truth shapes do not match")
    est_stack = np.hstack([est.y0, est.y1, est.y2])
    truth_stack = np.hstack(targets)
    r = orthogonal_procrustes(est_stack, truth_stack)
    return replace(
        est,
        y0=r @ est.y0,
        y1=r @ est.y1,
        y2=r @ est.y2,
        rotation=r @ est.rotation,
    )


def _block_size(block: str, n: int, d: int) -> int:
    if block.startswith("B"):
        return n * (n + 1) // 2
    return n * d


def rmse(trials: Sequence[TrialResult]) -> RmseTable:
    """Aggregate per-trial squared errors into an RMSE table.

    For each (method, K, block): rmse = sqrt(mean over trials of the
    squared error) divided by the length of the vectorized block (n*d for
    kinematic blocks, n*(n+1)/2 for half-vectorized coefficient blocks).
    """
    if not trials:
        raise InvalidDimensionError("rmse needs at least one trial")
    groups: dict[tuple[str, int, str], list[float]] = {}
    sizes: dict[tuple[str, int, str], int] = {}
    for tr in trials:
        for block, err in tr.sq_errors.items():
            key = (tr.method, tr.k, block)
            groups.setdefault(key, []).append(err)
            sizes[key] = _block_size(block, tr.n_nodes, tr.dim)
    rows = [
        RmseEntry(method, k, block, float(np.sqrt(np.mean(errs))) / sizes[(method, k, block)])
        for (method, k, block), errs in sorted(groups.items())
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
    """Positions at each of the T ``times``, as a (T, d, n) stack."""
    y0, y1, y2 = blocks
    t = times[:, None, None]
    return y0 + y1 * t + 0.5 * y2 * t * t


def run_monte_carlo(
    config: SimConfig,
    truth: PolynomialTrajectory,
    methods: Sequence[str] = ("distance", "accel"),
    k_values: Sequence[int] = (10, 20, 30, 40, 50),
    time_grid: Optional[Sequence[float]] = None,
) -> MonteCarloResult:
    """Paired Monte-Carlo benchmark over a sweep of sample counts.

    For every K and trial one measurement set is generated from a
    deterministic sub-seed and fed to every requested method, so methods
    see bit-identical noise.  Each estimate is aligned to the truth; the
    squared errors of the kinematic blocks, of the low-order coefficient
    blocks, and of the positions over a time grid (aligned with the same
    transform) are accumulated.  Trials where any method fails are
    excluded from all methods to keep the comparison paired and counted
    in ``failure_counts`` per K; a K with no surviving trial has no RMSE
    or time-sweep rows.  Judging the failure rate is left to the caller.
    """
    for method in methods:
        if method not in _ESTIMATORS:
            raise InvalidDimensionError(f"unknown method '{method}'")
    if time_grid is None:
        time_grid = np.linspace(config.t_start, config.t_end, 21)
    time_grid = np.asarray(time_grid, dtype=float)

    truth_blocks = _centered_blocks(truth)
    truth_vecs = _truth_coeff_vecs(truth)
    truth_positions = _positions(truth_blocks, time_grid)
    n, d = truth.n_nodes, truth.dim

    trials: list[TrialResult] = []
    sweep_acc: dict[tuple[str, int], np.ndarray] = {
        (m, k): np.zeros(time_grid.size) for m in methods for k in k_values
    }
    sweep_counts: dict[tuple[str, int], int] = {(m, k): 0 for m in methods for k in k_values}
    failure_counts: dict[int, int] = {}

    for k in k_values:
        failures = 0
        for trial in range(config.n_trials):
            cfg = replace(config, k_samples=k, seed=_trial_seed(config.seed, k, trial))
            meas = simulate_measurements(cfg, truth)
            try:
                estimates = {m: _ESTIMATORS[m](meas, d) for m in methods}
            except RelkinError:
                failures += 1
                continue
            for method, est in estimates.items():
                aligned = align_to_truth(est, truth)
                sq = {
                    block: float(np.linalg.norm(getattr(aligned, attr) - target) ** 2)
                    for block, attr, target in zip(
                        KINEMATIC_BLOCKS, ("y0", "y1", "y2"), truth_blocks
                    )
                }
                for l, block in enumerate(COEFFICIENT_BLOCKS):
                    est_vec = vech(aligned.coeffs.blocks[l])
                    sq[block] = float(np.linalg.norm(est_vec - truth_vecs[l]) ** 2)
                trials.append(
                    TrialResult(
                        trial_index=trial,
                        method=method,
                        k=k,
                        sq_errors=sq,
                        n_nodes=n,
                        dim=d,
                        warnings=list(est.warnings),
                    )
                )
                est_positions = _positions((aligned.y0, aligned.y1, aligned.y2), time_grid)
                sweep_acc[(method, k)] += ((est_positions - truth_positions) ** 2).sum(axis=(1, 2))
                sweep_counts[(method, k)] += 1
        failure_counts[k] = failures

    sweep = [
        TimeSweepEntry(
            method=m,
            k=k,
            t=float(t),
            rmse=float(np.sqrt(sweep_acc[(m, k)][i] / sweep_counts[(m, k)])) / (n * d),
        )
        for m in methods
        for k in k_values
        if sweep_counts[(m, k)]
        for i, t in enumerate(time_grid)
    ]
    return MonteCarloResult(
        rmse_table=rmse(trials) if trials else RmseTable(rows=[]),
        time_sweep=sweep,
        failure_counts=failure_counts,
        n_trials=config.n_trials,
    )
