"""Polynomial ground-truth trajectories and the measurement simulator.

Nodes follow per-node polynomial trajectories; the simulator produces
noisy squared-distance matrices and (optionally useful) accelerometer
readings on a uniform time grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidDimensionError, UnsupportedOrderError
from .linalg import centering_matrix

__all__ = [
    "MeasurementSet",
    "PolynomialTrajectory",
    "SimConfig",
    "benchmark_trajectory",
    "center_coefficients",
    "eval_kinematics",
    "rotation2d",
    "simulate_measurements",
]


@dataclass(frozen=True)
class PolynomialTrajectory:
    """Per-node polynomial motion model.

    ``coeffs[l]`` is the l-th time derivative of the node positions at
    t = 0, stored as a (dim, n_nodes) matrix, so the position at time t is
    ``sum_l coeffs[l] * t**l / l!``.  Coefficients beyond the stored order
    are zero.
    """

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        arrays = tuple(np.asarray(c, dtype=float) for c in self.coeffs)
        if not arrays:
            raise InvalidDimensionError("trajectory needs at least one coefficient")
        shape = arrays[0].shape
        if len(shape) != 2:
            raise InvalidDimensionError("coefficients must be (dim, n_nodes) matrices")
        for c in arrays:
            if c.shape != shape:
                raise InvalidDimensionError("all coefficients must share one shape")
            if not np.all(np.isfinite(c)):
                raise InvalidDimensionError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arrays)

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def n_nodes(self) -> int:
        return self.coeffs[0].shape[1]

    @property
    def order(self) -> int:
        """Highest stored derivative order."""
        return len(self.coeffs) - 1

    def coefficient(self, order: int) -> np.ndarray:
        """Coefficient matrix for ``order``, zero beyond the stored order."""
        if order <= self.order:
            return self.coeffs[order]
        return np.zeros((self.dim, self.n_nodes))


def eval_kinematics(traj: PolynomialTrajectory, t: float, order: int = 0) -> np.ndarray:
    """Positions (order 0), velocities (1) or accelerations (2) at time t.

    The order-``m`` derivative is ``sum_{l >= m} coeffs[l] * t**(l-m) / (l-m)!``.
    Orders above 2 are not supported.
    """
    if order not in (0, 1, 2):
        raise UnsupportedOrderError(f"derivative order {order} not supported (use 0..2)")
    out = np.zeros((traj.dim, traj.n_nodes))
    for l in range(order, traj.order + 1):
        out += traj.coeffs[l] * (float(t) ** (l - order) / factorial(l - order))
    return out


def center_coefficients(traj: PolynomialTrajectory) -> PolynomialTrajectory:
    """Remove the network mean from every coefficient matrix.

    Each output coefficient has zero row sums, i.e. the node set is
    expressed relative to its own centroid for every derivative order.
    """
    c = centering_matrix(traj.n_nodes)
    return PolynomialTrajectory(tuple(y @ c for y in traj.coeffs))


def rotation2d(angle: float) -> np.ndarray:
    """Planar rotation matrix for ``angle`` radians."""
    ca, sa = np.cos(angle), np.sin(angle)
    return np.array([[ca, -sa], [sa, ca]])


@dataclass
class SimConfig:
    """Simulation parameters for one measurement scenario.

    ``k_samples`` is the grid parameter K: measurements are taken at the
    K+1 uniform instants spanning [t_start, t_end] inclusive.
    """

    n_nodes: int = 10
    dim: int = 2
    k_samples: int = 40
    t_start: float = -5.0
    t_end: float = 5.0
    sigma_d: float = 0.01
    sigma_a: float = 0.001
    seed: int = 0
    accel_rotation_angle: float = 0.0
    n_trials: int = 100

    def __post_init__(self):
        if self.n_nodes < 1 or self.dim < 1:
            raise ConfigError("n_nodes and dim must be positive")
        if self.k_samples < 4:
            raise ConfigError("k_samples must be >= 4 (the degree-4 fit needs K+1 >= 5)")
        if not self.t_start < self.t_end:
            raise ConfigError("t_start must be smaller than t_end")
        if self.sigma_d < 0 or self.sigma_a < 0:
            raise ConfigError("noise standard deviations must be nonnegative")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be positive")
        if self.dim != 2 and self.accel_rotation_angle != 0.0:
            raise ConfigError("accel_rotation_angle is only defined for dim = 2")


@dataclass
class MeasurementSet:
    """Timestamps plus noisy EDM sequence and optional accelerometer data.

    ``edms[k]`` holds squared distances at ``timestamps[k]``; ``accels[k]``
    holds one accelerometer column per node, expressed in the (unknown)
    sensor frame.  ``truth`` and ``q_true`` are carried along for
    evaluation only; estimators never read them.
    """

    timestamps: np.ndarray
    edms: np.ndarray
    accels: Optional[np.ndarray] = None
    truth: Optional[PolynomialTrajectory] = None
    q_true: Optional[np.ndarray] = None

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float).ravel()
        self.edms = np.asarray(self.edms, dtype=float)
        if not np.all(np.isfinite(self.timestamps)):
            raise InvalidDimensionError("timestamps must be finite")
        if np.any(np.diff(self.timestamps) <= 0):
            raise InvalidDimensionError("timestamps must be strictly increasing")
        if self.edms.ndim != 3 or self.edms.shape[0] != self.timestamps.size:
            raise InvalidDimensionError("edms must be (K+1, n, n) matching timestamps")
        if self.edms.shape[1] != self.edms.shape[2]:
            raise InvalidDimensionError("each EDM must be square")
        # max() propagates NaN and inf, so one reduction checks finiteness too
        largest = float(np.abs(self.edms).max())
        if not np.isfinite(largest):
            raise InvalidDimensionError("EDM entries must be finite")
        scale = max(1.0, largest)
        if float(np.abs(self.edms - self.edms.transpose(0, 2, 1)).max()) > 1e-8 * scale:
            raise InvalidDimensionError("each EDM must be symmetric")
        diags = self.edms[:, range(self.edms.shape[1]), range(self.edms.shape[1])]
        if float(np.abs(diags).max()) > 1e-8 * scale:
            raise InvalidDimensionError("each EDM must have a zero diagonal")
        if self.accels is not None:
            self.accels = np.asarray(self.accels, dtype=float)
            if self.accels.ndim != 3 or self.accels.shape[0] != self.timestamps.size:
                raise InvalidDimensionError("accels must be (K+1, dim, n)")
            if not np.all(np.isfinite(self.accels)):
                raise InvalidDimensionError("accelerometer readings must be finite")

    @property
    def n_nodes(self) -> int:
        return self.edms.shape[1]


def simulate_measurements(config: SimConfig, traj: PolynomialTrajectory) -> MeasurementSet:
    """Generate a noisy measurement set on the configured time grid.

    Distance noise is drawn once per unordered node pair and timestamp,
    added to the *unsquared* distance, and squared into the EDM, keeping
    the matrix exactly symmetric.  Accelerometer readings are the mean-
    centered true accelerations rotated into the sensor frame plus white
    noise per entry.  The same seed reproduces the output bit for bit.
    """
    if traj.dim != config.dim or traj.n_nodes != config.n_nodes:
        raise ConfigError(
            f"trajectory shape ({traj.dim}, {traj.n_nodes}) does not match the "
            f"configured ({config.dim}, {config.n_nodes})"
        )
    n, d = config.n_nodes, config.dim
    ts = np.linspace(config.t_start, config.t_end, config.k_samples + 1)
    rng_dist, rng_accel = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    q = rotation2d(config.accel_rotation_angle) if d == 2 else np.eye(d)
    c = centering_matrix(n)
    iu, ju = np.triu_indices(n, k=1)
    edms = np.zeros((ts.size, n, n))
    accels = np.zeros((ts.size, d, n))
    for k, t in enumerate(ts):
        x = eval_kinematics(traj, t, 0)
        diff = x[:, :, None] - x[:, None, :]
        sq = np.einsum("dij,dij->ij", diff, diff)
        if config.sigma_d == 0.0:
            upper = sq[iu, ju]
        else:
            noisy = np.sqrt(sq[iu, ju]) + rng_dist.normal(0.0, config.sigma_d, iu.size)
            upper = noisy**2
        edm = np.zeros((n, n))
        edm[iu, ju] = upper
        edms[k] = edm + edm.T
        acc = eval_kinematics(traj, t, 2) @ c
        accels[k] = q @ acc + rng_accel.normal(0.0, config.sigma_a, (d, n))
    return MeasurementSet(timestamps=ts, edms=edms, accels=accels, truth=traj, q_true=q)


def benchmark_trajectory() -> PolynomialTrajectory:
    """Ten-node planar constant-acceleration scenario.

    Matches the bundled ``default_scenario.cfg`` and is used throughout
    the test suite as a realistic desk-scale instance.
    """
    y0 = np.array(
        [
            [-244.0, 385.0, 81.0, -19.0, -792.0, -554.0, -965.0, -985.0, -49.0, -503.0],
            [-588.0, -456.0, -992.0, -730.0, 879.0, 970.0, 155.0, 318.0, -858.0, 419.0],
        ]
    )
    y1 = np.array(
        [
            [-5.0, -8.0, -6.0, 6.0, -1.0, 2.0, 1.0, -5.0, 9.0, -5.0],
            [-8.0, -5.0, -7.0, -9.0, -3.0, -2.0, -2.0, -10.0, 2.0, -1.0],
        ]
    )
    y2 = np.array(
        [
            [-0.17, -0.42, 0.22, -0.07, 0.21, -0.15, 0.55, -0.72, -0.49, -0.34],
            [0.42, 0.17, 0.98, 0.73, 0.48, 0.08, -0.43, -0.14, 0.56, 0.91],
        ]
    )
    return PolynomialTrajectory((y0, y1, y2))
