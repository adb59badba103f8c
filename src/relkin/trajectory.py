"""Polynomial ground-truth trajectories and the measurement simulator.

Nodes follow per-node polynomial trajectories; the simulator produces
noisy squared-distance matrices and (optionally useful) accelerometer
readings on a uniform time grid.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import factorial
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidDimensionError, UnsupportedOrderError
from .linalg import centering_matrix, edm_from_points, triu_indices

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


def eval_kinematics(traj: PolynomialTrajectory, t, order: int = 0) -> np.ndarray:
    """Positions (order 0), velocities (1) or accelerations (2) at time t.

    The order-``m`` derivative is ``sum_{l >= m} coeffs[l] * t**(l-m) / (l-m)!``.
    A scalar ``t`` gives a (dim, n) matrix, a vector of T times a
    (T, dim, n) stack.  ``np.float_power`` takes the powers with C ``pow``
    as Python's ``float ** int`` does (``**`` on an array may not).
    Orders above 2 are not supported.
    """
    if order not in (0, 1, 2):
        raise UnsupportedOrderError(f"derivative order {order} not supported (use 0..2)")
    t = np.asarray(t, dtype=float)[..., None, None]
    out = np.zeros(t.shape[:-2] + (traj.dim, traj.n_nodes))
    for l in range(order, traj.order + 1):
        out += traj.coeffs[l] * (np.float_power(t, l - order) / factorial(l - order))
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
        # these size arrays and seed generators, which raise a raw TypeError on a float
        for name in ("n_nodes", "dim", "k_samples", "n_trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # the comparisons below are all False for NaN, so check finiteness first
        for name in ("t_start", "t_end", "sigma_d", "sigma_a", "accel_rotation_angle"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.dim != 2 and self.accel_rotation_angle != 0.0:
            raise ConfigError("accel_rotation_angle is only defined for dim = 2")


@dataclass
class MeasurementSet:
    """Timestamps plus noisy EDM sequence and optional accelerometer data.

    ``edms[k]`` holds squared distances at ``timestamps[k]``; ``accels[k]``
    holds one accelerometer column per node, expressed in the (unknown)
    sensor frame.  A set may also stack B records on the one time grid:
    ``edms`` is then (B, K+1, n, n) and ``accels`` (B, K+1, d, n), and the
    batch estimators solve all of them at once.  Every check runs over
    the whole stack.  ``q_true`` is carried along for evaluation only;
    estimators never read it.
    """

    timestamps: np.ndarray
    edms: np.ndarray
    accels: Optional[np.ndarray] = None
    q_true: Optional[np.ndarray] = None

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float).ravel()
        self.edms = np.asarray(self.edms, dtype=float)
        if not np.all(np.isfinite(self.timestamps)):
            raise InvalidDimensionError("timestamps must be finite")
        if np.any(np.diff(self.timestamps) <= 0):
            raise InvalidDimensionError("timestamps must be strictly increasing")
        if self.edms.ndim not in (3, 4) or self.edms.shape[-3] != self.timestamps.size:
            raise InvalidDimensionError(
                "edms must be (K+1, n, n), or (B, K+1, n, n) for a stack, matching timestamps"
            )
        if self.edms.shape[-1] != self.edms.shape[-2]:
            raise InvalidDimensionError("each EDM must be square")
        if self.edms.size == 0:
            raise InvalidDimensionError("a measurement set needs records, samples and nodes")
        # max() and min() propagate NaN and inf, so they check finiteness too;
        # max(max, -min) is the largest magnitude without an abs() temporary
        largest = max(float(self.edms.max()), -float(self.edms.min()))
        if not np.isfinite(largest):
            raise InvalidDimensionError("EDM entries must be finite")
        scale = max(1.0, largest)
        n = self.n_nodes
        iu, ju = triu_indices(n, 1)
        asymmetry = np.abs(self.edms[..., iu, ju] - self.edms[..., ju, iu]).max(initial=0)
        if float(asymmetry) > 1e-8 * scale:
            raise InvalidDimensionError("each EDM must be symmetric")
        if float(np.abs(self.edms[..., range(n), range(n)]).max()) > 1e-8 * scale:
            raise InvalidDimensionError("each EDM must have a zero diagonal")
        if self.accels is not None:
            self.accels = np.asarray(self.accels, dtype=float)
            shape = self.accels.shape
            if len(shape) != self.edms.ndim or shape[:-2] + shape[-1:] != self.edms.shape[:-1]:
                raise InvalidDimensionError(
                    "accels must be (K+1, dim, n), or (B, K+1, dim, n), matching the EDMs"
                )
            if not np.all(np.isfinite(self.accels)):
                raise InvalidDimensionError("accelerometer readings must be finite")

    @property
    def n_nodes(self) -> int:
        return self.edms.shape[-1]

    def as_batch(self) -> MeasurementSet:
        """This set with a leading record axis: itself if stacked, else a batch of one.

        The batch of one shares this set's (already validated) arrays.
        """
        if self.edms.ndim == 4:
            return self
        one = copy.copy(self)
        one.edms = self.edms[None]
        one.accels = None if self.accels is None else self.accels[None]
        return one


def _noiseless_record(config: SimConfig, traj: PolynomialTrajectory) -> tuple:
    """The noise-free part of ``simulate_measurements``: one evaluation of the truth.

    Returns ``(timestamps, q, edms, distances, accels)``: the K+1 instants,
    the sensor rotation, the true EDMs (K+1, n, n), their unsquared
    upper-triangle distances (K+1, n(n-1)/2) that distance noise is added
    to (None when ``sigma_d`` is 0), and the mean-centered true
    accelerations rotated into the sensor frame (K+1, d, n).
    """
    if traj.dim != config.dim or traj.n_nodes != config.n_nodes:
        raise ConfigError(
            f"trajectory shape ({traj.dim}, {traj.n_nodes}) does not match the "
            f"configured ({config.dim}, {config.n_nodes})"
        )
    n, d = config.n_nodes, config.dim
    ts = np.linspace(config.t_start, config.t_end, config.k_samples + 1)
    q = rotation2d(config.accel_rotation_angle) if d == 2 else np.eye(d)
    edms = edm_from_points(eval_kinematics(traj, ts, 0))
    distances = None
    if config.sigma_d != 0.0:
        iu, ju = triu_indices(n, 1)
        distances = np.sqrt(edms[:, iu, ju])
    accels = q @ (eval_kinematics(traj, ts, 2) @ centering_matrix(n))
    return ts, q, edms, distances, accels


def _add_noise(
    config: SimConfig,
    seed: int,
    distances: Optional[np.ndarray],
    edms: np.ndarray,
    accels: np.ndarray,
) -> None:
    """Add the noise draw of ``seed`` in place to one noise-free record.

    ``edms`` (K+1, n, n) and ``accels`` (K+1, d, n) hold the record's true
    EDMs and sensor-frame accelerations on entry, and ``distances`` is its
    distance array from ``_noiseless_record``.  Only the off-diagonal EDM
    entries are overwritten, and only when there is distance noise.
    """
    rng_dist, rng_accel = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    if distances is not None:
        iu, ju = triu_indices(config.n_nodes, 1)
        noisy = distances + rng_dist.normal(0.0, config.sigma_d, distances.shape)
        edms[:, iu, ju] = edms[:, ju, iu] = noisy**2
    accels += rng_accel.normal(0.0, config.sigma_a, accels.shape)


def simulate_measurements(config: SimConfig, traj: PolynomialTrajectory) -> MeasurementSet:
    """Generate a noisy measurement set on the configured time grid.

    The record is built whole in two steps: the noise-free stacks of
    positions, EDMs and accelerations over the K+1 instants, then one draw
    of each noise, with the values of K+1 draws in sequence, added to the
    noise-free arrays in place.  Distance noise is drawn per timestamp
    and unordered node pair, added to the *unsquared* distance, and squared
    into the EDM, keeping the matrix exactly symmetric.  Accelerometer
    readings are the mean-centered true accelerations rotated into the
    sensor frame plus white noise per entry.  The same seed reproduces the
    output bit for bit; the Monte-Carlo harness shares the first step
    between the trials of one K and takes the second once per trial.
    """
    ts, q, edms, distances, accels = _noiseless_record(config, traj)
    # in place: the EDM diagonal is already exactly zero, and a fresh zeroed
    # copy would be one more large block of pages to fault in per call
    _add_noise(config, config.seed, distances, edms, accels)
    return MeasurementSet(timestamps=ts, edms=edms, accels=accels, q_true=q)


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
