"""Polynomial ground-truth trajectories and the measurement simulator.

Nodes follow per-node polynomial trajectories; the simulator produces
noisy squared-distance matrices and (optionally useful) accelerometer
readings on a uniform time grid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import factorial, isqrt
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, InvalidDimensionError, UnsupportedOrderError
from .linalg import centering_matrix, edm_from_pairs, pairs_from_points, triu_indices

__all__ = [
    "MeasurementSet",
    "PolynomialTrajectory",
    "SimConfig",
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

    def __eq__(self, other):
        """Value equality: as many orders, each of one shape and equal values.

        ``hash`` still raises TypeError, since the arrays can change in place.
        """
        if not isinstance(other, PolynomialTrajectory):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            np.array_equal(a, b) for a, b in zip(self.coeffs, other.coeffs)
        )

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
    K+1 uniform instants spanning [t_start, t_end] inclusive.  The
    scene is planar: the simulator takes (2, ``n_nodes``) trajectories,
    the only ones the closed-form estimators solve.
    """

    n_nodes: int = 10
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
        for name in ("n_nodes", "k_samples", "n_trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # the comparisons below are all False for NaN, so check finiteness first
        for name in ("t_start", "t_end", "sigma_d", "sigma_a", "accel_rotation_angle"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be positive")
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


@dataclass
class MeasurementSet:
    """Timestamps plus noisy squared pair distances and optional accelerometer data.

    ``pairs[k]`` holds the m = n(n-1)/2 squared distances at ``timestamps[k]``
    in ``triu_indices(n, 1)`` order; ``accels[k]`` one accelerometer column
    per node, in the (unknown) sensor frame.  B records on one time grid
    stack as (B, K+1, m) pairs and (B, K+1, d, n) accels, which the batch
    estimators solve at once; every check runs over the whole stack.
    Square EDMs enter through :meth:`from_edms`, and ``edms`` builds them
    back.  ``q_true`` is for evaluation only; estimators never read it.
    """

    timestamps: np.ndarray
    pairs: np.ndarray
    accels: Optional[np.ndarray] = None
    q_true: Optional[np.ndarray] = None

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float).ravel()
        self.pairs = np.asarray(self.pairs, dtype=float)
        if not np.all(np.isfinite(self.timestamps)):
            raise InvalidDimensionError("timestamps must be finite")
        if np.any(np.diff(self.timestamps) <= 0):
            raise InvalidDimensionError("timestamps must be strictly increasing")
        if self.pairs.ndim not in (2, 3) or self.pairs.shape[-2] != self.timestamps.size:
            raise InvalidDimensionError(
                "pairs must be (K+1, m), or (B, K+1, m) for a stack, matching timestamps"
            )
        if self.pairs.size == 0:
            raise InvalidDimensionError("a measurement set needs records, samples and nodes")
        n = self.n_nodes
        if n * (n - 1) // 2 != self.pairs.shape[-1]:
            raise InvalidDimensionError(f"{self.pairs.shape[-1]} is not a pair count n(n-1)/2")
        # max() and min() propagate NaN and inf, so they check finiteness too
        lowest = float(self.pairs.min())
        largest = max(float(self.pairs.max()), -lowest)
        if not np.isfinite(largest):
            raise InvalidDimensionError("squared distances must be finite")
        # relative to the largest magnitude, so a change of units changes no verdict
        if lowest < -1e-8 * largest:
            raise InvalidDimensionError(f"squared distances must be nonnegative, got {lowest}")
        if self.accels is not None:
            self.accels = np.asarray(self.accels, dtype=float)
            shape = self.accels.shape
            if shape[:-2] + shape[-1:] != self.pairs.shape[:-1] + (n,):
                raise InvalidDimensionError(
                    "accels must be (K+1, dim, n), or (B, K+1, dim, n), matching the EDMs"
                )
            if not np.all(np.isfinite(self.accels)):
                raise InvalidDimensionError("accelerometer readings must be finite")

    @classmethod
    def from_edms(cls, timestamps, edms, accels=None, q_true=None) -> MeasurementSet:
        """A set from square EDMs (K+1, n, n), or (B, K+1, n, n), checked once.

        Rejects a non-finite entry, an asymmetric EDM and a nonzero diagonal
        (to 1e-8 of the largest magnitude), then keeps the upper triangles.
        """
        edms = np.asarray(edms, dtype=float)
        if edms.ndim not in (3, 4) or edms.shape[-1] != edms.shape[-2]:
            raise InvalidDimensionError("edms must be (K+1, n, n), or (B, K+1, n, n) for a stack")
        # max(max, -min) is the largest magnitude without an abs() temporary
        largest = max(float(edms.max(initial=0.0)), -float(edms.min(initial=0.0)))
        if not np.isfinite(largest):
            raise InvalidDimensionError("EDM entries must be finite")
        n, tolerance = edms.shape[-1], 1e-8 * largest
        iu, ju = triu_indices(n, 1)
        pairs = edms[..., iu, ju]
        if float(np.abs(pairs - edms[..., ju, iu]).max(initial=0.0)) > tolerance:
            raise InvalidDimensionError("each EDM must be symmetric")
        if float(np.abs(edms[..., range(n), range(n)]).max(initial=0.0)) > tolerance:
            raise InvalidDimensionError("each EDM must have a zero diagonal")
        return cls(timestamps, pairs, accels, q_true)

    @property
    def edms(self) -> np.ndarray:
        """The square EDMs (K+1, n, n), or (B, K+1, n, n), built from ``pairs`` on each read."""
        return edm_from_pairs(self.pairs, self.n_nodes)

    @property
    def n_nodes(self) -> int:
        return (1 + isqrt(1 + 8 * self.pairs.shape[-1])) // 2


class _Record(NamedTuple):
    """The noise-free part of a simulation, everything a noise draw reads; all read-only.

    ``timestamps`` holds the K+1 instants and ``q`` the sensor rotation.
    ``pairs`` (K+1, n(n-1)/2) holds the values the distance noise is added
    to, the unsquared true distances, or, for a record without distance
    noise, the true squared distances.  ``accels`` (K+1, d, n) holds the
    mean-centered true accelerations rotated into the sensor frame.
    """

    timestamps: np.ndarray
    q: np.ndarray
    pairs: np.ndarray
    accels: np.ndarray


def _noiseless_record(config: SimConfig, traj: PolynomialTrajectory) -> _Record:
    """The noise-free :class:`_Record` of ``config`` and ``traj``, evaluated afresh."""
    if traj.coeffs[0].shape != (2, config.n_nodes):
        raise ConfigError(
            f"trajectory shape {traj.coeffs[0].shape} does not match the "
            f"configured planar (2, {config.n_nodes})"
        )
    ts = np.linspace(config.t_start, config.t_end, config.k_samples + 1)
    q = rotation2d(config.accel_rotation_angle)
    pairs = pairs_from_points(eval_kinematics(traj, ts, 0))
    if config.sigma_d != 0.0:
        np.sqrt(pairs, out=pairs)
    accels = q @ (eval_kinematics(traj, ts, 2) @ centering_matrix(config.n_nodes))
    record = _Record(ts, q, pairs, accels)
    for array in record:
        array.setflags(write=False)
    return record


#: ``(key, record)`` of the last ``_simulation_record``, or None
_last_record: Optional[tuple] = None


def _simulation_record(config: SimConfig, traj: PolynomialTrajectory) -> _Record:
    """:func:`_noiseless_record`, kept from one simulation to the next.

    The record does not depend on the seed, so the last one is kept,
    keyed by value: ``n_nodes``, ``k_samples``, whether
    ``sigma_d`` is nonzero, the bits of ``t_start``, ``t_end`` and
    ``accel_rotation_angle`` (so -0.0 and 0.0 stay apart), the
    coefficients' shared shape and each one's bytes.  A trajectory's
    arrays may be the caller's, and may be edited in place, so the key is
    never their identity.  One record is enough for a loop over seeds,
    and it is no larger than the set each simulation returns.
    """
    global _last_record
    key = (
        config.n_nodes,
        config.k_samples,
        config.sigma_d != 0.0,
        struct.pack("<3d", config.t_start, config.t_end, config.accel_rotation_angle),
        traj.coeffs[0].shape,
        *[c.tobytes() for c in traj.coeffs],
    )
    # the slot is read once and replaced whole, so concurrent callers each get
    # the record of their own key and at worst build it again
    last = _last_record
    if last is not None and last[0] == key:
        return last[1]
    record = _noiseless_record(config, traj)
    _last_record = key, record
    return record


def _add_noise(
    config: SimConfig, seed: int, record: _Record, pairs: np.ndarray, accels: np.ndarray
) -> None:
    """Write the noise-free ``record`` plus the noise of ``seed`` into ``pairs`` and ``accels``.

    ``pairs`` (K+1, m), C-contiguous, and ``accels`` (K+1, d, n) are
    overwritten whatever they held.  With distance noise, ``pairs`` gets
    the squared noisy distances; without, the record's true squared
    distances.
    """
    rng_dist, rng_accel = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
    )
    # a huge sigma overflows to inf, which the caller rejects as non-finite
    with np.errstate(over="ignore"):
        if config.sigma_d != 0.0:
            # distances + normal(0, sigma_d), drawn straight into the record: normal
            # draws 0 + sigma_d z from the same stream, and the addition commutes
            rng_dist.standard_normal(out=pairs)
            pairs *= config.sigma_d
            pairs += record.pairs
            pairs *= pairs
        else:
            pairs[...] = record.pairs
        # noise + truth is bit for bit truth + noise: IEEE addition commutes
        np.add(rng_accel.normal(0.0, config.sigma_a, accels.shape), record.accels, out=accels)


def simulate_measurements(config: SimConfig, traj: PolynomialTrajectory) -> MeasurementSet:
    """Generate a noisy measurement set on the configured time grid.

    The record is built whole in two steps: the noise-free record, the
    squared pair distances and sensor-frame accelerations over the K+1
    instants, then one draw of each noise, with the values of K+1 draws
    in sequence, added to it.  Distance noise is drawn per timestamp and
    unordered node pair, added to the *unsquared* distance, and squared
    into that pair's entry.  Accelerometer readings are the mean-centered
    true accelerations rotated into the sensor frame plus white noise per
    entry.  The first step does not depend on the seed, so the last
    simulation's noise-free record is kept (see :func:`_simulation_record`):
    a loop over seeds on one trajectory and grid only draws its noise,
    while a simulation of a new trajectory or grid evaluates its truth as
    before.  The returned set owns all its arrays, and the same seed
    reproduces it bit for bit.
    """
    record = _simulation_record(config, traj)
    pairs, accels = np.empty(record.pairs.shape), np.empty(record.accels.shape)
    _add_noise(config, config.seed, record, pairs, accels)
    return MeasurementSet(record.timestamps.copy(), pairs, accels, record.q.copy())
