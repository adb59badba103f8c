"""The pair-form measurement record: validation, square views and read-only inputs.

A MeasurementSet stores each record as its n(n-1)/2 squared pair
distances.  These tests pin that the pair validation rejects what no EDM
can hold, that pairs and squares convert into each other without loss,
and that no estimator writes into the caller's record.
The interface perfbench reads is guarded in ``test_public_api.py``.
"""

import numpy as np
import pytest

from relkin import (
    InvalidDimensionError,
    MeasurementSet,
    SimConfig,
    benchmark_trajectory,
    edm_from_points,
    estimate_from_distances,
    estimate_with_accel,
    simulate_measurements,
)
from relkin.accel_estimator import estimate_with_accel_batch
from relkin.distance_estimator import estimate_from_distances_batch
from relkin.linalg import edm_from_pairs, pairs_from_points, triu_indices

from conftest import random_constant_accel_trajectory


def simulated(k=10, seed=0):
    cfg = SimConfig(k_samples=k, seed=seed, accel_rotation_angle=0.4)
    return simulate_measurements(cfg, benchmark_trajectory())


class TestPairValidation:
    def test_negative_squared_distance_rejected(self):
        pairs = simulated().pairs.copy()
        pairs[4, 7] = -5.0
        with pytest.raises(InvalidDimensionError, match="nonnegative, got -5.0"):
            MeasurementSet(np.arange(11.0), pairs)

    def test_negative_round_off_accepted(self):
        # the tolerance of the zero-diagonal check: 1e-8 of the largest magnitude
        pairs = simulated().pairs.copy()
        pairs[4, 7] = -1e-9 * pairs.max()
        MeasurementSet(np.arange(11.0), pairs)

    def test_accels_must_match_the_node_count_the_pairs_imply(self):
        meas = simulated()
        with pytest.raises(InvalidDimensionError, match="matching the EDMs"):
            MeasurementSet(meas.timestamps, meas.pairs[:, :36], meas.accels)


class TestPairKernels:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pairs_from_points_are_the_upper_triangle_of_the_edm(self, rng, d):
        x = rng.uniform(-500.0, 500.0, (4, d, 9))
        iu, ju = triu_indices(9, 1)
        assert np.array_equal(pairs_from_points(x), edm_from_points(x)[..., iu, ju])

    def test_edm_from_pairs_is_symmetric_with_a_zero_diagonal(self, rng):
        pairs = rng.uniform(0.0, 1e6, (3, 2, 21))
        edms = edm_from_pairs(pairs, 7)
        assert np.array_equal(edms, edms.swapaxes(-1, -2))
        assert not edms[..., range(7), range(7)].any()
        assert np.array_equal(MeasurementSet.from_edms(np.arange(2.0), edms[0]).pairs, pairs[0])


ESTIMATORS = {
    "distance": estimate_from_distances,
    "accel": estimate_with_accel,
    "distance-batch": estimate_from_distances_batch,
    "accel-batch": estimate_with_accel_batch,
}


@pytest.mark.parametrize("name", list(ESTIMATORS))
@pytest.mark.parametrize("n", [10, 100])
def test_estimators_never_write_into_the_callers_record(name, n):
    if n == 10:
        meas = simulated(k=12, seed=3)
    else:
        traj = random_constant_accel_trajectory(np.random.default_rng(1), n=n)
        meas = simulate_measurements(SimConfig(n_nodes=n, k_samples=10, seed=1), traj)
    if name.endswith("batch"):
        two = [np.stack([meas.pairs] * 2), np.stack([meas.accels] * 2)]
        meas = MeasurementSet(meas.timestamps, *two)
    pairs, accels = meas.pairs.copy(), meas.accels.copy()
    first = ESTIMATORS[name](meas)
    assert np.array_equal(meas.pairs, pairs) and np.array_equal(meas.accels, accels)
    second = ESTIMATORS[name](meas)
    for field in ("y0", "y1", "y2", "rotation"):
        assert np.array_equal(getattr(first, field), getattr(second, field)), field
    for table in ("residuals", "conditioning"):
        got, want = getattr(second, table), getattr(first, table)
        assert list(got) == list(want)
        for key in want:
            assert np.array_equal(got[key], want[key], equal_nan=True), (table, key)
    assert first.warnings == second.warnings
