"""The pair-form measurement record: validation, square views and read-only inputs.

A MeasurementSet stores each record as its n(n-1)/2 squared pair
distances.  These tests pin that the pair validation rejects what no EDM
can hold, that pairs and squares convert into each other without loss
and bit for bit as their definitions written out here give them, and
that no estimator writes into the caller's record.
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


def tiny_pairs():
    """The simulated record times 2^-800, exactly.

    That is the same record in a length unit 2^400 times longer.  Each
    validation tolerance is relative to the largest magnitude, so it
    judges this record as it judges the record in metres.
    """
    return np.ldexp(simulated().pairs, -800)


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

    def test_a_record_in_tiny_units_is_accepted(self):
        pairs = tiny_pairs()
        assert np.array_equal(MeasurementSet(np.arange(11.0), pairs).pairs, pairs)
        meas = MeasurementSet.from_edms(np.arange(11.0), edm_from_pairs(pairs, 10))
        assert np.array_equal(meas.pairs, pairs)

    def test_a_negated_record_in_tiny_units_is_rejected(self):
        pairs = tiny_pairs()
        pairs[:, :20] *= -1.0
        with pytest.raises(InvalidDimensionError, match="squared distances must be nonnegative"):
            MeasurementSet(np.arange(11.0), pairs)

    @pytest.mark.parametrize(
        "cell,message",
        [((3, 1, 2), "be symmetric"), ((3, 4, 4), "have a zero diagonal")],
        ids=["asymmetric", "diagonal"],
    )
    def test_a_defective_edm_in_tiny_units_is_rejected(self, cell, message):
        edms = edm_from_pairs(tiny_pairs(), 10)
        edms[cell] += 1e-3 * edms.max()
        with pytest.raises(InvalidDimensionError, match=f"each EDM must {message}"):
            MeasurementSet.from_edms(np.arange(11.0), edms)

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


def pairs_oracle(x):
    """Squared distances by definition: every (n, n) difference, summed per coordinate in order.

    The pairs i < j are then read off row by row, in ``np.triu_indices(n, 1)`` order.
    """
    n = x.shape[-1]
    full = np.zeros(x.shape[:-2] + (n, n))
    for axis in range(x.shape[-2]):
        diff = x[..., axis, :, None] - x[..., axis, None, :]
        full += diff * diff
    pairs = [full[..., i, j] for i in range(n) for j in range(i + 1, n)]
    return np.stack(pairs, axis=-1) if pairs else np.zeros(x.shape[:-2] + (0,))


def edm_oracle(pairs, n):
    """The EDM of ``pairs`` written in cell by cell: (i, j) and (j, i) from pair i < j."""
    out = np.zeros(pairs.shape[:-1] + (n, n))
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            out[..., i, j] = out[..., j, i] = pairs[..., p]
            p += 1
    return out


def point_inputs(rng, lead, d, n):
    """Points of shape lead + (d, n): contiguous, a swapaxes view and a strided slice."""
    contiguous = rng.uniform(-500.0, 500.0, lead + (d, n))
    swapped = rng.uniform(-500.0, 500.0, lead + (n, d)).swapaxes(-1, -2)
    strided = rng.uniform(-500.0, 500.0, lead + (2 * d, 3 * n))[..., ::2, ::3]
    return {"contiguous": contiguous, "swapaxes": swapped, "strided": strided}


POINT_LEADS = {"single": (), "stack": (3,), "record-stack": (2, 11)}


class TestPairKernelOracles:
    """Both pair kernels, bit for bit against definitions written out here."""

    @pytest.mark.parametrize("lead", list(POINT_LEADS))
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 4, 100])
    def test_pairs_from_points_matches_its_definition(self, rng, lead, d, n):
        for name, x in point_inputs(rng, POINT_LEADS[lead], d, n).items():
            before = x.copy()
            got = pairs_from_points(x)
            assert got.shape == POINT_LEADS[lead] + (n * (n - 1) // 2,), name
            assert np.array_equal(got, pairs_oracle(x)), name
            # the simulator draws its noise into this array, which needs it C-contiguous
            assert got.flags.c_contiguous, name
            assert np.array_equal(x, before), name

    @pytest.mark.parametrize("lead", list(POINT_LEADS))
    @pytest.mark.parametrize("n", [1, 2, 4, 100])
    def test_edm_from_pairs_matches_its_definition(self, rng, lead, n):
        m, shape = n * (n - 1) // 2, POINT_LEADS[lead]
        inputs = {
            "contiguous": rng.uniform(0.0, 1e6, shape + (m,)),
            # the pair axis leading in memory, and every other pair of a longer axis
            "swapaxes": np.moveaxis(rng.uniform(0.0, 1e6, (m,) + shape), 0, -1),
            "strided": rng.uniform(0.0, 1e6, shape + (2 * m,))[..., ::2],
        }
        for name, pairs in inputs.items():
            before = pairs.copy()
            got = edm_from_pairs(pairs, n)
            assert np.array_equal(got, edm_oracle(pairs, n)), name
            assert np.array_equal(pairs, before), name
            # a second call goes through the cached cell map
            assert np.array_equal(edm_from_pairs(pairs, n), got), name


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
