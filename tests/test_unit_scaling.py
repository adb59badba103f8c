"""The estimators run at one unit scale, and warn on squared distances no planar network fits.

Each record is fitted at unit scale, by exact powers of two, and every
output is scaled back.  So a change of units by powers of two changes
every output by exactly its power, bit for bit, and no warning, rank rule
or conditioning number sees the units.
"""

import warnings

import numpy as np
import pytest

from relkin import (
    MeasurementSet,
    PolynomialTrajectory,
    SimConfig,
    benchmark_trajectory,
    simulate_measurements,
)
from relkin.accel_estimator import estimate_with_accel_batch
from relkin.distance_estimator import (
    _NOT_PLANAR,
    _UNITS,
    build_and_solve_basis,
    chu_decompose,
    estimate_from_distances_batch,
)
from relkin.linalg import classical_mds

from test_batch import assert_same_estimate, collinear_trajectory, stack

BATCH = {"distance": estimate_from_distances_batch, "accel": estimate_with_accel_batch}


def records(count=1, k=20, traj=None, **cfg):
    traj = traj or benchmark_trajectory()
    return [
        simulate_measurements(
            SimConfig(k_samples=k, sigma_d=0.01, seed=s, accel_rotation_angle=0.5, **cfg), traj
        )
        for s in range(1, count + 1)
    ]


def in_units(meas, lengths, time):
    """``meas`` with each record's length unit 2^-lengths[i] and a time unit 2^-time."""
    lengths = np.asarray(lengths)
    return MeasurementSet(
        np.ldexp(meas.timestamps, time),
        np.ldexp(meas.pairs, 2 * lengths[:, None, None]),
        np.ldexp(meas.accels, (lengths - 2 * time)[:, None, None, None]),
    )


def assert_scaled(got, want, lengths, time):
    """Every output of ``got`` is that of ``want`` times its power of two, bit for bit."""
    k, j = np.asarray(lengths), time
    assert all(error is None for error in got.errors + want.errors)
    for power, name in enumerate(("y0", "y1", "y2")):
        scaled = np.ldexp(getattr(want, name), (k - power * j)[:, None, None])
        assert np.array_equal(getattr(got, name), scaled), name
    for l, (mine, ref) in enumerate(zip(got.coeffs.blocks, want.coeffs.blocks)):
        assert np.array_equal(mine, np.ldexp(ref, (2 * k - l * j)[:, None, None])), l
    assert list(got.residuals) == list(want.residuals)
    for key, (a, b) in _UNITS.items():
        if key in want.residuals:
            scaled = np.ldexp(want.residuals[key], a * k - b * j)
            assert np.array_equal(got.residuals[key], scaled, equal_nan=True), key
    assert np.array_equal(got.rotation, want.rotation)
    assert got.warnings == want.warnings
    assert list(got.conditioning) == list(want.conditioning)
    for key, value in want.conditioning.items():
        assert np.array_equal(got.conditioning[key], value, equal_nan=True), key


@pytest.mark.parametrize("method", ["distance", "accel"])
@pytest.mark.parametrize(
    "length,time", [(400, 0), (-400, 0), (0, 400), (400, 400), (-400, -400), (-400, -200)]
)
def test_power_of_two_units_scale_every_output_exactly(method, length, time):
    # length x 2^k, time x 2^j and accelerations x 2^(k - 2j); at time x 2^-400
    # the quartic block of the benchmark scene would pass the largest float
    meas = stack(records())
    want = BATCH[method](meas)
    got = BATCH[method](in_units(meas, [length], time))
    assert_scaled(got, want, [length], time)


@pytest.mark.parametrize("method", ["distance", "accel"])
def test_each_record_of_a_stack_keeps_its_own_length_unit(method):
    meas = stack(records(3))
    lengths = [400, 0, -400]
    want = BATCH[method](meas)
    got = BATCH[method](in_units(meas, lengths, 300))
    assert_scaled(got, want, lengths, 300)


def iid_pairs(k, seed):
    """Uniform "squared distances" and accelerations of 10 nodes that no network produced."""
    rng = np.random.default_rng(seed)
    t = np.linspace(-5.0, 5.0, k + 1)
    return MeasurementSet(t, rng.uniform(0.0, 100.0, (k + 1, 45)), rng.normal(size=(k + 1, 2, 10)))


@pytest.mark.parametrize("method", ["distance", "accel"])
@pytest.mark.parametrize("k", [10, 40])
def test_squared_distances_no_planar_network_fits_warn(method, k):
    # position_mds reads 0.40-0.97 on the collinear scene and 0.57-0.95 on
    # i.i.d. pairs, at least 10 times below the threshold
    inputs = records(3, k, collinear_trajectory()) + [iid_pairs(k, s) for s in range(3)]
    for meas in inputs:
        batch = BATCH[method](meas)
        assert batch.conditioning["position_mds"][0] < 1.0
        assert _NOT_PLANAR in batch.warnings[0]


def zero_acceleration_trajectory():
    y0, y1, _ = benchmark_trajectory().coeffs
    return PolynomialTrajectory((y0, y1))


@pytest.mark.parametrize("method", ["distance", "accel"])
@pytest.mark.parametrize("k", [10, 40])
@pytest.mark.parametrize(
    "scene", ["benchmark", "static", "zero-acceleration"]
)
def test_planar_scenes_do_not_warn(method, k, scene):
    # position_mds reads at least 9.9e3 on each, 990 times above the threshold
    y0 = benchmark_trajectory().coeffs[0]
    traj = {
        "benchmark": benchmark_trajectory(),
        "static": PolynomialTrajectory((y0,)),
        "zero-acceleration": zero_acceleration_trajectory(),
    }[scene]
    batch = BATCH[method](stack(records(3, k, traj)))
    assert (batch.conditioning["position_mds"] > 1e3).all()
    assert not any(_NOT_PLANAR in notes for notes in batch.warnings)


def test_the_basis_rank_rule_drops_only_round_off():
    # the estimators solve at unit scale, but build_and_solve_basis takes any
    # units: in micrometres the coupled system's length/time columns stand 1e6
    # apart from its unitless ones, and it still has rank 4
    cfg = SimConfig(k_samples=20, sigma_d=0.01, seed=1)
    est = BATCH["distance"](simulate_measurements(cfg, benchmark_trajectory())).estimate(0)
    b, length = est.coeffs.blocks, 1e6
    factor = classical_mds(4.0 * b[4], 2).points
    f0 = chu_decompose(b[1] * length**2, est.y0 * length)
    f2 = chu_decompose(2.0 * b[3] * length**2, factor * length)
    system = build_and_solve_basis(f0, f2)
    assert system.condition > 1e6
    assert system.rank == 4 and system.solvable
    in_metres = build_and_solve_basis(
        chu_decompose(b[1], est.y0), chu_decompose(2.0 * b[3], factor)
    )
    assert np.abs(system.h - in_metres.h).max() <= 1e-9


@pytest.mark.parametrize("method", ["distance", "accel"])
def test_a_record_of_zero_distances_stays_in_its_record(method):
    # no length scale to take: its pairs keep a bounded exponent, and no numpy
    # warning escapes; without accelerometers its velocity split is degenerate
    ordinary = records(2)
    zero = MeasurementSet(ordinary[0].timestamps, 0.0 * ordinary[0].pairs, ordinary[0].accels)
    batch = BATCH[method](stack([ordinary[0], zero, ordinary[1]]))
    alone = BATCH[method](stack(ordinary))
    if method == "distance":
        assert str(batch.errors[1]).startswith("stage 'velocity-split': ")
    for i, solo in ((0, 0), (2, 1)):
        assert batch.errors[i] is None and batch.warnings[i] == alone.warnings[solo]
        assert np.array_equal(batch.y1[i], alone.y1[solo])


@pytest.mark.parametrize("method", ["distance", "accel"])
def test_subnormal_pairs_take_the_least_length_exponent(method):
    # a record whose largest squared distance is below 2^-1000, where 4^-e
    # would pass the largest float, is fitted with e = -500: it ends without
    # a numpy warning, and the other records of its stack are bit-identical
    meas = stack(records(3))
    pairs, accels = meas.pairs.copy(), meas.accels.copy()
    pairs[1], accels[1] = np.ldexp(pairs[1], -1060), np.ldexp(accels[1], -530)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = BATCH[method](MeasurementSet(meas.timestamps, pairs, accels))
    assert [str(w.message) for w in caught] == []
    assert batch.errors[1] is None
    assert all(np.isfinite(getattr(batch, name)[1]).all() for name in ("y0", "y1", "y2"))
    want = BATCH[method](meas)
    for i in (0, 2):
        assert_same_estimate(batch.estimate(i), want.estimate(i))
