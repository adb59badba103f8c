"""Trajectory evaluation, coefficient centering and the noise simulator."""

from math import factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relkin import (
    ConfigError,
    InvalidDimensionError,
    MeasurementSet,
    PolynomialTrajectory,
    SimConfig,
    UnsupportedOrderError,
    benchmark_trajectory,
    center_coefficients,
    centering_matrix,
    edm_from_points,
    eval_kinematics,
    gram_from_edm,
    rotation2d,
    simulate_measurements,
)

from relkin.config import load_scenario

from conftest import random_constant_accel_trajectory


def _kinematics_at(traj, t, order):
    """Derivative ``order`` at one time t with Python float powers, ``float(t) ** p``."""
    out = np.zeros((traj.dim, traj.n_nodes))
    for l in range(order, traj.order + 1):
        out += traj.coeffs[l] * (float(t) ** (l - order) / factorial(l - order))
    return out


def _with_cubic_term(rng, traj):
    """``traj`` plus a small t**3 term: numpy's array power and C pow often differ there."""
    return PolynomialTrajectory(traj.coeffs + (0.01 * rng.normal(size=(traj.dim, traj.n_nodes)),))


class TestEvalKinematics:
    def test_position_at_zero_is_first_coefficient(self):
        traj = benchmark_trajectory()
        assert_allclose(eval_kinematics(traj, 0.0, 0), traj.coeffs[0])

    def test_acceleration_at_zero_is_third_coefficient(self):
        traj = benchmark_trajectory()
        assert_allclose(eval_kinematics(traj, 0.0, 2), traj.coeffs[2])

    def test_velocity_derivative_matches_finite_differences(self):
        traj = benchmark_trajectory()
        t, h = 1.7, 1e-6
        fd = (eval_kinematics(traj, t + h, 0) - eval_kinematics(traj, t - h, 0)) / (2 * h)
        assert_allclose(eval_kinematics(traj, t, 1), fd, rtol=1e-7, atol=1e-6)

    def test_constant_acceleration_is_time_independent(self):
        traj = benchmark_trajectory()
        assert_allclose(eval_kinematics(traj, 1.0, 2), eval_kinematics(traj, -3.0, 2))

    def test_order_above_two_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            eval_kinematics(benchmark_trajectory(), 0.0, 3)

    def test_order_beyond_trajectory_is_zero(self):
        static = PolynomialTrajectory((np.ones((2, 4)),))
        assert_allclose(eval_kinematics(static, 2.0, 2), np.zeros((2, 4)))

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_time_vector_equals_stacked_scalar_calls(self, rng, order):
        traj = _with_cubic_term(rng, random_constant_accel_trajectory(rng, n=7))
        ts = np.concatenate([np.linspace(-5.0, 5.0, 501), rng.normal(size=200) * 30.0])
        stacked = np.stack([eval_kinematics(traj, t, order) for t in ts])
        assert np.array_equal(eval_kinematics(traj, ts, order), stacked)
        assert np.array_equal(stacked, np.stack([_kinematics_at(traj, t, order) for t in ts]))

    def test_polynomial_combination(self, rng):
        traj = random_constant_accel_trajectory(rng, n=5)
        t = 2.5
        expected = traj.coeffs[0] + traj.coeffs[1] * t + 0.5 * traj.coeffs[2] * t**2
        assert_allclose(eval_kinematics(traj, t, 0), expected)


class TestCenterCoefficients:
    def test_column_sums_vanish(self):
        centered = center_coefficients(benchmark_trajectory())
        for y in centered.coeffs:
            assert_allclose(y @ np.ones(10), np.zeros(2), atol=1e-9)

    def test_already_centered_unchanged(self, rng):
        traj = random_constant_accel_trajectory(rng, n=6)
        once = center_coefficients(traj)
        twice = center_coefficients(once)
        for a, b in zip(once.coeffs, twice.coeffs):
            assert_allclose(a, b, atol=1e-12 * max(1.0, np.abs(a).max()))

    def test_common_translation_removed(self):
        y0 = np.tile(np.array([[3.0], [-4.0]]), (1, 7))
        traj = PolynomialTrajectory((y0,))
        assert_allclose(center_coefficients(traj).coeffs[0], np.zeros((2, 7)), atol=1e-12)


class TestTrajectoryEquality:
    def test_equal_values_compare_equal(self):
        a, b = benchmark_trajectory(), benchmark_trajectory()
        assert a == b and not a != b
        assert PolynomialTrajectory(tuple(c.copy() for c in a.coeffs)) == a

    def test_a_changed_value_order_or_shape_differs(self):
        a = benchmark_trajectory()
        changed = benchmark_trajectory()
        changed.coeffs[2][0, 0] += 1e-12
        assert a != changed
        assert a != PolynomialTrajectory(a.coeffs[:2])
        assert a != PolynomialTrajectory(a.coeffs + (np.zeros((2, 10)),))
        assert a != PolynomialTrajectory(tuple(c[:, :9] for c in a.coeffs))
        assert a != PolynomialTrajectory(tuple(c.reshape(4, 5) for c in a.coeffs))
        assert a != a.coeffs and a != 1.0

    def test_hash_raises_since_the_arrays_are_mutable(self):
        with pytest.raises(TypeError):
            hash(benchmark_trajectory())

    def test_scenario_settings_compare_by_value(self):
        fresh = load_scenario(None)
        assert fresh == load_scenario(None)
        assert fresh != load_scenario(None, {"Y0.0.0": "1.5"})
        assert fresh != load_scenario(None, {"seed": "9"})


class TestSimConfig:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(sigma_d=-0.01)
        with pytest.raises(ConfigError):
            SimConfig(sigma_a=-1.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(t_start=5.0, t_end=-5.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(k_samples=3)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_a_trajectory_that_is_not_planar_is_rejected(self, rows):
        coeffs = tuple(np.resize(c, (rows, 10)) for c in benchmark_trajectory().coeffs)
        with pytest.raises(ConfigError, match=r"does not match the configured planar \(2, 10\)"):
            simulate_measurements(SimConfig(), PolynomialTrajectory(coeffs))

    @pytest.mark.parametrize(
        "field", ["t_start", "t_end", "sigma_d", "sigma_a", "accel_rotation_angle"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SimConfig(**{field: bad})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            SimConfig(seed=-1)

    @pytest.mark.parametrize("field", ["n_nodes", "k_samples", "n_trials", "seed"])
    @pytest.mark.parametrize("bad", [10.5, 10.0, True, "10"])
    def test_non_integral_count_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SimConfig(**{field: bad})

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(k_samples=np.int32(6), n_trials=np.int64(2), seed=np.uint32(3))
        meas = simulate_measurements(cfg, benchmark_trajectory())
        assert meas.pairs.shape == (7, 45)


def _per_instant_simulation(config, traj):
    """The simulator one instant at a time: K+1 sequential draws per stream."""
    n, d = config.n_nodes, 2
    ts = np.linspace(config.t_start, config.t_end, config.k_samples + 1)
    rng_dist, rng_accel = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    q, c = rotation2d(config.accel_rotation_angle), centering_matrix(n)
    iu, ju = np.triu_indices(n, k=1)
    pairs, accels = np.zeros((ts.size, iu.size)), np.zeros((ts.size, d, n))
    for k, t in enumerate(ts):
        x = _kinematics_at(traj, t, 0)
        diff = x[:, :, None] - x[:, None, :]
        sq = np.einsum("dij,dij->ij", diff, diff)
        noisy = np.sqrt(sq[iu, ju]) + rng_dist.normal(0.0, config.sigma_d, iu.size)
        pairs[k] = noisy**2
        acc = _kinematics_at(traj, t, 2) @ c
        accels[k] = q @ acc + rng_accel.normal(0.0, config.sigma_a, (d, n))
    return ts, pairs, accels


class TestSimulateMeasurements:
    @pytest.mark.parametrize("n, k_samples", [(10, 40), (10, 500), (100, 10)])
    def test_noisy_record_matches_per_instant_reference(self, rng, n, k_samples):
        traj = benchmark_trajectory() if n == 10 else random_constant_accel_trajectory(rng, n=n)
        traj = _with_cubic_term(rng, traj)
        cfg = SimConfig(n_nodes=n, k_samples=k_samples, sigma_d=0.01, sigma_a=0.001, seed=77,
                        accel_rotation_angle=0.4, t_start=-3.3, t_end=6.1)
        meas = simulate_measurements(cfg, traj)
        ts, pairs, accels = _per_instant_simulation(cfg, traj)
        assert np.array_equal(meas.timestamps, ts)
        assert np.array_equal(meas.pairs, pairs)
        assert np.array_equal(meas.accels, accels)


    def test_timestamps_inclusive_uniform(self):
        cfg = SimConfig(k_samples=20, t_start=-5.0, t_end=5.0, seed=0)
        meas = simulate_measurements(cfg, benchmark_trajectory())
        assert meas.timestamps.size == 21
        assert meas.timestamps[0] == -5.0 and meas.timestamps[-1] == 5.0
        assert_allclose(np.diff(meas.timestamps), 0.5)

    def test_zero_noise_is_exact(self):
        traj = benchmark_trajectory()
        cfg = SimConfig(k_samples=10, sigma_d=0.0, sigma_a=0.0, seed=3,
                        accel_rotation_angle=0.7)
        meas = simulate_measurements(cfg, traj)
        c = centering_matrix(10)
        q = rotation2d(0.7)
        for k, t in enumerate(meas.timestamps):
            x = eval_kinematics(traj, t, 0)
            assert np.array_equal(meas.pairs[k], edm_from_points(x)[np.triu_indices(10, 1)])
            assert np.array_equal(meas.accels[k], q @ (eval_kinematics(traj, t, 2) @ c))

    def test_same_seed_bit_identical(self):
        cfg = SimConfig(k_samples=12, seed=42)
        traj = benchmark_trajectory()
        a = simulate_measurements(cfg, traj)
        b = simulate_measurements(cfg, traj)
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.accels, b.accels)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_different_seed_differs(self):
        cfg_a = SimConfig(k_samples=12, seed=1)
        cfg_b = SimConfig(k_samples=12, seed=2)
        traj = benchmark_trajectory()
        assert not np.array_equal(
            simulate_measurements(cfg_a, traj).pairs, simulate_measurements(cfg_b, traj).pairs
        )

    def test_edms_symmetric_zero_diagonal(self):
        cfg = SimConfig(k_samples=8, seed=5)
        meas = simulate_measurements(cfg, benchmark_trajectory())
        assert np.array_equal(meas.edms, meas.edms.transpose(0, 2, 1))
        for k in range(meas.timestamps.size):
            assert np.array_equal(np.diag(meas.edms[k]), np.zeros(10))

    def test_distance_noise_propagation(self):
        # first-order propagation oracle: std of the squared-distance entry
        # is about 2 * d_ij * sigma_d; checked on 1000 seeds at one entry
        traj = benchmark_trajectory()
        x = eval_kinematics(traj, -5.0, 0)
        d01 = np.linalg.norm(x[:, 0] - x[:, 1])
        samples = np.empty(1000)
        for s in range(1000):
            cfg = SimConfig(k_samples=4, sigma_d=0.01, sigma_a=0.0, seed=s)
            samples[s] = simulate_measurements(cfg, traj).pairs[0, 0]
        measured = samples.std(ddof=1)
        assert abs(measured - 2 * d01 * 0.01) <= 0.1 * (2 * d01 * 0.01)

    def test_accel_noise_independent_of_distance_noise(self):
        # distance draws must not shift when sigma_a changes (independent streams)
        traj = benchmark_trajectory()
        a = simulate_measurements(SimConfig(k_samples=6, seed=9, sigma_a=0.0), traj)
        b = simulate_measurements(SimConfig(k_samples=6, seed=9, sigma_a=0.5), traj)
        assert np.array_equal(a.pairs, b.pairs)

    def test_translation_invariance_of_edms(self, rng):
        traj = random_constant_accel_trajectory(rng, n=7)
        shifted = PolynomialTrajectory(
            (traj.coeffs[0] + np.array([[17.0], [-6.0]]), traj.coeffs[1], traj.coeffs[2])
        )
        cfg = SimConfig(n_nodes=7, k_samples=6, seed=11)
        a = simulate_measurements(cfg, traj)
        b = simulate_measurements(cfg, shifted)
        assert_allclose(a.pairs, b.pairs, atol=1e-9 * np.abs(a.pairs).max())

    def test_zero_noise_grams_have_rank_dim(self):
        cfg = SimConfig(k_samples=6, sigma_d=0.0, sigma_a=0.0, seed=0)
        meas = simulate_measurements(cfg, benchmark_trajectory())
        for k in range(meas.timestamps.size):
            evals = np.linalg.eigvalsh(gram_from_edm(meas.edms[k]))
            assert np.abs(evals[:-2]).max() <= 1e-6 * evals[-1]

    def test_shape_mismatch_rejected(self, rng):
        cfg = SimConfig(n_nodes=5, k_samples=6)
        with pytest.raises(ConfigError):
            simulate_measurements(cfg, random_constant_accel_trajectory(rng, n=6))

    def test_overflowing_distance_noise_is_rejected_without_a_numpy_warning(self):
        from relkin import InvalidDimensionError

        # a finite sigma_d whose noisy distances square past the largest float
        with pytest.raises(InvalidDimensionError, match="squared distances must be finite"):
            simulate_measurements(SimConfig(k_samples=10, sigma_d=1e300), benchmark_trajectory())


class TestMeasurementSetInvariants:
    def test_non_increasing_timestamps_rejected(self):
        from relkin import InvalidDimensionError, MeasurementSet

        with pytest.raises(InvalidDimensionError):
            MeasurementSet(timestamps=[0.0, 0.0], pairs=np.zeros((2, 3)))

    def test_asymmetric_edm_rejected(self):
        from relkin import InvalidDimensionError, MeasurementSet

        edms = np.zeros((1, 3, 3))
        edms[0, 0, 1] = 1.0
        with pytest.raises(InvalidDimensionError, match="symmetric"):
            MeasurementSet.from_edms(timestamps=[0.0], edms=edms)

    def test_nonzero_diagonal_rejected(self):
        from relkin import InvalidDimensionError, MeasurementSet

        edms = np.zeros((1, 3, 3))
        edms[0, 1, 1] = 5.0
        with pytest.raises(InvalidDimensionError, match="zero diagonal"):
            MeasurementSet.from_edms(timestamps=[0.0], edms=edms)

    def test_accel_node_count_must_match_edms(self):
        from relkin import InvalidDimensionError, MeasurementSet

        with pytest.raises(InvalidDimensionError, match="matching the EDMs"):
            MeasurementSet(timestamps=[0.0, 1.0], pairs=np.zeros((2, 6)),
                           accels=np.zeros((2, 2, 5)))

    @pytest.mark.parametrize("field", ["timestamps", "edms", "accels"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, field, bad):
        from relkin import InvalidDimensionError, MeasurementSet, RelkinError

        meas = simulate_measurements(SimConfig(k_samples=6), benchmark_trajectory())
        arrays = {"timestamps": meas.timestamps, "pairs": meas.pairs, "accels": meas.accels}
        arrays = {k: v.copy() for k, v in arrays.items()}
        target = arrays["pairs" if field == "edms" else field]
        target.flat[target.size - 1] = bad
        with pytest.raises(InvalidDimensionError, match="finite") as info:
            MeasurementSet(**arrays)
        assert isinstance(info.value, RelkinError)

    @pytest.mark.parametrize(
        "timestamps,pairs",
        [
            (np.arange(3.0), np.zeros((0, 3, 6))),
            (np.zeros(0), np.zeros((0, 6))),
            (np.arange(3.0), np.zeros((3, 0))),
        ],
        ids=["no-records", "no-samples", "no-nodes"],
    )
    def test_empty_set_rejected(self, timestamps, pairs):
        from relkin import InvalidDimensionError, MeasurementSet

        with pytest.raises(InvalidDimensionError, match="needs records, samples and nodes"):
            MeasurementSet(timestamps=timestamps, pairs=pairs)



@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: PolynomialTrajectory(()), InvalidDimensionError, "at least one coefficient"),
        (lambda: PolynomialTrajectory((np.zeros(4),)), InvalidDimensionError,
         r"must be \(dim, n_nodes\) matrices"),
        (lambda: PolynomialTrajectory((np.zeros((2, 4)), np.zeros((2, 5)))),
         InvalidDimensionError, "share one shape"),
        (lambda: PolynomialTrajectory((np.full((2, 4), np.nan),)), InvalidDimensionError,
         "coefficients must be finite"),
        (lambda: SimConfig(n_nodes=0), ConfigError, "n_nodes must be positive"),
        (lambda: SimConfig(n_trials=0), ConfigError, "n_trials must be positive"),
        (lambda: MeasurementSet([0.0, 1.0], np.zeros(6)), InvalidDimensionError,
         r"pairs must be \(K\+1, m\)"),
        (lambda: MeasurementSet.from_edms([0.0, 1.0], np.zeros((2, 4, 3))),
         InvalidDimensionError, r"edms must be \(K\+1, n, n\)"),
    ],
    ids=["no-coefficients", "vector-coefficient", "mixed-shapes", "nan-coefficient",
         "no-nodes", "no-trials", "pairs-shape", "edms-shape"],
)
def test_each_input_guard_names_its_rule(build, error, message):
    with pytest.raises(error, match=message):
        build()
