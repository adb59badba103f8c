"""Trajectory evaluation, coefficient centering and the noise simulator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relkin import (
    ConfigError,
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

from conftest import random_constant_accel_trajectory


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

    def test_rotation_angle_needs_planar(self):
        with pytest.raises(ConfigError):
            SimConfig(dim=3, accel_rotation_angle=0.3)


class TestSimulateMeasurements:
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
            assert np.array_equal(meas.edms[k], edm_from_points(x))
            assert np.array_equal(meas.accels[k], q @ (eval_kinematics(traj, t, 2) @ c))

    def test_same_seed_bit_identical(self):
        cfg = SimConfig(k_samples=12, seed=42)
        traj = benchmark_trajectory()
        a = simulate_measurements(cfg, traj)
        b = simulate_measurements(cfg, traj)
        assert np.array_equal(a.edms, b.edms)
        assert np.array_equal(a.accels, b.accels)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_different_seed_differs(self):
        cfg_a = SimConfig(k_samples=12, seed=1)
        cfg_b = SimConfig(k_samples=12, seed=2)
        traj = benchmark_trajectory()
        assert not np.array_equal(
            simulate_measurements(cfg_a, traj).edms, simulate_measurements(cfg_b, traj).edms
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
            samples[s] = simulate_measurements(cfg, traj).edms[0, 0, 1]
        measured = samples.std(ddof=1)
        assert abs(measured - 2 * d01 * 0.01) <= 0.1 * (2 * d01 * 0.01)

    def test_accel_noise_independent_of_distance_noise(self):
        # distance draws must not shift when sigma_a changes (independent streams)
        traj = benchmark_trajectory()
        a = simulate_measurements(SimConfig(k_samples=6, seed=9, sigma_a=0.0), traj)
        b = simulate_measurements(SimConfig(k_samples=6, seed=9, sigma_a=0.5), traj)
        assert np.array_equal(a.edms, b.edms)

    def test_translation_invariance_of_edms(self, rng):
        traj = random_constant_accel_trajectory(rng, n=7)
        shifted = PolynomialTrajectory(
            (traj.coeffs[0] + np.array([[17.0], [-6.0]]), traj.coeffs[1], traj.coeffs[2])
        )
        cfg = SimConfig(n_nodes=7, k_samples=6, seed=11)
        a = simulate_measurements(cfg, traj)
        b = simulate_measurements(cfg, shifted)
        assert_allclose(a.edms, b.edms, atol=1e-9 * np.abs(a.edms).max())

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


class TestMeasurementSetInvariants:
    def test_non_increasing_timestamps_rejected(self):
        from relkin import InvalidDimensionError, MeasurementSet

        with pytest.raises(InvalidDimensionError):
            MeasurementSet(timestamps=[0.0, 0.0], edms=np.zeros((2, 3, 3)))

    def test_asymmetric_edm_rejected(self):
        from relkin import InvalidDimensionError, MeasurementSet

        edms = np.zeros((1, 3, 3))
        edms[0, 0, 1] = 1.0
        with pytest.raises(InvalidDimensionError):
            MeasurementSet(timestamps=[0.0], edms=edms)

    def test_nonzero_diagonal_rejected(self):
        from relkin import InvalidDimensionError, MeasurementSet

        edms = np.zeros((1, 3, 3))
        edms[0, 1, 1] = 5.0
        with pytest.raises(InvalidDimensionError):
            MeasurementSet(timestamps=[0.0], edms=edms)

    @pytest.mark.parametrize("field", ["timestamps", "edms", "accels"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, field, bad):
        from relkin import InvalidDimensionError, MeasurementSet, RelkinError

        meas = simulate_measurements(SimConfig(k_samples=6), benchmark_trajectory())
        arrays = {"timestamps": meas.timestamps, "edms": meas.edms, "accels": meas.accels}
        arrays = {k: v.copy() for k, v in arrays.items()}
        target = arrays[field]
        if field == "edms":
            target[3, 0, 2] = target[3, 2, 0] = bad
        else:
            target.flat[target.size - 1] = bad
        with pytest.raises(InvalidDimensionError, match="finite") as info:
            MeasurementSet(**arrays)
        assert isinstance(info.value, RelkinError)
