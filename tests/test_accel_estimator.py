"""Accelerometer fusion: coefficient fit, Grammian deflation, joint solve."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relkin import (
    AccelCoefficients,
    ConfigError,
    InvalidDimensionError,
    PolynomialTrajectory,
    SimConfig,
    align_to_truth,
    benchmark_trajectory,
    center_coefficients,
    centering_matrix,
    classical_mds,
    deflate_grams,
    estimate_from_distances,
    estimate_with_accel,
    fit_accel_coeffs,
    fit_deflated_coeffs,
    fit_gram_coeffs,
    gram_from_edm,
    rotation2d,
    simulate_measurements,
    vech,
)

from conftest import gram_poly_blocks, rel_err


def noiseless_measurements(traj, k_samples=20, angle=0.0):
    cfg = SimConfig(
        n_nodes=traj.n_nodes,
        k_samples=k_samples,
        sigma_d=0.0,
        sigma_a=0.0,
        accel_rotation_angle=angle,
    )
    return simulate_measurements(cfg, traj)


def gram_vecs_of(meas):
    return np.stack([vech(gram_from_edm(e)) for e in meas.edms])


class TestFitAccelCoeffs:
    def test_constant_acceleration_exact(self):
        traj = benchmark_trajectory()
        meas = noiseless_measurements(traj, angle=np.pi / 6)
        acc = fit_accel_coeffs(meas.accels, meas.timestamps)
        q = rotation2d(np.pi / 6)
        expected = q @ center_coefficients(traj).coeffs[2]
        assert rel_err(acc.block, expected) <= 1e-12

    def test_zero_accelerations(self):
        acc = fit_accel_coeffs(np.zeros((9, 2, 5)), np.linspace(-5, 5, 9))
        assert_allclose(acc.block, np.zeros((2, 5)), atol=1e-15)

    def test_sample_mean_variance(self):
        # for constant acceleration the fit is the per-entry time average,
        # so each entry's variance is sigma_a^2 / (K+1)
        traj = benchmark_trajectory()
        trials = 400
        entries = np.empty((trials, 2, 10))
        for s in range(trials):
            cfg = SimConfig(k_samples=40, sigma_d=0.0, sigma_a=0.001, seed=s)
            meas = simulate_measurements(cfg, traj)
            entries[s] = fit_accel_coeffs(meas.accels, meas.timestamps).block
        var = entries.var(axis=0, ddof=1)
        expected = 0.001**2 / 41
        assert np.all(np.abs(var - expected) <= 0.35 * expected)


class TestDeflateGrams:
    def test_noiseless_degree_drop(self):
        # after deflation the series is exactly cubic: a quartic fit finds
        # a vanishing quartic block
        traj = benchmark_trajectory()
        meas = noiseless_measurements(traj, angle=0.4)
        acc = fit_accel_coeffs(meas.accels, meas.timestamps)
        deflated = deflate_grams(gram_vecs_of(meas), meas.timestamps, acc)
        check = fit_gram_coeffs(deflated, meas.timestamps, degree=4)
        assert np.linalg.norm(check.blocks[4]) <= 1e-8 * np.linalg.norm(check.blocks[0])

    def test_zero_acceleration_is_identity(self):
        vecs = np.arange(30.0).reshape(5, 6)
        ts = np.linspace(-2, 2, 5)
        acc = AccelCoefficients(block=np.zeros((2, 3)))
        assert_allclose(deflate_grams(vecs, ts, acc), vecs)

    def test_time_zero_sample_unchanged(self, rng):
        vecs = rng.standard_normal((5, 10))
        ts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        acc = AccelCoefficients(block=rng.standard_normal((2, 4)))
        deflated = deflate_grams(vecs, ts, acc)
        assert_allclose(deflated[2], vecs[2])
        assert not np.allclose(deflated[0], vecs[0])

    def test_rotation_invariance(self, rng):
        # the deflation term only sees Y^T Y, so any fixed sensor rotation
        # gives the same deflated series
        vecs = rng.standard_normal((7, 15))
        ts = np.linspace(-5, 5, 7)
        block = rng.standard_normal((2, 5))
        plain = deflate_grams(vecs, ts, AccelCoefficients(block=block))
        rotated = deflate_grams(vecs, ts, AccelCoefficients(block=rotation2d(1.1) @ block))
        assert np.abs(plain - rotated).max() <= 1e-10 * max(1.0, np.abs(plain).max())


class TestFitDeflatedCoeffs:
    def test_low_order_blocks_match_brute_force(self):
        traj = benchmark_trajectory()
        meas = noiseless_measurements(traj, angle=0.3)
        acc = fit_accel_coeffs(meas.accels, meas.timestamps)
        deflated = deflate_grams(gram_vecs_of(meas), meas.timestamps, acc)
        coeffs = fit_deflated_coeffs(deflated, meas.timestamps)
        assert coeffs.degree == 3
        expected = gram_poly_blocks(traj, 3)
        for got, want in zip(coeffs.blocks, expected):
            assert rel_err(got, want) <= 1e-8

    def test_static_network(self):
        y0 = np.array([[0.0, 5.0, -1.0, 3.0, -6.0], [2.0, -4.0, 1.0, -2.0, 6.0]])
        traj = PolynomialTrajectory((y0,))
        meas = noiseless_measurements(traj, k_samples=10)
        acc = fit_accel_coeffs(meas.accels, meas.timestamps)
        deflated = deflate_grams(gram_vecs_of(meas), meas.timestamps, acc)
        coeffs = fit_deflated_coeffs(deflated, meas.timestamps)
        cy0 = center_coefficients(traj).coeffs[0]
        assert rel_err(coeffs.blocks[0], cy0.T @ cy0) <= 1e-10
        for block in coeffs.blocks[1:]:
            assert np.linalg.norm(block) <= 1e-9 * np.linalg.norm(coeffs.blocks[0])

    def test_paired_variance_not_worse_than_full_fit(self):
        # on the symmetric grid the odd-power coefficients coincide between
        # the two fits, so the deflated block-1 variance can only tie; the
        # even blocks strictly improve
        traj = benchmark_trajectory()
        trials = 200
        b1_full, b1_defl, b0_full, b0_defl = [], [], [], []
        for s in range(trials):
            cfg = SimConfig(k_samples=20, sigma_d=0.01, sigma_a=0.001, seed=s)
            meas = simulate_measurements(cfg, traj)
            vecs = gram_vecs_of(meas)
            full = fit_gram_coeffs(vecs, meas.timestamps, degree=4)
            acc = fit_accel_coeffs(meas.accels, meas.timestamps)
            acc = AccelCoefficients(block=acc.block @ centering_matrix(10))
            defl = fit_deflated_coeffs(
                deflate_grams(vecs, meas.timestamps, acc), meas.timestamps
            )
            b1_full.append(vech(full.blocks[1]))
            b1_defl.append(vech(defl.blocks[1]))
            b0_full.append(vech(full.blocks[0]))
            b0_defl.append(vech(defl.blocks[0]))
        var = lambda rows: np.var(np.stack(rows), axis=0, ddof=1)
        assert np.all(var(b1_defl) <= var(b1_full) * (1.0 + 1e-9))
        assert var(b0_defl).mean() < var(b0_full).mean()


class TestEstimateWithAccel:
    def test_noiseless_matches_truth(self):
        traj = benchmark_trajectory()
        meas = noiseless_measurements(traj, angle=np.pi / 6)
        aligned = align_to_truth(estimate_with_accel(meas), traj)
        centered = center_coefficients(traj)
        for attr, want in zip(("y0", "y1", "y2"), centered.coeffs):
            assert rel_err(getattr(aligned, attr), want) <= 1e-6

    def test_frame_composition_reproduces_sensor_rotation(self):
        # after alignment the rotation field must map the sensor frame
        # into the truth frame, i.e. equal the inverse of the simulated one
        traj = benchmark_trajectory()
        meas = noiseless_measurements(traj, angle=np.pi / 6)
        aligned = align_to_truth(estimate_with_accel(meas), traj)
        composed = aligned.rotation @ meas.q_true
        assert np.linalg.det(composed) > 0
        angle = np.arctan2(composed[1, 0], composed[0, 0])
        assert abs(angle) <= 1e-6

    def test_identity_sensor_rotation_recovered(self, rng):
        # truth built in the estimator's canonical orientation so that no
        # frame offset hides the sensor rotation; with q_true = I the
        # recovered frame map must be the identity
        raw = rng.standard_normal((2, 10)) * 300.0
        c = centering_matrix(10)
        canonical_y0 = classical_mds((raw @ c).T @ (raw @ c), 2).points
        traj = PolynomialTrajectory(
            (
                canonical_y0,
                rng.uniform(-10, 10, (2, 10)),
                rng.uniform(-1, 1, (2, 10)),
            )
        )
        meas = noiseless_measurements(traj, angle=0.0)
        est = estimate_with_accel(meas)
        assert np.linalg.norm(est.rotation - np.eye(2)) <= 1e-8

    def test_closed_loop_convention(self):
        # re-simulating accelerometer readings from the aligned estimate
        # must reproduce the zero-noise measurements
        traj = benchmark_trajectory()
        meas = noiseless_measurements(traj, angle=0.9)
        aligned = align_to_truth(estimate_with_accel(meas), traj)
        c = centering_matrix(10)
        q_resim = np.linalg.inv(aligned.rotation)
        for k in range(meas.timestamps.size):
            resim = q_resim @ (aligned.y2 @ c)
            assert np.linalg.norm(resim - meas.accels[k]) <= 1e-6

    def test_missing_accels_rejected(self):
        traj = benchmark_trajectory()
        meas = noiseless_measurements(traj)
        meas.accels = None
        with pytest.raises(ConfigError):
            estimate_with_accel(meas)

    def test_sensor_axis_count_must_match_dim(self):
        meas = noiseless_measurements(benchmark_trajectory())
        meas.accels = np.concatenate([meas.accels, meas.accels[:, :1]], axis=1)
        with pytest.raises(InvalidDimensionError, match="3 axes"):
            estimate_with_accel(meas)

    def test_outputs_centered_even_with_noise(self):
        traj = benchmark_trajectory()
        cfg = SimConfig(k_samples=40, sigma_d=0.01, sigma_a=0.001, seed=12,
                        accel_rotation_angle=0.5)
        est = estimate_with_accel(simulate_measurements(cfg, traj))
        for block in (est.y0, est.y1, est.y2):
            row_sums = block @ np.ones(10)
            assert np.abs(row_sums).max() <= 1e-6 * max(1.0, np.abs(block).max())

    def test_paired_improvement_over_distance_only(self):
        # same measurement realizations, both estimators: fusing the
        # accelerometer must not hurt velocity or acceleration accuracy
        traj = benchmark_trajectory()
        centered = center_coefficients(traj)
        sq = {("dist", "y1"): [], ("dist", "y2"): [], ("acc", "y1"): [], ("acc", "y2"): []}
        for seed in range(40):
            cfg = SimConfig(k_samples=40, sigma_d=0.01, sigma_a=0.001, seed=seed,
                            accel_rotation_angle=np.pi / 6)
            meas = simulate_measurements(cfg, traj)
            a_dist = align_to_truth(estimate_from_distances(meas), traj)
            a_acc = align_to_truth(estimate_with_accel(meas), traj)
            for name, est in (("dist", a_dist), ("acc", a_acc)):
                sq[(name, "y1")].append(np.linalg.norm(est.y1 - centered.coeffs[1]) ** 2)
                sq[(name, "y2")].append(np.linalg.norm(est.y2 - centered.coeffs[2]) ** 2)
        for block in ("y1", "y2"):
            assert np.mean(sq[("acc", block)]) < np.mean(sq[("dist", block)])

    def test_coefficient_equations_hold_noiseless(self):
        # the returned velocity and frame map must satisfy both coupled
        # coefficient equations of the deflated fit
        traj = benchmark_trajectory()
        meas = noiseless_measurements(traj, angle=0.8)
        est = estimate_with_accel(meas)
        b1, b3 = est.coeffs.blocks[1], est.coeffs.blocks[3]
        res1 = np.linalg.norm(est.y0.T @ est.y1 + est.y1.T @ est.y0 - b1)
        res3 = np.linalg.norm(est.y2.T @ est.y1 + est.y1.T @ est.y2 - 2.0 * b3)
        assert res1 <= 1e-6 * np.linalg.norm(b1)
        assert res3 <= 1e-6 * max(np.linalg.norm(2.0 * b3), 1.0)

    def test_zero_acceleration_degenerates_gracefully(self):
        y0 = np.array([[0.0, 9.0, -4.0, 6.0, -7.0, 1.0], [2.0, -3.0, 8.0, -6.0, 5.0, -4.0]])
        y1 = np.array([[1.0, -1.0, 0.5, -0.5, 0.25, -0.25], [0.0, 1.0, -1.0, 0.5, -0.5, 0.0]])
        traj = PolynomialTrajectory((y0, y1))
        meas = noiseless_measurements(traj, k_samples=10)
        est = estimate_with_accel(meas)
        assert est.warnings
        assert np.linalg.norm(est.y2) <= 1e-9


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: fit_accel_coeffs(np.zeros((5, 4)), np.arange(5.0)),
         r"accels must be \(K\+1, dim, n\)"),
        (lambda: deflate_grams(np.zeros((5, 3)), np.arange(4.0), AccelCoefficients(np.eye(2))),
         r"gram_vecs must be \(K\+1, m\) matching timestamps"),
    ],
    ids=["accels-shape", "gram-vecs-shape"],
)
def test_each_shape_guard_names_its_rule(call, message):
    with pytest.raises(InvalidDimensionError, match=message):
        call()
