"""Distance-only estimation: coefficient fit, factor recovery, coupled solve."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relkin import (
    DegenerateGeometryError,
    MeasurementSet,
    PolynomialTrajectory,
    SimConfig,
    SingularDesignError,
    benchmark_trajectory,
    build_and_solve_basis,
    center_coefficients,
    chu_decompose,
    classical_mds,
    estimate_from_distances,
    fit_gram_coeffs,
    gram_from_edm,
    orthogonal_procrustes,
    recover_position_acceleration,
    recover_velocity,
    simulate_measurements,
    vech,
)

from conftest import (
    gram_poly_blocks,
    random_constant_accel_trajectory,
    rel_err,
    rotation_angle,
)


def noiseless_gram_vecs(traj, timestamps):
    meas = simulate_measurements(
        SimConfig(
            n_nodes=traj.n_nodes,
            dim=traj.dim,
            k_samples=len(timestamps) - 1,
            t_start=timestamps[0],
            t_end=timestamps[-1],
            sigma_d=0.0,
            sigma_a=0.0,
        ),
        traj,
    )
    return np.stack([vech(gram_from_edm(e)) for e in meas.edms])


class TestFitGramCoeffs:
    def test_reproduces_brute_force_blocks(self):
        traj = benchmark_trajectory()
        ts = np.linspace(-5, 5, 21)
        fitted = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        expected = gram_poly_blocks(traj, 4)
        for got, want in zip(fitted.blocks, expected):
            assert rel_err(got, want) <= 1e-8

    def test_quartic_block_is_quarter_accel_gram(self):
        traj = benchmark_trajectory()
        ts = np.linspace(-5, 5, 21)
        fitted = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        y2 = center_coefficients(traj).coeffs[2]
        assert rel_err(fitted.blocks[4], 0.25 * y2.T @ y2) <= 1e-8

    def test_static_network(self):
        y0 = np.array([[0.0, 4.0, 1.0, -2.0, 3.0], [1.0, -1.0, 5.0, 2.0, -3.0]])
        traj = PolynomialTrajectory((y0,))
        ts = np.linspace(-5, 5, 11)
        fitted = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        cy0 = center_coefficients(traj).coeffs[0]
        assert rel_err(fitted.blocks[0], cy0.T @ cy0) <= 1e-10
        scale = np.linalg.norm(fitted.blocks[0])
        for block in fitted.blocks[1:]:
            assert np.linalg.norm(block) <= 1e-9 * scale

    def test_minimal_sample_count_interpolates(self):
        traj = benchmark_trajectory()
        ts = np.linspace(-5, 5, 5)
        fitted = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        assert fitted.residual <= 1e-6
        for got, want in zip(fitted.blocks, gram_poly_blocks(traj, 4)):
            assert rel_err(got, want) <= 1e-7

    def test_repeated_timestamps_rejected(self, rng):
        vecs = rng.standard_normal((6, 10))
        ts = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0])  # 4 distinct < degree+1
        with pytest.raises(SingularDesignError):
            fit_gram_coeffs(vecs, ts, degree=4)

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(SingularDesignError):
            fit_gram_coeffs(rng.standard_normal((4, 6)), np.arange(4.0), degree=4)

    def test_blocks_symmetric(self, rng):
        traj = random_constant_accel_trajectory(rng)
        ts = np.linspace(-5, 5, 15)
        fitted = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        for block in fitted.blocks:
            assert np.array_equal(block, block.T)


class TestRecoverPositionAcceleration:
    @pytest.fixture
    def fitted(self):
        traj = benchmark_trajectory()
        ts = np.linspace(-5, 5, 21)
        return traj, fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)

    def test_position_factor_grammian_and_frame(self, fitted):
        traj, coeffs = fitted
        mds0, _ = recover_position_acceleration(coeffs, 2)
        y0 = mds0.points
        assert rel_err(y0.T @ y0, coeffs.blocks[0]) <= 1e-8
        truth = center_coefficients(traj).coeffs[0]
        r = orthogonal_procrustes(y0, truth)
        assert rel_err(r @ y0, truth) <= 1e-6

    def test_acceleration_factor_grammian(self, fitted):
        traj, coeffs = fitted
        _, mds2 = recover_position_acceleration(coeffs, 2)
        y2 = center_coefficients(traj).coeffs[2]
        assert rel_err(mds2.points.T @ mds2.points, y2.T @ y2) <= 1e-6

    def test_zero_quartic_block_degenerates(self, fitted):
        _, coeffs = fitted
        coeffs.blocks[4] = np.zeros_like(coeffs.blocks[4])
        _, mds2 = recover_position_acceleration(coeffs, 2)
        assert_allclose(mds2.points, np.zeros_like(mds2.points))
        assert mds2.warnings


class TestChuDecompose:
    def test_known_split_with_distinct_singular_values(self):
        # factor with orthogonal rows: svd frames are axis aligned, so the
        # determined parts can be read off the transformed matrix directly
        n = 6
        yhat = np.zeros((2, n))
        yhat[0, 0] = 2.0
        yhat[1, 1] = 1.0
        m = np.arange(2 * n, dtype=float).reshape(2, n) + 1.0  # stand-in unknown
        bhat = yhat.T @ m + m.T @ yhat
        f = chu_decompose(bhat, yhat)
        assert_allclose(np.sort(f.lam)[::-1], [2.0, 1.0])
        z_true = f.u.T @ m @ f.v
        assert_allclose(f.z1_diag, np.diag(z_true)[:2], atol=1e-10)
        assert_allclose(f.z2, z_true[:, 2:], atol=1e-10)
        i, j, c = f.offdiag_constraints[0]
        assert_allclose(f.lam[i] * z_true[i, j] + f.lam[j] * z_true[j, i], c, atol=1e-10)
        assert f.residual <= 1e-10

    def test_zero_coefficient_matrix(self):
        yhat = np.array([[3.0, 0.0, 1.0, -1.0], [0.0, 2.0, 1.0, 1.0]])
        f = chu_decompose(np.zeros((4, 4)), yhat)
        assert_allclose(f.z1_diag, np.zeros(2), atol=1e-12)
        assert_allclose(f.z2, np.zeros((2, 2)), atol=1e-12)
        assert f.residual <= 1e-12

    def test_noiseless_pipeline_reconstruction(self):
        # oracle: plug the true velocity into the split and check the
        # two-sided reconstruction of the transformed coefficient matrix
        traj = benchmark_trajectory()
        ts = np.linspace(-5, 5, 21)
        coeffs = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        mds0, _ = recover_position_acceleration(coeffs, 2)
        f = chu_decompose(coeffs.blocks[1], mds0.points)
        centered = center_coefficients(traj)
        r = orthogonal_procrustes(centered.coeffs[0], mds0.points)
        y1_est_frame = r @ centered.coeffs[1]
        z_true = f.u.T @ y1_est_frame @ f.v
        lam_block = np.zeros((f.n_nodes, 2))
        lam_block[:2, :2] = np.diag(f.lam)
        recon = lam_block @ z_true + z_true.T @ lam_block.T
        assert rel_err(recon, f.bbar) <= 1e-7

    def test_rank_deficient_factor_rejected(self):
        yhat = np.zeros((2, 5))
        yhat[0] = np.arange(5.0)
        with pytest.raises(DegenerateGeometryError):
            chu_decompose(np.eye(5), yhat)


class TestBasisSolve:
    def test_identity_rotation_with_known_unknowns(self, rng):
        # passing the true factors of both equations means no frame offset
        # remains, so the basis vector collapses to (1, 0, u1, u2, 0, 0)
        n = 8
        y0 = rng.standard_normal((2, n))
        y1 = rng.standard_normal((2, n))
        y2 = rng.standard_normal((2, n))
        f0 = chu_decompose(y0.T @ y1 + y1.T @ y0, y0)
        f2 = chu_decompose(y2.T @ y1 + y1.T @ y2, y2)
        sol = build_and_solve_basis(f0, f2)
        z_true = f0.u.T @ y1 @ f0.v
        assert_allclose(sol.phi[:2], [1.0, 0.0], atol=1e-9)
        assert_allclose(sol.phi[2:4], [z_true[0, 1], z_true[1, 0]], atol=1e-8)
        assert_allclose(sol.phi[4:], [0.0, 0.0], atol=1e-8)
        assert_allclose(sol.u, [z_true[0, 1], z_true[1, 0]], atol=1e-8)

    def test_equation_count(self, rng):
        # determined entries contribute 2n-2 rows; the two off-diagonal
        # tie-ins add three more (the first-equation tie needs both its
        # h1- and h2-multiplied forms to stay linear in the basis)
        for n in (4, 7, 10):
            y0 = rng.standard_normal((2, n))
            y1 = rng.standard_normal((2, n))
            y2 = rng.standard_normal((2, n))
            f0 = chu_decompose(y0.T @ y1 + y1.T @ y0, y0)
            f2 = chu_decompose(y2.T @ y1 + y1.T @ y2, y2)
            sol = build_and_solve_basis(f0, f2)
            assert sol.w.shape == (2 * n + 1, 6)
            assert sol.rank == 6

    def test_noiseless_rotation_recovery(self):
        traj = benchmark_trajectory()
        ts = np.linspace(-5, 5, 21)
        coeffs = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        mds0, mds2 = recover_position_acceleration(coeffs, 2)
        est = estimate_from_distances(
            simulate_measurements(
                SimConfig(k_samples=20, sigma_d=0.0, sigma_a=0.0), traj
            )
        )
        # oracle: the rotation that actually maps the raw acceleration
        # factor onto the truth expressed in the position factor's frame
        centered = center_coefficients(traj)
        r0 = orthogonal_procrustes(centered.coeffs[0], mds0.points)
        h_true = orthogonal_procrustes(mds2.points, r0 @ centered.coeffs[2])
        rel = est.rotation @ h_true.T
        assert np.linalg.det(rel) > 0
        assert abs(rotation_angle(rel)) <= 1e-6
        assert est.residuals["basis"] <= 1e-8

    def test_random_instances_residual_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            traj = random_constant_accel_trajectory(rng)
            meas = simulate_measurements(
                SimConfig(k_samples=20, sigma_d=0.0, sigma_a=0.0), traj
            )
            est = estimate_from_distances(meas)
            assert est.residuals["basis"] <= 1e-7


class TestRecoverVelocity:
    def test_roundtrip_through_svd_frames(self):
        traj = benchmark_trajectory()
        ts = np.linspace(-5, 5, 21)
        coeffs = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        mds0, _ = recover_position_acceleration(coeffs, 2)
        f0 = chu_decompose(coeffs.blocks[1], mds0.points)
        y1 = np.arange(20.0).reshape(2, 10)
        z = f0.u.T @ y1 @ f0.v
        rebuilt = f0.u @ z @ f0.v.T
        assert rel_err(rebuilt, y1) <= 1e-12
        # assembling from the true Z's parts reproduces the same matrix
        f0.z1_diag = np.diag(z)[:2].copy()
        f0.z2 = z[:, 2:].copy()
        assert rel_err(recover_velocity(f0, [z[0, 1], z[1, 0]]), y1) <= 1e-9

    def test_zero_unknowns_give_known_part_only(self, rng):
        y0 = rng.standard_normal((2, 6))
        f0 = chu_decompose(np.zeros((6, 6)), y0)
        assert_allclose(recover_velocity(f0, [0.0, 0.0]), np.zeros((2, 6)), atol=1e-12)


class TestEstimateFromDistances:
    def test_noiseless_matches_truth_up_to_common_transform(self):
        from relkin import align_to_truth

        traj = benchmark_trajectory()
        meas = simulate_measurements(SimConfig(k_samples=20, sigma_d=0.0, sigma_a=0.0), traj)
        aligned = align_to_truth(estimate_from_distances(meas), traj)
        centered = center_coefficients(traj)
        for attr, want in zip(("y0", "y1", "y2"), centered.coeffs):
            assert rel_err(getattr(aligned, attr), want) <= 1e-6

    def test_outputs_centered(self):
        traj = benchmark_trajectory()
        meas = simulate_measurements(SimConfig(k_samples=40, sigma_d=0.01, seed=2), traj)
        est = estimate_from_distances(meas)
        for block in (est.y0, est.y1, est.y2):
            row_sums = block @ np.ones(block.shape[1])
            assert np.abs(row_sums).max() <= 1e-6 * max(1.0, np.abs(block).max())

    def test_rotation_orthogonal(self):
        traj = benchmark_trajectory()
        meas = simulate_measurements(SimConfig(k_samples=40, sigma_d=0.01, seed=4), traj)
        est = estimate_from_distances(meas)
        assert_allclose(est.rotation.T @ est.rotation, np.eye(2), atol=1e-8)

    def test_static_network_degenerates_gracefully(self):
        y0 = np.array(
            [[0.0, 10.0, -3.0, 7.0, -8.0, 2.0], [1.0, -2.0, 9.0, -7.0, 4.0, -5.0]]
        )
        traj = PolynomialTrajectory((y0,))
        meas = simulate_measurements(
            SimConfig(n_nodes=6, k_samples=10, sigma_d=0.0, sigma_a=0.0), traj
        )
        est = estimate_from_distances(meas)
        mds_ref = classical_mds(gram_poly_blocks(traj, 4)[0], 2).points
        assert rel_err(est.y0, mds_ref) <= 1e-8
        scale = np.linalg.norm(est.y0)
        assert np.linalg.norm(est.y1) <= 1e-6 * scale
        assert np.linalg.norm(est.y2) <= 1e-6 * scale
        assert est.warnings

    @pytest.mark.parametrize("scale,draws", [(1.0, 20), (1000.0, 1)])
    def test_static_network_fallback_is_robust_to_round_off(self, scale, draws):
        # a static network's quartic block is pure round-off: a 1e-15
        # relative perturbation of the EDMs, or a larger scene, must still
        # take the minimum-norm fallback rather than fail the basis solve
        y0 = scale * np.array(
            [[0.0, 10.0, -3.0, 7.0, -8.0, 2.0], [1.0, -2.0, 9.0, -7.0, 4.0, -5.0]]
        )
        traj = PolynomialTrajectory((y0,))
        meas = simulate_measurements(
            SimConfig(n_nodes=6, k_samples=10, sigma_d=0.0, sigma_a=0.0), traj
        )
        mds_ref = classical_mds(gram_poly_blocks(traj, 4)[0], 2).points
        rng = np.random.default_rng(11)
        for draw in range(draws):
            noise = rng.standard_normal(meas.edms.shape) * (1e-15 if draws > 1 else 0.0)
            noise = noise + np.swapaxes(noise, 1, 2)
            perturbed = MeasurementSet(meas.timestamps, meas.edms * (1.0 + noise))
            est = estimate_from_distances(perturbed)
            assert rel_err(est.y0, mds_ref) <= 1e-8
            size = np.linalg.norm(est.y0)
            assert np.linalg.norm(est.y1) <= 1e-6 * size
            assert np.linalg.norm(est.y2) <= 1e-6 * size
            assert np.isnan(est.residuals["basis"])
            assert any("minimum-norm" in w for w in est.warnings)

    def test_linalg_failure_is_stage_labelled(self, monkeypatch):
        from relkin import EstimationError, distance_estimator

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(distance_estimator, "classical_mds", no_convergence)
        meas = simulate_measurements(SimConfig(k_samples=10), benchmark_trajectory())
        with pytest.raises(EstimationError, match="stage 'mds': Eigenvalues did not converge"):
            estimate_from_distances(meas)

    def test_scale_invariance_of_basis_solve(self):
        # scaling every distance by s scales the coefficient blocks by s^2,
        # leaves the rotation pair unchanged, and scales the recovered
        # velocity (hence the off-diagonal unknowns) by s
        traj = benchmark_trajectory()
        meas = simulate_measurements(SimConfig(k_samples=20, sigma_d=0.0, sigma_a=0.0), traj)
        s = 3.0
        scaled = PolynomialTrajectory(tuple(s * c for c in traj.coeffs))
        meas_s = simulate_measurements(
            SimConfig(k_samples=20, sigma_d=0.0, sigma_a=0.0), scaled
        )
        est = estimate_from_distances(meas)
        est_s = estimate_from_distances(meas_s)
        for l in range(5):
            assert rel_err(est_s.coeffs.blocks[l], s**2 * est.coeffs.blocks[l]) <= 1e-9
        h = est.rotation
        h_s = est_s.rotation
        assert np.linalg.norm(h_s - h) <= 1e-9
        assert rel_err(est_s.y1, s * est.y1) <= 1e-6

    def test_frame_covariance_bitwise(self):
        # rotating all ground-truth coefficients by a quarter turn leaves
        # every EDM bit-identical, hence the estimate too
        traj = benchmark_trajectory()
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        rotated = PolynomialTrajectory(tuple(r @ c for c in traj.coeffs))
        cfg = SimConfig(k_samples=15, sigma_d=0.01, seed=77)
        est_a = estimate_from_distances(simulate_measurements(cfg, traj))
        est_b = estimate_from_distances(simulate_measurements(cfg, rotated))
        assert np.array_equal(est_a.y0, est_b.y0)
        assert np.array_equal(est_a.y1, est_b.y1)
        assert np.array_equal(est_a.y2, est_b.y2)

    def test_lyapunov_consistency_noiseless(self):
        traj = benchmark_trajectory()
        meas = simulate_measurements(SimConfig(k_samples=20, sigma_d=0.0, sigma_a=0.0), traj)
        est = estimate_from_distances(meas)
        b1, b3 = est.coeffs.blocks[1], est.coeffs.blocks[3]
        res1 = np.linalg.norm(est.y0.T @ est.y1 + est.y1.T @ est.y0 - b1)
        res3 = np.linalg.norm(est.y2.T @ est.y1 + est.y1.T @ est.y2 - 2.0 * b3)
        assert res1 <= 1e-6 * np.linalg.norm(b1)
        assert res3 <= 1e-6 * max(np.linalg.norm(2.0 * b3), 1.0)

    def test_noisy_position_rmse_sanity(self):
        # sub-meter sanity ceiling at the benchmark noise level
        from relkin import align_to_truth

        traj = benchmark_trajectory()
        centered = center_coefficients(traj)
        sq = []
        for seed in range(50):
            meas = simulate_measurements(SimConfig(k_samples=40, sigma_d=0.01, seed=seed), traj)
            aligned = align_to_truth(estimate_from_distances(meas), traj)
            sq.append(np.linalg.norm(aligned.y0 - centered.coeffs[0]) ** 2)
        rmse_y0 = np.sqrt(np.mean(sq)) / 20.0
        assert rmse_y0 < 0.1

    def test_short_series_rejected_with_stage_label(self):
        from relkin import EstimationError

        traj = benchmark_trajectory()
        meas = simulate_measurements(SimConfig(k_samples=4, sigma_d=0.0, sigma_a=0.0), traj)
        meas.timestamps = meas.timestamps[:4]
        meas.edms = meas.edms[:4]
        meas.accels = meas.accels[:4]
        with pytest.raises(EstimationError, match="coefficient-fit"):
            estimate_from_distances(meas)
