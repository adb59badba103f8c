"""Distance-only estimation: coefficient fit, factor recovery, coupled solve."""

from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relkin import (
    EstimationError,
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
    estimate_with_accel,
    fit_gram_coeffs,
    gram_from_edm,
    orthogonal_procrustes,
    recover_position_acceleration,
    recover_velocity,
    simulate_measurements,
    vech,
)
from relkin.distance_estimator import _FLIP

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
        # determined parts can be read off the node coordinates directly
        n = 6
        yhat = np.zeros((2, n))
        yhat[0, 0] = 2.0
        yhat[1, 1] = 1.0
        m = np.arange(2 * n, dtype=float).reshape(2, n) + 1.0  # stand-in unknown
        bhat = yhat.T @ m + m.T @ yhat
        f = chu_decompose(bhat, yhat)
        assert_allclose(np.sort(f.lam)[::-1], [2.0, 1.0])
        n_true = f.u.T @ m
        lead = n_true @ f.vt.T
        assert_allclose(f.z1_diag, np.diag(lead), atol=1e-10)
        assert_allclose(f.z2, n_true - lead @ f.vt, atol=1e-10)
        assert_allclose(f.lam[0] * lead[0, 1] + f.lam[1] * lead[1, 0], f.c, atol=1e-10)
        assert f.residual <= 1e-10

    def test_zero_coefficient_matrix(self):
        yhat = np.array([[3.0, 0.0, 1.0, -1.0], [0.0, 2.0, 1.0, 1.0]])
        f = chu_decompose(np.zeros((4, 4)), yhat)
        assert_allclose(f.z1_diag, np.zeros(2), atol=1e-12)
        assert_allclose(f.z2, np.zeros((2, 4)), atol=1e-12)
        assert f.c == 0.0
        assert f.residual <= 1e-12

    def test_noiseless_pipeline_reconstruction(self):
        # oracle: plug the true velocity's node coordinates into the split
        # and check that they reconstruct the coefficient matrix
        traj = benchmark_trajectory()
        ts = np.linspace(-5, 5, 21)
        coeffs = fit_gram_coeffs(noiseless_gram_vecs(traj, ts), ts, degree=4)
        mds0, _ = recover_position_acceleration(coeffs, 2)
        f = chu_decompose(coeffs.blocks[1], mds0.points)
        centered = center_coefficients(traj)
        r = orthogonal_procrustes(centered.coeffs[0], mds0.points)
        y1_est_frame = r @ centered.coeffs[1]
        half = f.vt.T @ (f.lam[:, None] * (f.u.T @ y1_est_frame))  # A^T M
        assert rel_err(half + half.T, coeffs.blocks[1]) <= 1e-7
        assert f.residual <= 1e-7 * np.linalg.norm(coeffs.blocks[1])

    def test_rank_deficient_factor_flagged(self):
        yhat = np.zeros((2, 5))
        yhat[0] = np.arange(5.0)
        f = chu_decompose(np.eye(5), yhat)
        assert f.degenerate
        for item in fields(f):
            assert np.all(np.isfinite(getattr(f, item.name))), item.name

    @pytest.mark.parametrize("seed", range(10))
    def test_reflected_factor_shares_the_split(self, seed):
        # _FLIP @ F has the SVD (_FLIP @ u) diag(lam) vt, so one split serves
        # both candidates.  LAPACK may negate a singular pair (a column of u
        # with the matching row of vt) of the reflected factor; that gauge is
        # matched first, and the basis solve does not see it at all.
        rng = np.random.default_rng(seed)
        b_size, n = 5, int(rng.integers(4, 30))
        f = rng.uniform(0.1, 1000.0) * rng.standard_normal((b_size, 2, n))
        f[seed % b_size, 1] = rng.uniform(-3.0, 3.0) * f[seed % b_size, 0]
        half = f.swapaxes(-1, -2) @ rng.standard_normal((b_size, 2, n))
        bhat = half + half.swapaxes(-1, -2)
        shared = chu_decompose(bhat, f)
        alone = chu_decompose(bhat, _FLIP @ f)
        assert shared.degenerate.sum() == 1
        sign = np.sign(np.sum(shared.vt * alone.vt, axis=-1))
        want = {
            "u": (_FLIP @ shared.u) * sign[..., None, :],
            "lam": shared.lam,
            "vt": shared.vt * sign[..., None],
            "z1_diag": shared.z1_diag,
            "z2": shared.z2 * sign[..., None],
            "c": shared.c * sign[..., 0] * sign[..., 1],
            "residual": shared.residual,
        }
        for name, value in want.items():
            assert rel_err(getattr(alone, name), value) <= 1e-12, name
        assert np.array_equal(alone.repeated, shared.repeated)
        assert np.array_equal(alone.degenerate, shared.degenerate)
        f0 = chu_decompose(bhat[::-1], rng.standard_normal((b_size, 2, n)))
        reflected = build_and_solve_basis(f0, replace(shared, u=_FLIP @ shared.u))
        direct = build_and_solve_basis(f0, alone)
        for name in ("phi", "h", "u", "residual", "condition"):
            assert rel_err(getattr(reflected, name), getattr(direct, name)) <= 1e-12, name
        assert np.array_equal(reflected.solvable, direct.solvable)


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
        lead = f0.u.T @ y1 @ f0.vt.T
        assert_allclose(sol.phi[:2], [1.0, 0.0], atol=1e-9)
        assert_allclose(sol.phi[2:4], [lead[0, 1], lead[1, 0]], atol=1e-8)
        assert_allclose(sol.phi[4:], [0.0, 0.0], atol=1e-8)
        assert_allclose(sol.u, [lead[0, 1], lead[1, 0]], atol=1e-8)

    def test_equation_count(self, rng):
        # the leading diagonal gives 2 rows and the trailing part 2n rows,
        # which lie in the complement of the second factor's row space; the
        # two off-diagonal tie-ins add three more (the first-equation tie
        # needs both its h1- and h2-multiplied forms to stay linear in the
        # basis)
        for n in (4, 7, 10):
            y0 = rng.standard_normal((2, n))
            y1 = rng.standard_normal((2, n))
            y2 = rng.standard_normal((2, n))
            f0 = chu_decompose(y0.T @ y1 + y1.T @ y0, y0)
            f2 = chu_decompose(y2.T @ y1 + y1.T @ y2, y2)
            sol = build_and_solve_basis(f0, f2)
            assert sol.w.shape == (2 * n + 5, 6)
            trail = sol.w[2 : 2 * n + 2].T.reshape(6, 2, n)
            assert np.abs(trail @ f2.vt.T).max() <= 1e-12 * np.abs(trail).max()
            assert sol.rank == 6

    @pytest.mark.parametrize(
        "zero_velocity_split,rank_deficient",
        [(False, False), (True, True)],
        ids=["vanishing-rotation", "rank-deficient"],
    )
    def test_unusable_single_system_flagged(self, rng, zero_velocity_split, rank_deficient):
        # an all-zero acceleration split solves to phi = 0: h vanishes, and
        # with the velocity split zero too the tie rows drop out of the rank
        n = 6
        y0, y1, y2 = (rng.standard_normal((2, n)) for _ in range(3))
        b0 = np.zeros((n, n)) if zero_velocity_split else y0.T @ y1 + y1.T @ y0
        sol = build_and_solve_basis(chu_decompose(b0, y0), chu_decompose(np.zeros((n, n)), y2))
        assert not sol.solvable
        assert sol.h_norm < 1e-8
        assert (sol.rank < 6) == rank_deficient
        assert np.all(np.isfinite(sol.h)) and np.all(np.isfinite(sol.u))

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
        coords = f0.u.T @ y1
        assert rel_err(f0.u @ coords, y1) <= 1e-12
        # assembling from the true coordinates' parts reproduces the same matrix
        lead = coords @ f0.vt.T
        f0.z1_diag = np.diag(lead).copy()
        f0.z2 = coords - lead @ f0.vt
        assert rel_err(recover_velocity(f0, [lead[0, 1], lead[1, 0]]), y1) <= 1e-9

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
            perturbed = MeasurementSet.from_edms(meas.timestamps, meas.edms * (1.0 + noise))
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
        meas.pairs = meas.pairs[:4]
        meas.accels = meas.accels[:4]
        with pytest.raises(EstimationError, match="coefficient-fit"):
            estimate_from_distances(meas)


class TestSharedSolve:
    """The velocity/rotation solve and fallback rule both estimators share."""

    @pytest.mark.parametrize(
        "estimate,sigma_a,y0_tol,y2_tol",
        [
            pytest.param(estimate_from_distances, 0.0, 1e-8, 1e-6, id="distance"),
            pytest.param(estimate_with_accel, 0.0, 1e-8, 1e-6, id="accel"),
            # y2 is the sensor noise itself (rotation fixed to identity), and
            # the deflation's quartic term of that noise leaks into y0
            pytest.param(estimate_with_accel, 0.001, 1e-6, 1e-4, id="accel-noisy-sensor"),
        ],
    )
    def test_static_network_degenerates_gracefully(self, estimate, sigma_a, y0_tol, y2_tol):
        y0 = np.array(
            [[0.0, 10.0, -3.0, 7.0, -8.0, 2.0], [1.0, -2.0, 9.0, -7.0, 4.0, -5.0]]
        )
        traj = PolynomialTrajectory((y0,))
        meas = simulate_measurements(
            SimConfig(n_nodes=6, k_samples=10, sigma_d=0.0, sigma_a=sigma_a), traj
        )
        est = estimate(meas)
        mds_ref = classical_mds(gram_poly_blocks(traj, 4)[0], 2).points
        assert rel_err(est.y0, mds_ref) <= y0_tol
        scale = np.linalg.norm(est.y0)
        assert np.linalg.norm(est.y1) <= 1e-6 * scale
        assert np.linalg.norm(est.y2) <= y2_tol * scale
        assert np.array_equal(est.rotation, np.eye(2))
        assert np.isnan(est.residuals["basis"])
        assert np.isnan(est.conditioning["basis"])
        assert np.isnan(est.conditioning["acceleration_split"])
        assert np.isfinite(est.conditioning["velocity_split"])
        assert any("minimum-norm" in w for w in est.warnings)

    @pytest.mark.parametrize(
        "estimate,keys",
        [
            (estimate_from_distances, ["position_mds", "acceleration_mds"]),
            (estimate_with_accel, ["position_mds"]),
        ],
        ids=["distance", "accel"],
    )
    def test_conditioning_flags_collinear_positions(self, estimate, keys):
        keys = keys + ["velocity_split", "acceleration_split", "basis"]
        c = [benchmark_trajectory().coefficient(l) for l in range(3)]
        collinear = PolynomialTrajectory((np.vstack([c[0][0], 0.5 * c[0][0]]), c[1], c[2]))
        cfg = SimConfig(sigma_d=0.01, sigma_a=0.001, seed=1, accel_rotation_angle=0.5)
        good = estimate(simulate_measurements(cfg, benchmark_trajectory())).conditioning
        bad = estimate(simulate_measurements(cfg, collinear)).conditioning
        assert list(good) == keys and list(bad) == keys
        # the MDS keys are lambda_d over the discarded norm, which may fall
        # below 1; the split and basis keys are ratios of a largest to a smallest
        mds = [k for k in keys if k.endswith("_mds")]
        spreads = [k for k in keys if k not in mds]
        assert all(np.isfinite(c[k]) and c[k] > 0.0 for c in (good, bad) for k in mds)
        assert all(np.isfinite(c[k]) and c[k] >= 1.0 for c in (good, bad) for k in spreads)
        # a collinear start leaves no gap after the second eigenvalue of B0,
        # and the velocity split inherits the position factor's spread
        assert good["position_mds"] > 1e3 > 10.0 > bad["position_mds"]
        assert good["velocity_split"] < 10.0 < 100.0 < bad["velocity_split"]

    @pytest.mark.parametrize(
        "estimate", [estimate_from_distances, estimate_with_accel], ids=["distance", "accel"]
    )
    def test_three_nodes_rejected_with_stage_label(self, estimate, rng):
        traj = random_constant_accel_trajectory(rng, n=3)
        meas = simulate_measurements(
            SimConfig(n_nodes=3, k_samples=10, sigma_d=0.0, sigma_a=0.0), traj
        )
        with pytest.raises(EstimationError, match=r"stage 'basis-solve': .*n >= 4"):
            estimate(meas)

    @pytest.mark.parametrize(
        "estimate", [estimate_from_distances, estimate_with_accel], ids=["distance", "accel"]
    )
    def test_overflowing_fit_is_a_coefficient_fit_error(self, estimate):
        # squared distances near the float limit pass validation, but the
        # fitted coefficient blocks overflow to inf and NaN
        meas = simulate_measurements(SimConfig(k_samples=10, seed=1), benchmark_trajectory())
        huge = MeasurementSet(meas.timestamps, meas.pairs * 1e301, meas.accels)
        with pytest.raises(EstimationError, match="stage 'coefficient-fit': .*overflow"):
            estimate(huge)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: the f0 tie rows and the f2 constraint row of the basis system "
        "carry length^2 while the other 2n + 3 rows carry length, so the weighted least "
        "squares, and with it y1, y2 and rotation, changes with the unit of length"
    ),
)
@pytest.mark.parametrize(
    "estimate", [estimate_from_distances, estimate_with_accel], ids=["distance", "accel"]
)
def test_estimate_is_unit_invariant(estimate):
    # metres to millimetres: squared distances x1e6, accelerations x1e3
    scale = 1e3
    cfg = SimConfig(k_samples=20, sigma_d=0.01, seed=1)
    meas = simulate_measurements(cfg, benchmark_trajectory())
    scaled = MeasurementSet(meas.timestamps, meas.pairs * scale**2, meas.accels * scale)
    want, got = estimate(meas), estimate(scaled)
    for name in ("y0", "y1", "y2"):
        assert rel_err(getattr(got, name) / scale, getattr(want, name)) <= 1e-9
    assert np.abs(got.rotation - want.rotation).max() <= 1e-9
    assert got.warnings == want.warnings
