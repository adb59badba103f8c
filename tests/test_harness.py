"""Frame alignment, RMSE aggregation and the Monte-Carlo runner."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import relkin.harness as harness
from relkin import (
    EstimationError,
    InvalidDimensionError,
    KinematicEstimate,
    SimConfig,
    TrialResult,
    align_to_truth,
    benchmark_trajectory,
    center_coefficients,
    rmse,
    rotation2d,
    run_monte_carlo,
)

from conftest import rel_err


def estimate_from_blocks(y0, y1, y2, rotation=None):
    return KinematicEstimate(
        y0=y0,
        y1=y1,
        y2=y2,
        rotation=np.eye(2) if rotation is None else rotation,
        residuals={},
        warnings=[],
    )


class TestAlignToTruth:
    def test_quarter_turn_realigned(self):
        traj = benchmark_trajectory()
        centered = center_coefficients(traj)
        r = rotation2d(np.pi / 2)
        est = estimate_from_blocks(*(r @ c for c in centered.coeffs))
        aligned = align_to_truth(est, traj)
        for attr, want in zip(("y0", "y1", "y2"), centered.coeffs):
            assert rel_err(getattr(aligned, attr), want) <= 1e-9

    def test_reflection_realigned(self):
        traj = benchmark_trajectory()
        centered = center_coefficients(traj)
        f = np.diag([1.0, -1.0])
        est = estimate_from_blocks(*(f @ c for c in centered.coeffs))
        aligned = align_to_truth(est, traj)
        for attr, want in zip(("y0", "y1", "y2"), centered.coeffs):
            assert rel_err(getattr(aligned, attr), want) <= 1e-9

    def test_independent_per_block_rotations_cannot_be_fixed(self):
        # negative control: one common transform cannot undo three
        # different ones, so a residual must remain
        traj = benchmark_trajectory()
        centered = center_coefficients(traj)
        est = estimate_from_blocks(
            rotation2d(0.3) @ centered.coeffs[0],
            rotation2d(-1.2) @ centered.coeffs[1],
            rotation2d(2.0) @ centered.coeffs[2],
        )
        aligned = align_to_truth(est, traj)
        residual = sum(
            np.linalg.norm(getattr(aligned, attr) - want)
            for attr, want in zip(("y0", "y1", "y2"), centered.coeffs)
        )
        assert residual > 1.0

    def test_rotation_field_composed(self):
        traj = benchmark_trajectory()
        centered = center_coefficients(traj)
        r = rotation2d(1.0)
        q = rotation2d(0.25)
        est = estimate_from_blocks(*(r @ c for c in centered.coeffs), rotation=q)
        aligned = align_to_truth(est, traj)
        assert_allclose(aligned.rotation, r.T @ q, atol=1e-9)


class TestRmse:
    def test_exact_trials_give_zero(self):
        trials = [
            TrialResult(i, "distance", 10, {"Y0": 0.0, "B0": 0.0}, 10, 2)
            for i in range(5)
        ]
        table = rmse(trials)
        assert table.value("distance", 10, "Y0") == 0.0
        assert table.value("distance", 10, "B0") == 0.0

    def test_single_entry_error(self):
        err = 0.42
        trials = [TrialResult(0, "accel", 20, {"Y1": err**2}, 10, 2)]
        assert_allclose(rmse(trials).value("accel", 20, "Y1"), err / 20.0)

    def test_block_normalization_differs(self):
        trials = [TrialResult(0, "distance", 10, {"Y0": 1.0, "B0": 1.0}, 10, 2)]
        table = rmse(trials)
        assert_allclose(table.value("distance", 10, "Y0"), 1.0 / 20.0)
        assert_allclose(table.value("distance", 10, "B0"), 1.0 / 55.0)

    def test_gaussian_errors_match_chi_oracle(self, rng):
        # iid N(0, sigma^2) entry errors make the rmse converge to
        # sigma / sqrt(n_z)
        sigma, n, d = 0.1, 10, 2
        n_z = n * d
        trials = [
            TrialResult(
                i,
                "distance",
                10,
                {"Y0": float(np.sum(rng.normal(0, sigma, n_z) ** 2))},
                n,
                d,
            )
            for i in range(1000)
        ]
        got = rmse(trials).value("distance", 10, "Y0")
        assert abs(got - sigma / np.sqrt(n_z)) <= 0.05 * sigma / np.sqrt(n_z)

    def test_empty_rejected(self):
        with pytest.raises(InvalidDimensionError):
            rmse([])


class TestRunMonteCarlo:
    def test_zero_noise_all_blocks_tiny(self):
        traj = benchmark_trajectory()
        cfg = SimConfig(sigma_d=0.0, sigma_a=0.0, n_trials=2, seed=5)
        result = run_monte_carlo(cfg, traj, k_values=(6,))
        for row in result.rmse_table.rows:
            assert row.rmse <= 1e-6
        for entry in result.time_sweep:
            assert entry.rmse <= 1e-6

    def test_deterministic(self):
        traj = benchmark_trajectory()
        cfg = SimConfig(sigma_d=0.01, sigma_a=0.001, n_trials=3, seed=9,
                        accel_rotation_angle=0.5)
        a = run_monte_carlo(cfg, traj, k_values=(6, 8))
        b = run_monte_carlo(cfg, traj, k_values=(6, 8))
        assert a.rmse_table == b.rmse_table
        assert a.time_sweep == b.time_sweep

    def test_trial_seed_is_deterministic_and_spread(self):
        s1 = harness._trial_seed(42, 10, 0)
        s2 = harness._trial_seed(42, 10, 0)
        s3 = harness._trial_seed(42, 10, 1)
        s4 = harness._trial_seed(42, 20, 0)
        assert s1 == s2
        assert len({s1, s3, s4}) == 3

    def test_blocks_present(self):
        traj = benchmark_trajectory()
        cfg = SimConfig(sigma_d=0.01, sigma_a=0.001, n_trials=2, seed=1)
        result = run_monte_carlo(cfg, traj, k_values=(6,))
        blocks = {row.block for row in result.rmse_table.rows}
        assert blocks == {"Y0", "Y1", "Y2", "B0", "B1", "B2"}
        methods = {row.method for row in result.rmse_table.rows}
        assert methods == {"distance", "accel"}

    def test_failed_trials_are_counted(self, monkeypatch):
        def always_fails(meas, d=2):
            raise EstimationError("stage 'synthetic': injected failure")

        monkeypatch.setitem(harness._ESTIMATORS, "distance", always_fails)
        traj = benchmark_trajectory()
        cfg = SimConfig(n_trials=5, seed=2)
        result = run_monte_carlo(cfg, traj, methods=("distance",), k_values=(6,))
        assert result.failure_counts == {6: 5}
        assert result.rmse_table.rows == [] and result.time_sweep == []

    def test_k_without_survivors_has_no_rows(self, monkeypatch):
        estimator = harness._ESTIMATORS["distance"]

        def fails_at_k6(meas, d=2):
            if meas.timestamps.size == 7:
                raise EstimationError("stage 'synthetic': injected failure")
            return estimator(meas, d)

        monkeypatch.setitem(harness._ESTIMATORS, "distance", fails_at_k6)
        cfg = SimConfig(n_trials=2, seed=2)
        result = run_monte_carlo(cfg, benchmark_trajectory(), ("distance",), (6, 8))
        assert result.failure_counts == {6: 2, 8: 0}
        assert {row.k for row in result.rmse_table.rows} == {8}
        assert {entry.k for entry in result.time_sweep} == {8}

    def test_unknown_method_rejected(self):
        traj = benchmark_trajectory()
        with pytest.raises(InvalidDimensionError):
            run_monte_carlo(SimConfig(n_trials=1), traj, methods=("nope",))

    def test_time_sweep_minimum_near_zero(self):
        # quick noisy check that positional error grows toward the ends
        traj = benchmark_trajectory()
        cfg = SimConfig(sigma_d=0.01, sigma_a=0.001, n_trials=30, seed=3,
                        accel_rotation_angle=0.5)
        result = run_monte_carlo(cfg, traj, methods=("distance",), k_values=(20,))
        by_t = {entry.t: entry.rmse for entry in result.time_sweep}
        assert by_t[0.0] <= by_t[-5.0]
        assert by_t[0.0] <= by_t[5.0]


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"methods": ()}, "methods"),
        ({"methods": ("distance", "distance")}, "methods"),
        ({"k_values": ()}, "k_values"),
        ({"k_values": (10, 10)}, "k_values"),
        ({"time_grid": []}, "time_grid"),
        ({"time_grid": [0.0, np.nan, 1.0]}, "time_grid"),
        ({"time_grid": [0.0, np.inf]}, "time_grid"),
    ],
    ids=["no-methods", "repeated-method", "no-k", "repeated-k", "empty-grid", "nan-grid",
         "inf-grid"],
)
def test_run_monte_carlo_rejects_degenerate_sweeps(kwargs, name):
    with pytest.raises(InvalidDimensionError, match=name):
        run_monte_carlo(SimConfig(n_trials=1), benchmark_trajectory(), **kwargs)
