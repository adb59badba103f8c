"""Frame alignment, RMSE aggregation and the Monte-Carlo runner."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import relkin.harness as harness
from relkin import (
    ConfigError,
    EstimationError,
    InvalidDimensionError,
    KinematicEstimate,
    SimConfig,
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
        table = rmse({("distance", 10): np.zeros(6)}, 10, 2)
        assert [row.rmse for row in table.rows] == [0.0] * 6

    def test_single_entry_error(self):
        err = 0.42
        mean_sq = np.zeros(6)
        mean_sq[harness.BLOCKS.index("Y1")] = err**2
        table = rmse({("accel", 20): mean_sq}, 10, 2)
        assert_allclose(table.value("accel", 20, "Y1"), err / 20.0)
        assert table.value("accel", 20, "Y0") == 0.0

    def test_block_normalization_differs(self):
        # n*d entries in a kinematic block, n*(n+1)/2 in a half-vectorized coefficient block
        for n, d in ((10, 2), (4, 3)):
            table = rmse({("distance", 10): np.ones(6)}, n, d)
            for block in ("Y0", "Y1", "Y2"):
                assert_allclose(table.value("distance", 10, block), 1.0 / (n * d))
            for block in ("B0", "B1", "B2"):
                assert_allclose(table.value("distance", 10, block), 1.0 / (n * (n + 1) // 2))

    def test_rows_sorted_by_method_k_block(self):
        mean_sq = {(m, k): np.arange(6.0) + k for m in ("distance", "accel") for k in (20, 10)}
        table = rmse(mean_sq, 4, 2)
        blocks = ("B0", "B1", "B2", "Y0", "Y1", "Y2")
        keys = [(m, k, b) for m in ("accel", "distance") for k in (10, 20) for b in blocks]
        assert [(row.method, row.k, row.block) for row in table.rows] == keys
        # each block reads its own entry of its (method, K)'s mean squared errors
        sizes = (10, 10, 10, 8, 8, 8)
        for row in table.rows:
            j = blocks.index(row.block)
            assert row.rmse == float(np.sqrt(j + row.k)) / sizes[j]

    def test_gaussian_errors_match_chi_oracle(self, rng):
        # iid N(0, sigma^2) entry errors make the rmse converge to
        # sigma / sqrt(n_z), n_z the number of entries in the block
        sigma, n, d = 0.1, 10, 2
        sizes = (n * (n + 1) // 2,) * 3 + (n * d,) * 3
        mean_sq = np.array(
            [np.mean(np.sum(rng.normal(0, sigma, (1000, n_z)) ** 2, axis=1)) for n_z in sizes]
        )
        table = rmse({("distance", 10): mean_sq}, n, d)
        for block, n_z in zip(harness.BLOCKS, sizes):
            got = table.value("distance", 10, block)
            assert abs(got - sigma / np.sqrt(n_z)) <= 0.05 * sigma / np.sqrt(n_z)


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

    def test_a_finish_that_raises_fails_every_trial_it_holds_for_both_methods(self, monkeypatch):
        finish_batch, calls = harness.finish_batch, []

        def accel_fails_first(fitted):
            # the accelerometer path's fit carries its acceleration factor
            calls.append(fitted.factor is None)
            if calls.count(False) == 1 and fitted.factor is not None:
                raise EstimationError("stage 'synthetic': injected failure")
            return finish_batch(fitted)

        cfg, traj = SimConfig(n_trials=2, seed=2), benchmark_trajectory()
        want = run_monte_carlo(cfg, traj, k_values=(8,))
        monkeypatch.setattr(harness, "_CHUNK_TRIALS", 2)
        monkeypatch.setattr(harness, "finish_batch", accel_fails_first)
        result = run_monte_carlo(cfg, traj, k_values=(6, 8))
        # one finish per K, each of both methods; the first accel finish fails K = 6 alone
        assert calls == [True, False, True, False]
        assert result.failure_counts == {6: 2, 8: 0}
        assert result.rmse_table.rows == want.rmse_table.rows
        assert result.time_sweep == want.time_sweep

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
    ],
    ids=["no-methods", "repeated-method", "no-k", "repeated-k"],
)
def test_run_monte_carlo_rejects_degenerate_sweeps(kwargs, name):
    with pytest.raises(InvalidDimensionError, match=name):
        run_monte_carlo(SimConfig(n_trials=1), benchmark_trajectory(), **kwargs)


def test_run_monte_carlo_rejects_non_integral_k():
    with pytest.raises(ConfigError, match="k_samples must be an integer"):
        run_monte_carlo(SimConfig(n_trials=1), benchmark_trajectory(), k_values=(10.5,))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: harness.RmseTable([]).value("distance", 10, "Y0"), KeyError,
         r"no RMSE entry for \(distance, 10, Y0\)"),
        (lambda: align_to_truth(
            estimate_from_blocks(*(np.zeros((2, 4)),) * 3), benchmark_trajectory()),
         InvalidDimensionError, "estimate and truth shapes do not match"),
    ],
    ids=["missing-entry", "node-count"],
)
def test_each_lookup_guard_names_its_rule(call, error, message):
    with pytest.raises(error, match=message):
        call()
