"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced; without ``-s`` pytest shows them for failures only.
Criteria 4-6 share one paired Monte-Carlo run at the benchmark
configuration (sigma_d = 0.01 m, sigma_a = 0.001 m/s^2, 1000 trials,
K sweep 10..50).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from relkin import (
    SimConfig,
    align_to_truth,
    benchmark_trajectory,
    center_coefficients,
    estimate_from_distances,
    fit_accel_coeffs,
    orthogonal_procrustes,
    recover_position_acceleration,
    run_monte_carlo,
    simulate_measurements,
)
from relkin.cli import main as cli_main

from conftest import gram_poly_blocks, random_constant_accel_trajectory, rel_err

K_SWEEP = (10, 20, 30, 40, 50)
METHODS = ("distance", "accel")
KINEMATIC = ("Y0", "Y1", "Y2")
COEFFS = ("B0", "B1", "B2")


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


@pytest.fixture(scope="module")
def benchmark_run():
    cfg = SimConfig(
        n_nodes=10,
        sigma_d=0.01,
        sigma_a=0.001,
        seed=42,
        accel_rotation_angle=np.pi / 6,
        n_trials=1000,
    )
    start = time.perf_counter()
    result = run_monte_carlo(cfg, benchmark_trajectory(), methods=METHODS, k_values=K_SWEEP)
    elapsed = time.perf_counter() - start
    # the harness counts failed trials; the run is trustworthy at <= 1% per K
    assert all(result.failure_counts[k] <= 0.01 * cfg.n_trials for k in K_SWEEP)
    return result, elapsed


def count_monotonicity_violations(table, methods, blocks):
    checks, violations = 0, 0
    for method in methods:
        for block in blocks:
            values = [table.value(method, k, block) for k in K_SWEEP]
            for lo, hi in zip(values[1:], values[:-1]):
                checks += 1
                if lo > hi:
                    violations += 1
    return checks, violations


def test_criterion_1_noiseless_round_trip():
    with criterion(1, "noiseless round trip"):
        start = time.perf_counter()
        traj = benchmark_trajectory()
        cfg = SimConfig(k_samples=20, sigma_d=0.0, sigma_a=0.0, seed=0)
        meas = simulate_measurements(cfg, traj)
        aligned = align_to_truth(estimate_from_distances(meas), traj)
        centered = center_coefficients(traj)
        for attr, want in zip(("y0", "y1", "y2"), centered.coeffs):
            assert rel_err(getattr(aligned, attr), want) <= 1e-6
        assert time.perf_counter() - start < 1.0


def test_criterion_2_coefficient_oracle():
    with criterion(2, "coefficient fit matches brute-force blocks"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for i in range(100):
            traj = random_constant_accel_trajectory(rng)
            cfg = SimConfig(k_samples=20, sigma_d=0.0, sigma_a=0.0, seed=i)
            # the production fit: coefficient space, then double centering
            fitted = estimate_from_distances(simulate_measurements(cfg, traj)).coeffs
            for got, want in zip(fitted.blocks, gram_poly_blocks(traj, 4)):
                assert rel_err(got, want) <= 1e-8
        assert time.perf_counter() - start < 10.0


def _rotation_angle_error(meas, traj):
    """Angle between the recovered rotation and the Procrustes oracle."""
    est = estimate_from_distances(meas)
    mds0, mds2 = recover_position_acceleration(est.coeffs, 2)
    centered = center_coefficients(traj)
    to_est_frame = orthogonal_procrustes(centered.coeffs[0], mds0.points)
    h_true = orthogonal_procrustes(mds2.points, to_est_frame @ centered.coeffs[2])
    relative = est.rotation @ h_true.T
    if np.linalg.det(relative) < 0:
        return np.pi, est  # parity mismatch counts as maximal error
    return abs(float(np.arctan2(relative[1, 0], relative[0, 0]))), est


def test_criterion_3_rotation_recovery():
    with criterion(3, "rotation recovery, noiseless and noisy"):
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        noisy_errors = []
        reflected = 0
        for i in range(100):
            traj = random_constant_accel_trajectory(rng)
            clean = simulate_measurements(
                SimConfig(k_samples=40, sigma_d=0.0, sigma_a=0.0, seed=i), traj
            )
            err, est = _rotation_angle_error(clean, traj)
            assert err <= 1e-6
            if any("reflect" in w for w in est.warnings):
                reflected += 1
            noisy = simulate_measurements(
                SimConfig(k_samples=40, sigma_d=0.01, sigma_a=0.0, seed=i), traj
            )
            noisy_errors.append(_rotation_angle_error(noisy, traj)[0])
        assert reflected > 0, "sweep never exercised a reflected MDS outcome"
        assert float(np.median(noisy_errors)) <= 0.05
        assert time.perf_counter() - start < 30.0


def test_criterion_4_coefficient_rmse_ordering(benchmark_run):
    result, elapsed = benchmark_run
    name = f"coefficient RMSE: fused <= distance-only, decreasing in K (fixture {elapsed:.1f} s)"
    with criterion(4, name):
        assert elapsed < 600.0
        table = result.rmse_table
        for k in K_SWEEP:
            for block in COEFFS:
                fused = table.value("accel", k, block)
                dist_only = table.value("distance", k, block)
                # equality is expected for B1: on a symmetric grid the odd
                # coefficients of both fits coincide
                assert fused <= dist_only * (1.0 + 1e-9)
        checks, violations = count_monotonicity_violations(table, METHODS, COEFFS)
        assert violations <= max(1, int(0.05 * checks))


def test_criterion_5_kinematic_rmse_ordering(benchmark_run):
    result, elapsed = benchmark_run
    name = f"kinematic RMSE: fused <= distance-only, decreasing in K (fixture {elapsed:.1f} s)"
    with criterion(5, name):
        assert elapsed < 600.0
        table = result.rmse_table
        for k in K_SWEEP:
            for block in ("Y1", "Y2"):
                assert table.value("accel", k, block) <= table.value("distance", k, block)
        checks, violations = count_monotonicity_violations(table, METHODS, KINEMATIC)
        assert violations <= max(1, int(0.05 * checks))


def test_criterion_6_time_sweep_shape(benchmark_run):
    with criterion(6, "positional RMSE over time dips at the center"):
        result, _ = benchmark_run
        for method in METHODS:
            for k in K_SWEEP:
                curve = {e.t: e.rmse for e in result.time_sweep if e.method == method and e.k == k}
                times = np.array(sorted(curve))
                values = np.array([curve[t] for t in times])
                t_min = times[int(np.argmin(values))]
                assert abs(t_min) <= 1.0
                assert curve[5.0] >= curve[0.0]
                assert curve[-5.0] >= curve[0.0]


def test_criterion_7_accel_fit_variance():
    with criterion(7, "sensor coefficient variance matches the mean estimator"):
        traj = benchmark_trajectory()
        trials, sigma_a, k = 1000, 0.001, 40
        entries = np.empty((trials, 2, 10))
        for s in range(trials):
            cfg = SimConfig(k_samples=k, sigma_d=0.0, sigma_a=sigma_a, seed=s)
            meas = simulate_measurements(cfg, traj)
            entries[s] = fit_accel_coeffs(meas.accels, meas.timestamps).block
        var = entries.var(axis=0, ddof=1)
        expected = sigma_a**2 / (k + 1)
        assert np.all(np.abs(var - expected) <= 0.2 * expected)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI invocations are byte-deterministic"):
        sim_args = ["simulate", "--seed", "42", "--set", "k_samples=8"]
        bench_args = ["benchmark", "--seed", "42", "--trials", "3", "--k-sweep", "6"]
        bundles = []
        for run in ("a", "b"):
            out = tmp_path / f"sim_{run}"
            assert cli_main(sim_args + ["--output", str(out)]) == 0
            bundles.append(out)
        for name in ("timestamps.csv", "edms.csv", "accels.csv"):
            assert (bundles[0] / name).read_bytes() == (bundles[1] / name).read_bytes()

        estimates = []
        for run in ("a", "b"):
            out = tmp_path / f"est_{run}"
            code = cli_main(
                ["estimate", "--bundle", str(bundles[0]), "--method", "accel",
                 "--output", str(out)]
            )
            assert code == 0
            estimates.append(out)
        for name in ("estimate.csv", "diagnostics.txt"):
            assert (estimates[0] / name).read_bytes() == (estimates[1] / name).read_bytes()

        benches = []
        for run in ("a", "b"):
            out = tmp_path / f"bench_{run}"
            assert cli_main(bench_args + ["--output", str(out)]) == 0
            benches.append(out)
        for name in ("rmse.csv", "time_sweep.csv"):
            assert (benches[0] / name).read_bytes() == (benches[1] / name).read_bytes()
