"""The Monte-Carlo harness's stacked simulation and its fixed-size chunks.

The harness simulates a K's noise-free record once and adds each trial's
noise into a preallocated stack, a chunk of trials at a time.  These
tests pin that every stacked record is bit for bit what the per-trial
loop it replaced gave, that the truth is evaluated once per (K, chunk),
and that the chunk size changes neither table nor the failure counts.
"""

from dataclasses import replace

import numpy as np
import pytest

import relkin.harness as harness
import relkin.trajectory as trajectory
from relkin import (
    ConfigError,
    MeasurementSet,
    SimConfig,
    benchmark_trajectory,
    centering_matrix,
    edm_from_points,
    eval_kinematics,
    rotation2d,
    run_monte_carlo,
)
from relkin.linalg import triu_indices

from conftest import poison_record, random_constant_accel_trajectory


def reference_simulate(config, traj):
    """The whole-record simulator as it was before the noise-free step was split off."""
    n, d = config.n_nodes, config.dim
    ts = np.linspace(config.t_start, config.t_end, config.k_samples + 1)
    rng_dist, rng_accel = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    q = rotation2d(config.accel_rotation_angle) if d == 2 else np.eye(d)
    edms = edm_from_points(eval_kinematics(traj, ts, 0))
    if config.sigma_d != 0.0:
        iu, ju = triu_indices(n, 1)
        noisy = np.sqrt(edms[:, iu, ju]) + rng_dist.normal(0.0, config.sigma_d, (ts.size, iu.size))
        edms[:, iu, ju] = edms[:, ju, iu] = noisy**2
    acc = eval_kinematics(traj, ts, 2) @ centering_matrix(n)
    accels = q @ acc + rng_accel.normal(0.0, config.sigma_a, (ts.size, d, n))
    return MeasurementSet.from_edms(timestamps=ts, edms=edms, accels=accels, q_true=q)


def reference_stack(config, truth, k):
    """The per-trial loop the stacked simulation replaced: one simulation per trial."""
    pairs = np.empty((config.n_trials, k + 1, config.n_nodes * (config.n_nodes - 1) // 2))
    accels = np.empty((config.n_trials, k + 1, config.dim, config.n_nodes))
    for trial in range(config.n_trials):
        cfg = replace(config, k_samples=k, seed=harness._trial_seed(config.seed, k, trial))
        meas = reference_simulate(cfg, truth)
        pairs[trial], accels[trial] = meas.pairs, meas.accels
    return MeasurementSet(meas.timestamps, pairs, accels)


def stacked(config, truth, k, trials):
    config = replace(config, k_samples=k)
    record = trajectory._noiseless_record(config, truth)
    return harness._simulate_chunk(config, record, trials)


def assert_same_records(got, want):
    assert np.array_equal(got.timestamps, want.timestamps)
    assert np.array_equal(got.pairs, want.pairs)
    assert np.array_equal(got.accels, want.accels)


def truth_for(config):
    if (config.n_nodes, config.dim) == (10, 2):
        return benchmark_trajectory()
    rng = np.random.default_rng(config.seed)
    return random_constant_accel_trajectory(rng, n=config.n_nodes, d=config.dim)


CASES = {
    "n10-K10": (SimConfig(n_trials=6, seed=3), 10),
    "n10-K40": (SimConfig(n_trials=6, seed=4), 40),
    "n100-K10": (SimConfig(n_nodes=100, n_trials=3, seed=5), 10),
    "no-distance-noise": (SimConfig(n_trials=4, seed=6, sigma_d=0.0), 12),
    "no-accel-noise": (SimConfig(n_trials=4, seed=7, sigma_a=0.0), 12),
    "rotated-sensor": (SimConfig(n_trials=4, seed=8, accel_rotation_angle=0.9), 20),
    "dim3": (SimConfig(n_nodes=7, dim=3, n_trials=4, seed=9), 15),
}


@pytest.mark.parametrize("case", list(CASES))
def test_stacked_simulation_equals_the_per_trial_loop(case):
    config, k = CASES[case]
    truth = truth_for(config)
    want = reference_stack(config, truth, k)
    assert_same_records(stacked(config, truth, k, range(config.n_trials)), want)
    # a chunk that starts inside the K's trials keeps their global sub-seeds
    middle = stacked(config, truth, k, range(1, 3))
    assert np.array_equal(middle.pairs, want.pairs[1:3])
    assert np.array_equal(middle.accels, want.accels[1:3])


def test_single_simulation_is_unchanged():
    for config, k in CASES.values():
        truth = truth_for(config)
        cfg = replace(config, k_samples=k)
        got, want = trajectory.simulate_measurements(cfg, truth), reference_simulate(cfg, truth)
        assert_same_records(got, want)
        assert np.array_equal(got.q_true, want.q_true)


def test_truth_is_evaluated_once_per_k_and_chunk(monkeypatch):
    calls = []

    def counted(traj, t, order=0):
        calls.append(order)
        return eval_kinematics(traj, t, order)

    monkeypatch.setattr(trajectory, "eval_kinematics", counted)
    config = SimConfig(n_trials=20, seed=2)
    result = run_monte_carlo(config, benchmark_trajectory(), k_values=(10, 20))
    assert result.failure_counts == {10: 0, 20: 0}
    chunks = 2 * -(-20 // harness._CHUNK_TRIALS)
    # the per-trial loop evaluated positions and accelerations once per trial: 80 calls
    assert len(calls) <= 2 * chunks


def poison_trial(monkeypatch, config, truth, k, trial):
    """Make every method fail on the (K, trial) record, in that record's error slot."""
    cfg = replace(config, k_samples=k, seed=harness._trial_seed(config.seed, k, trial))
    poison_record(monkeypatch, reference_simulate(cfg, truth).pairs)


def run_chunked(monkeypatch, chunk, config, truth, k_values, poison=None):
    sizes = []
    simulate = harness._simulate_chunk

    def recorded(config, record, trials):
        sizes.append((config.k_samples, len(trials)))
        return simulate(config, record, trials)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_CHUNK_TRIALS", chunk)
        patch.setattr(harness, "_simulate_chunk", recorded)
        if poison is not None:
            poison_trial(patch, config, truth, *poison)
        return run_monte_carlo(config, truth, k_values=k_values), sizes


@pytest.mark.parametrize("seed", [3, 4, 17])
def test_chunks_change_neither_rmse_rows_nor_failure_counts(monkeypatch, seed):
    truth, k_values = benchmark_trajectory(), (10, 20)
    config = SimConfig(n_trials=5, seed=seed, accel_rotation_angle=0.4)
    whole, whole_sizes = run_chunked(monkeypatch, 128, config, truth, k_values)
    assert whole_sizes == [(10, 5), (20, 5)]
    assert whole.failure_counts == {10: 0, 20: 0}
    for chunk, chunk_sizes in ((2, (2, 2, 1)), (3, (3, 2))):
        chunked, sizes = run_chunked(monkeypatch, chunk, config, truth, k_values)
        assert sizes == [(k, size) for k in k_values for size in chunk_sizes]
        assert chunked.failure_counts == whole.failure_counts
        assert chunked.rmse_table.rows == whole.rmse_table.rows
        assert chunked.time_sweep == whole.time_sweep


def test_a_failure_in_the_third_chunk_is_counted_once(monkeypatch):
    truth, k_values = benchmark_trajectory(), (10, 20)
    config = SimConfig(n_trials=5, seed=17)
    # trial 4 of K = 20 is the only trial of that K's third chunk of 2
    whole, _ = run_chunked(monkeypatch, 128, config, truth, k_values, poison=(20, 4))
    chunked, _ = run_chunked(monkeypatch, 2, config, truth, k_values, poison=(20, 4))
    assert chunked.failure_counts == whole.failure_counts == {10: 0, 20: 1}
    assert chunked.rmse_table.rows == whole.rmse_table.rows
    assert chunked.time_sweep == whole.time_sweep


def test_trajectory_shape_mismatch_still_raises():
    with pytest.raises(ConfigError, match="does not match"):
        run_monte_carlo(SimConfig(n_nodes=6), benchmark_trajectory())
