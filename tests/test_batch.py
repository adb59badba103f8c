"""Stacked records: validation, per-record isolation and the batched Monte-Carlo harness.

A MeasurementSet may stack B records on one time grid; the batch entry
points estimate all of them at once, and a single estimate is the batch
of one.  These tests pin that every record of a stack is judged as if it
were alone, and that the batched harness reproduces the per-trial loop
it replaced.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import relkin.harness as harness
from relkin import (
    EstimationError,
    InvalidDimensionError,
    MeasurementSet,
    PolynomialTrajectory,
    RelkinError,
    SimConfig,
    TimeSweepEntry,
    align_to_truth,
    benchmark_trajectory,
    estimate_from_distances,
    estimate_with_accel,
    run_monte_carlo,
    simulate_measurements,
    vech,
)
from relkin.accel_estimator import estimate_with_accel_batch
from relkin.distance_estimator import estimate_from_distances_batch

from conftest import poison_record, random_constant_accel_trajectory

BATCH = {"distance": estimate_from_distances_batch, "accel": estimate_with_accel_batch}
SINGLE = {"distance": estimate_from_distances, "accel": estimate_with_accel}


def stack(records):
    return MeasurementSet(
        records[0].timestamps,
        np.stack([r.pairs for r in records]),
        np.stack([r.accels for r in records]),
    )


def benchmark_records(count, k=10):
    traj = benchmark_trajectory()
    return [
        simulate_measurements(SimConfig(k_samples=k, seed=s, accel_rotation_angle=0.5), traj)
        for s in range(count)
    ]


class TestStackedValidation:
    @pytest.mark.parametrize(
        "entry,value,message",
        [
            ((1, 2, 0, 3), np.nan, "EDM entries must be finite"),
            ((1, 2, 0, 3), 1.0, "each EDM must be symmetric"),
            ((1, 2, 4, 4), 5.0, "each EDM must have a zero diagonal"),
        ],
        ids=["nan", "asymmetric", "diagonal"],
    )
    def test_one_bad_record_rejects_the_stack(self, entry, value, message):
        meas = stack(benchmark_records(3))
        edms = meas.edms.copy()
        edms[entry] = value
        with pytest.raises(InvalidDimensionError, match=message):
            MeasurementSet.from_edms(meas.timestamps, edms, meas.accels)

    def test_non_finite_accelerometer_record_rejected(self):
        meas = stack(benchmark_records(3))
        accels = meas.accels.copy()
        accels[2, 0, 1, 5] = np.inf
        with pytest.raises(InvalidDimensionError, match="accelerometer readings must be finite"):
            MeasurementSet(meas.timestamps, meas.pairs, accels)

    @pytest.mark.parametrize(
        "shape",
        [(2, 11, 2, 10), (3, 11, 2, 9), (3, 10, 2, 10), (11, 2, 10)],
        ids=["records", "nodes", "samples", "unstacked"],
    )
    def test_mismatched_accel_stack_rejected(self, shape):
        meas = stack(benchmark_records(3))
        with pytest.raises(InvalidDimensionError, match="matching the EDMs"):
            MeasurementSet(meas.timestamps, meas.pairs, np.zeros(shape))

    def test_single_estimate_rejects_a_stack(self):
        with pytest.raises(InvalidDimensionError, match="batch entry point"):
            estimate_from_distances(stack(benchmark_records(2)))


def collinear_trajectory():
    """Ten nodes on the x axis, moving along it."""
    x = np.linspace(-450.0, 450.0, 10)
    zero = np.zeros(10)
    return PolynomialTrajectory(
        (
            np.vstack([x, zero]),
            np.vstack([np.linspace(-5.0, 5.0, 10), zero]),
            np.vstack([np.linspace(0.3, -0.3, 10), zero]),
        )
    )


def static_trajectory():
    rng = np.random.default_rng(5)
    return PolynomialTrajectory((rng.uniform(-100.0, 100.0, (2, 10)),))


def mixed_stack(method):
    """A benchmark, a collinear and a static record on one grid.

    Round-off decides the sign of the collinear position Grammian's null
    eigenvalue, so the grid is the first K at which the collinear record's
    velocity split is degenerate on its own.
    """
    for k in range(6, 60):
        collinear = simulate_measurements(
            SimConfig(k_samples=k, sigma_d=0.0, sigma_a=0.0), collinear_trajectory()
        )
        try:
            SINGLE[method](collinear)
        except EstimationError:
            break
    else:
        raise AssertionError("no K gives a degenerate collinear velocity split")
    normal = simulate_measurements(
        SimConfig(k_samples=k, seed=3, accel_rotation_angle=0.5), benchmark_trajectory()
    )
    static = simulate_measurements(
        SimConfig(k_samples=k, sigma_d=0.0, sigma_a=0.001, seed=4), static_trajectory()
    )
    return [normal, collinear, static]


def close(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) <= 1e-12 * max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("method", ["distance", "accel"])
def test_each_record_of_a_stack_is_estimated_as_if_alone(method):
    records = mixed_stack(method)
    batch = BATCH[method](stack(records))
    outcomes = []
    for i, record in enumerate(records):
        alone = BATCH[method](record)
        assert batch.warnings[i] == alone.warnings[0]
        assert str(batch.errors[i]) == str(alone.errors[0])
        if alone.errors[0] is not None:
            outcomes.append("error")
            with pytest.raises(EstimationError, match="stage 'velocity-split'"):
                batch.estimate(i)
            continue
        mine, ref = batch.estimate(i), alone.estimate(0)
        for field in ("y0", "y1", "y2", "rotation"):
            assert close(getattr(mine, field), getattr(ref, field)), field
        for table in ("residuals", "conditioning"):
            got, want = getattr(mine, table), getattr(ref, table)
            assert list(got) == list(want)
            for key in want:
                assert (np.isnan(got[key]) and np.isnan(want[key])) or close(got[key], want[key])
        outcomes.append("fallback" if np.isnan(mine.residuals["basis"]) else "solved")
    assert outcomes == ["solved", "error", "fallback"]


@pytest.mark.parametrize("method", ["distance", "accel"])
def test_an_overflowing_record_fails_alone(method):
    records = benchmark_records(3)
    huge = MeasurementSet(records[1].timestamps, records[1].pairs * 1e301, records[1].accels)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = BATCH[method](stack([records[0], huge, records[2]]))
        alone = [BATCH[method](records[i]) for i in (0, 2)]
    assert [str(w.message) for w in caught] == []
    assert [error is None for error in batch.errors] == [True, False, True]
    assert str(batch.errors[1]).startswith("stage 'coefficient-fit': ")
    assert np.isnan(batch.residuals["edm_fit"][1])
    for i, solo in zip((0, 2), alone):
        assert batch.warnings[i] == solo.warnings[0]
        for field in ("y0", "y1", "y2", "rotation"):
            assert np.array_equal(getattr(batch, field)[i], getattr(solo, field)[0]), field
        for table in ("residuals", "conditioning"):
            got, want = getattr(batch, table), getattr(solo, table)
            assert list(got) == list(want)
            assert all(np.array_equal(got[key][i], want[key][0]) for key in want), table
        for got, want in zip(batch.coeffs.blocks, solo.coeffs.blocks):
            assert np.array_equal(got[i], want[0])


def test_a_record_failure_costs_only_its_trial(monkeypatch):
    traj, cfg = benchmark_trajectory(), SimConfig(n_trials=6, seed=8, accel_rotation_angle=0.5)
    k_values = (8, 12)
    # the last trial of K = 12, so the trials kept are those of a 5-trial run
    poison = simulate_measurements(
        replace(cfg, k_samples=12, seed=harness._trial_seed(cfg.seed, 12, 5)), traj
    )
    with monkeypatch.context() as patch:
        poison_record(patch, poison.pairs)
        poisoned = run_monte_carlo(cfg, traj, k_values=k_values)
    assert poisoned.failure_counts == {8: 0, 12: 1}
    clean = run_monte_carlo(cfg, traj, k_values=(8,))
    short = run_monte_carlo(replace(cfg, n_trials=5), traj, k_values=(12,))
    for k, alone in ((8, clean), (12, short)):
        assert [r for r in poisoned.rmse_table.rows if r.k == k] == alone.rmse_table.rows
        assert [e for e in poisoned.time_sweep if e.k == k] == alone.time_sweep


def per_trial_oracle(config, truth, methods, k_values):
    """The per-trial ``run_monte_carlo`` loop that the batched harness replaced.

    Every trial is simulated, estimated by the single estimators, aligned
    and scored on its own, as before batching.  The RMSE rows, sorted by
    (method, K, block), are returned as ((method, K, block), rmse) pairs.
    """
    time_grid = np.linspace(config.t_start, config.t_end, 21)
    truth_blocks = harness._centered_blocks(truth)
    truth_vecs = harness._truth_coeff_vecs(truth)
    truth_positions = positions(truth_blocks, time_grid)
    n, d = truth.n_nodes, truth.dim

    sq_errors = {}
    sweep_acc = {(m, k): np.zeros(time_grid.size) for m in methods for k in k_values}
    sweep_counts = {(m, k): 0 for m in methods for k in k_values}
    failure_counts = {}

    for k in k_values:
        failures = 0
        for trial in range(config.n_trials):
            cfg = replace(config, k_samples=k, seed=harness._trial_seed(config.seed, k, trial))
            meas = simulate_measurements(cfg, truth)
            try:
                estimates = {m: SINGLE[m](meas, d) for m in methods}
            except RelkinError:
                failures += 1
                continue
            for method, est in estimates.items():
                aligned = align_to_truth(est, truth)
                for l in range(3):
                    est_vec = vech(aligned.coeffs.blocks[l])
                    err = float(np.linalg.norm(est_vec - truth_vecs[l]) ** 2)
                    sq_errors.setdefault((method, k, f"B{l}"), []).append(err)
                    est_y = (aligned.y0, aligned.y1, aligned.y2)[l]
                    err = float(np.linalg.norm(est_y - truth_blocks[l]) ** 2)
                    sq_errors.setdefault((method, k, f"Y{l}"), []).append(err)
                est_positions = positions((aligned.y0, aligned.y1, aligned.y2), time_grid)
                sweep_acc[(method, k)] += ((est_positions - truth_positions) ** 2).sum(axis=(1, 2))
                sweep_counts[(method, k)] += 1
        failure_counts[k] = failures

    sizes = {"B": n * (n + 1) // 2, "Y": n * d}
    table = [
        (key, float(np.sqrt(np.mean(errs))) / sizes[key[2][0]])
        for key, errs in sorted(sq_errors.items())
    ]
    sweep = [
        TimeSweepEntry(
            m, k, float(t), float(np.sqrt(sweep_acc[(m, k)][i] / sweep_counts[(m, k)])) / (n * d)
        )
        for m in methods
        for k in k_values
        if sweep_counts[(m, k)]
        for i, t in enumerate(time_grid)
    ]
    return table, sweep, failure_counts


def positions(blocks, times):
    y0, y1, y2 = blocks
    t = times[:, None, None]
    return y0 + y1 * t + 0.5 * y2 * t * t


def test_batched_harness_matches_the_per_trial_oracle():
    traj = benchmark_trajectory()
    cfg = SimConfig(n_trials=20, seed=42, accel_rotation_angle=np.pi / 6)
    methods, k_values = ("distance", "accel"), (10, 20, 30, 40, 50)
    result = run_monte_carlo(cfg, traj, methods=methods, k_values=k_values)
    table, sweep, failure_counts = per_trial_oracle(cfg, traj, methods, k_values)
    assert result.failure_counts == failure_counts
    assert [(r.method, r.k, r.block) for r in result.rmse_table.rows] == [key for key, _ in table]
    for got, (_, want) in zip(result.rmse_table.rows, table):
        assert abs(got.rmse - want) <= 1e-9 * want
    keys = [(e.method, e.k, e.t) for e in sweep]
    assert [(e.method, e.k, e.t) for e in result.time_sweep] == keys
    for got, want in zip(result.time_sweep, sweep):
        assert abs(got.rmse - want.rmse) <= 1e-9 * want.rmse


def counted_calls(monkeypatch):
    """Record (method, K, records) of every estimator call the harness makes."""
    calls = []
    for method, estimator in list(harness._ESTIMATORS.items()):

        def counted(meas, d=2, method=method, estimator=estimator):
            calls.append((method, meas.timestamps.size - 1, len(meas.pairs)))
            return estimator(meas, d)

        monkeypatch.setitem(harness._ESTIMATORS, method, counted)
    return calls


def test_each_method_runs_once_per_k(monkeypatch):
    calls = counted_calls(monkeypatch)
    cfg = SimConfig(n_trials=4, seed=1)
    result = run_monte_carlo(cfg, benchmark_trajectory(), k_values=(6, 9, 12))
    assert result.failure_counts == {6: 0, 9: 0, 12: 0}
    assert sorted(calls) == sorted((m, k, 4) for m in ("distance", "accel") for k in (6, 9, 12))


def test_a_cause_every_record_shares_costs_one_call_per_method(monkeypatch):
    calls = counted_calls(monkeypatch)
    # three nodes give too few equations for any record, so every batch call raises
    truth = random_constant_accel_trajectory(np.random.default_rng(2), n=3)
    cfg = SimConfig(n_nodes=3, n_trials=6, seed=1)
    result = run_monte_carlo(cfg, truth, k_values=(10,))
    assert result.failure_counts == {10: 6}
    assert result.rmse_table.rows == [] and result.time_sweep == []
    assert sorted(calls) == [("accel", 10, 6), ("distance", 10, 6)]


def test_batch_of_one_equals_single_estimate():
    meas = benchmark_records(1, k=20)[0]
    for method in ("distance", "accel"):
        single = SINGLE[method](meas)
        batch = BATCH[method](meas)
        assert batch.y0.shape == (1,) + single.y0.shape
        one = batch.estimate(0)
        for field in ("y0", "y1", "y2", "rotation"):
            assert np.array_equal(getattr(one, field), getattr(single, field))
        assert one.warnings == single.warnings


def test_stacked_alignment_equals_one_at_a_time():
    traj = benchmark_trajectory()
    records = benchmark_records(4)
    batch = estimate_with_accel_batch(stack(records))
    aligned = align_to_truth(batch, traj)
    for i, record in enumerate(records):
        alone = align_to_truth(estimate_with_accel(record), traj)
        for field in ("y0", "y1", "y2", "rotation"):
            assert close(getattr(aligned, field)[i], getattr(alone, field))
