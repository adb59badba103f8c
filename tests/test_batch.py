"""Stacked records: validation, per-record isolation and the batched Monte-Carlo harness.

A MeasurementSet may stack B records on one time grid; the batch entry
points estimate all of them at once, and a single estimate is the batch
of one.  Each batch is a finish of a fit, and fitted stacks of several
grids finish together.  These tests pin that every record of a stack is
judged as if it were alone, and that the batched harness reproduces the
per-trial loop it replaced, whichever K it finishes together.
"""

import re
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
    centering_matrix,
    estimate_from_distances,
    estimate_with_accel,
    run_monte_carlo,
    simulate_measurements,
    vech,
)
from relkin.accel_estimator import estimate_with_accel_batch
from relkin.distance_estimator import (
    GrammianCoefficients,
    estimate_from_distances_batch,
    finish_batch,
    fit_from_distances,
    join_fitted,
    recover_position_acceleration,
)
from relkin.linalg import _ITERATE_FROM, _certified_top, classical_mds

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


def test_one_mds_call_factors_both_blocks_of_each_record():
    coeffs = fit_from_distances(stack(mixed_stack("distance"))).coeffs
    collinear = GrammianCoefficients(4, [block[1] for block in coeffs.blocks])
    for c in (coeffs, collinear):
        got = recover_position_acceleration(c, 2)
        want = (classical_mds(c.blocks[0], 2), classical_mds(4.0 * c.blocks[4], 2))
        for mine, ref in zip(got, want, strict=True):
            assert np.array_equal(mine.points, ref.points)
            assert np.array_equal(mine.eigenvalues, ref.eigenvalues)
            assert np.array_equal(mine.discarded, ref.discarded)
            assert type(mine.discarded) is type(ref.discarded)
            assert mine.warnings == ref.warnings
    # the collinear record's position factor, and only it, is flagged degenerate
    assert got[0].warnings and not got[1].warnings


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


def assert_same_estimate(got, want):
    """Two KinematicEstimates equal bit for bit, NaN marks included."""
    for name in ("y0", "y1", "y2", "rotation"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for table in ("residuals", "conditioning"):
        mine, ref = getattr(got, table), getattr(want, table)
        assert list(mine) == list(ref), table
        assert all(np.array_equal(mine[key], ref[key], equal_nan=True) for key in ref), table
    assert got.warnings == want.warnings
    assert got.coeffs.degree == want.coeffs.degree
    assert all(np.array_equal(a, b) for a, b in zip(got.coeffs.blocks, want.coeffs.blocks))
    assert np.array_equal(got.coeffs.residual, want.coeffs.residual, equal_nan=True)


@pytest.mark.parametrize("method", ["distance", "accel"])
@pytest.mark.parametrize(
    "pairs_scale,accels_scale",
    [(1e200, 1.0), (1.0, 1e100), (1.0, 1e160)],
    ids=["pairs-1e200", "accels-1e100", "accels-1e160"],
)
def test_an_overflow_after_the_fit_stays_in_its_record(method, pairs_scale, accels_scale):
    records = benchmark_records(3)
    mid = records[1]
    huge = MeasurementSet(mid.timestamps, mid.pairs * pairs_scale, mid.accels * accels_scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = BATCH[method](stack([records[0], huge, records[2]]))
        alone = {i: SINGLE[method](records[i]) for i in (0, 2)}
    for i, solo in alone.items():
        assert_same_estimate(batch.estimate(i), solo)
    if batch.errors[1] is not None:
        assert re.match(r"stage '[a-z-]+': ", str(batch.errors[1]))
        return
    residuals = {key: value[1] for key, value in batch.residuals.items()}
    # NaN marks only the two spreads of a record that took the fallback
    fell_back = any("minimum-norm completion" in w for w in batch.warnings[1])
    marked = {"acceleration_split", "basis"} if fell_back else set()
    assert all(np.isnan(residuals[key]) for key in marked)
    assert all(np.isfinite(value) for key, value in residuals.items() if key not in marked)


@pytest.mark.parametrize("method", ["distance", "accel"])
@pytest.mark.parametrize("n", [10, _ITERATE_FROM + 20], ids=["eigh", "iteration"])
def test_huge_finite_pairs_keep_their_mds_conditioning(method, n):
    if n == 10:
        traj = benchmark_trajectory()
    else:
        traj = random_constant_accel_trajectory(np.random.default_rng(4), n=n)
    cfg = SimConfig(n_nodes=n, k_samples=40, accel_rotation_angle=0.5)
    records = [simulate_measurements(replace(cfg, seed=s), traj) for s in (1, 2, 3)]
    mid = records[1]
    # the middle scene stretched 1e100-fold: its MDS ratios do not change
    huge = MeasurementSet(mid.timestamps, mid.pairs * 1e200, mid.accels * 1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = BATCH[method](stack([records[0], huge, records[2]]))
        alone = [SINGLE[method](record) for record in records]
    for i in (0, 2):
        assert_same_estimate(batch.estimate(i), alone[i])
    assert batch.errors[1] is None
    ratios = {key: value for key, value in alone[1].conditioning.items() if key.endswith("_mds")}
    assert len(ratios) == (2 if method == "distance" else 1)
    for key, unit_scale in ratios.items():
        assert batch.conditioning[key][1] == pytest.approx(unit_scale, rel=1e-9), key
    if n >= _ITERATE_FROM:
        assert _certified_top(batch.coeffs.blocks[0][1:2], 2)[-1].all()


# |t|^degree below the smallest normal float; the accel path's degree-3 fit
# still unscales at 1e-100
@pytest.mark.parametrize(
    "method,degree,span", [("distance", 4, 1e-300), ("distance", 4, 1e-100), ("accel", 3, 1e-300)]
)
def test_a_time_grid_too_short_to_unscale_rejects_the_stack(method, degree, span):
    cfg = SimConfig(k_samples=10, t_start=-span, t_end=span, accel_rotation_angle=0.5)
    records = [simulate_measurements(replace(cfg, seed=s), benchmark_trajectory()) for s in (1, 2)]
    message = (
        f"^stage 'coefficient-fit': time grid too short for a degree-{degree} fit: "
        f"its largest \\|t\\| is {span!r}"
    )
    # the grid is every record's, so the whole batch raises rather than failing record by record
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EstimationError, match=message):
            BATCH[method](stack(records))
        with pytest.raises(EstimationError, match=message):
            SINGLE[method](records[0])
    assert [str(w.message) for w in caught] == []


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
    """Record (method, K, records) of every fit call the harness makes."""
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


def counted_finishes(monkeypatch):
    """Record (method, records) of every finish the harness makes."""
    calls = []
    finish = harness.finish_batch

    def counted(fitted):
        calls.append(("distance" if fitted.factor is None else "accel", len(fitted.errors)))
        return finish(fitted)

    monkeypatch.setattr(harness, "finish_batch", counted)
    return calls


def test_a_five_k_sweep_finishes_once_per_method(monkeypatch):
    fits, finishes = counted_calls(monkeypatch), counted_finishes(monkeypatch)
    k_values = (10, 20, 30, 40, 50)
    cfg = SimConfig(n_trials=5, seed=1)
    result = run_monte_carlo(cfg, benchmark_trajectory(), k_values=k_values)
    assert result.failure_counts == dict.fromkeys(k_values, 0)
    assert sorted(fits) == sorted((m, k, 5) for m in ("distance", "accel") for k in k_values)
    assert sorted(finishes) == [("accel", 25), ("distance", 25)]


def rows_at(result, k):
    return (
        [row for row in result.rmse_table.rows if row.k == k],
        [entry for entry in result.time_sweep if entry.k == k],
    )


def test_one_finish_across_k_equals_a_run_per_k(monkeypatch):
    traj, cfg = benchmark_trajectory(), SimConfig(n_trials=5, seed=6, accel_rotation_angle=0.5)
    finishes = counted_finishes(monkeypatch)
    joint = run_monte_carlo(cfg, traj, k_values=(6, 9, 12))
    assert sorted(finishes) == [("accel", 15), ("distance", 15)]
    assert joint.failure_counts == {6: 0, 9: 0, 12: 0}
    for k in (6, 9, 12):
        alone = run_monte_carlo(cfg, traj, k_values=(k,))
        assert alone.failure_counts == {k: 0}
        assert rows_at(joint, k) == (alone.rmse_table.rows, alone.time_sweep)


def test_a_poisoned_record_and_a_failed_fit_count_only_at_their_k(monkeypatch):
    traj, cfg = benchmark_trajectory(), SimConfig(n_trials=5, seed=6, accel_rotation_angle=0.5)
    # the last trial of K = 9, so the trials kept are those of a 4-trial run
    poison = simulate_measurements(
        replace(cfg, k_samples=9, seed=harness._trial_seed(cfg.seed, 9, 4)), traj
    )
    with monkeypatch.context() as patch:
        poison_record(patch, poison.pairs)
        fit = harness._ESTIMATORS["accel"]

        def fails_at_k12(meas, d=2):
            if meas.timestamps.size == 13:
                raise EstimationError("stage 'synthetic': injected failure")
            return fit(meas, d)

        patch.setitem(harness._ESTIMATORS, "accel", fails_at_k12)
        finishes = counted_finishes(patch)
        result = run_monte_carlo(cfg, traj, k_values=(6, 9, 12))
    # K = 12 never reaches a finish; K = 6 and 9 finish together
    assert sorted(finishes) == [("accel", 10), ("distance", 10)]
    assert result.failure_counts == {6: 0, 9: 1, 12: 5}
    assert rows_at(result, 12) == ([], [])
    for k, config in ((6, cfg), (9, replace(cfg, n_trials=4))):
        alone = run_monte_carlo(config, traj, k_values=(k,))
        assert rows_at(result, k) == (alone.rmse_table.rows, alone.time_sweep)


def grid_records():
    """Two records on [-5, 5] s, then two on [-1, 1] s, of one trajectory.

    Its acceleration is scaled so that the accelerometer path's factor is
    negligible (s_min(F)^2 t_max^4 <= 1e-10 lambda_max(B0)) at t_max = 1 s
    and not at t_max = 5 s, with a factor of 25 to spare either way.
    """
    y0, y1, y2 = benchmark_trajectory().coeffs
    c = centering_matrix(y0.shape[1])
    lam0 = np.linalg.svd(y0 @ c, compute_uv=False)[0] ** 2
    s_min = np.linalg.svd(y2 @ c, compute_uv=False)[-1]
    traj = PolynomialTrajectory((y0, y1, y2 * np.sqrt(1e-10 * lam0) / (5.0 * s_min)))
    grids = [dict(k_samples=10), dict(k_samples=14, t_start=-1.0, t_end=1.0)]
    return [
        simulate_measurements(
            SimConfig(seed=s, sigma_a=0.0, accel_rotation_angle=0.5, **grid), traj
        )
        for grid in grids
        for s in (1, 2)
    ]


@pytest.mark.parametrize("method", ["distance", "accel"])
def test_a_finish_across_time_grids_equals_each_solo_estimate(method):
    records = grid_records()
    fit = harness._ESTIMATORS[method]
    fitted = join_fitted([fit(stack(records[:2])), fit(stack(records[2:]))])
    assert np.array_equal(fitted.t_max, [5.0, 5.0, 1.0, 1.0])
    batch = finish_batch(fitted)
    for i, record in enumerate(records):
        assert_same_estimate(batch.estimate(i), SINGLE[method](record))
    if method == "accel":
        # each record's own t_max decides the fallback
        negligible = [any("negligible" in w for w in notes) for notes in batch.warnings]
        assert negligible == [False, False, True, True]


def test_only_stacks_of_one_fit_join():
    records = benchmark_records(2)
    fits = [harness._ESTIMATORS[m](stack(records)) for m in ("distance", "accel")]
    with pytest.raises(InvalidDimensionError, match="joined"):
        join_fitted(fits)
