"""The value-keyed record the simulator keeps from one simulation to the next.

``simulate_measurements`` takes the seed-free part of a simulation from
``trajectory._simulation_record``, which keeps the last noise-free record,
keyed by the values of the trajectory and of the grid.  These tests pin
that a repeated simulation only draws its noise, that an edited or an
equal trajectory gets the right record, that keys keep apart what must
differ, that no caller can write into the kept arrays, and that neither
the simulator nor the Monte-Carlo harness keeps more than one record.
"""

import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import relkin.harness as harness
import relkin.trajectory as trajectory
from relkin import (
    ConfigError,
    PolynomialTrajectory,
    SimConfig,
    benchmark_trajectory,
    eval_kinematics,
    run_monte_carlo,
    simulate_measurements,
)
from relkin.linalg import pairs_from_points

from conftest import random_constant_accel_trajectory


@pytest.fixture
def calls(monkeypatch):
    """Empty the kept record, then count the truth evaluations and pair gathers."""
    monkeypatch.setattr(trajectory, "_last_record", None)
    counts = {"eval_kinematics": 0, "pairs_from_points": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(trajectory, "eval_kinematics", counted("eval_kinematics", eval_kinematics))
    monkeypatch.setattr(
        trajectory, "pairs_from_points", counted("pairs_from_points", pairs_from_points)
    )
    return counts


def cold(config, traj):
    """``simulate_measurements`` with no record kept, on a copy of ``traj``."""
    trajectory._last_record = None
    return simulate_measurements(config, PolynomialTrajectory(tuple(c.copy() for c in traj.coeffs)))


def assert_same(got, want):
    for name in ("timestamps", "pairs", "accels", "q_true"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_a_second_seed_reuses_the_record(calls):
    config, traj = SimConfig(seed=1, accel_rotation_angle=0.3), benchmark_trajectory()
    first = simulate_measurements(config, traj)
    assert calls == {"eval_kinematics": 2, "pairs_from_points": 1}
    second = simulate_measurements(replace(config, seed=2, sigma_d=0.5, sigma_a=0.2), traj)
    assert calls == {"eval_kinematics": 2, "pairs_from_points": 1}
    assert not np.array_equal(first.pairs, second.pairs)
    assert_same(second, cold(replace(config, seed=2, sigma_d=0.5, sigma_a=0.2), traj))


def test_an_in_place_edit_gives_a_fresh_record_and_equal_values_hit(calls):
    config, traj = SimConfig(seed=4), benchmark_trajectory()
    before = simulate_measurements(config, traj)
    # the trajectory's arrays are the caller's, so an edit in place changes the truth
    traj.coeffs[0][1, 3] += 25.0
    edited = simulate_measurements(config, traj)
    assert calls["pairs_from_points"] == 2
    assert not np.array_equal(edited.pairs, before.pairs)
    # an equal trajectory built from other arrays hits the edited record
    equal = PolynomialTrajectory(tuple(c.copy() for c in traj.coeffs))
    assert equal == traj and equal is not traj
    again = simulate_measurements(config, equal)
    assert calls["pairs_from_points"] == 2
    assert_same(again, edited)
    assert_same(edited, cold(config, traj))


@pytest.mark.parametrize(
    "first,second",
    [
        ({"t_start": 0.0, "t_end": 4.0}, {"t_start": -0.0, "t_end": 4.0}),
        ({"sigma_d": 0.0}, {"sigma_d": 0.01}),
        ({"accel_rotation_angle": 0.0}, {"accel_rotation_angle": -0.0}),
    ],
    ids=["t_start-signed-zero", "distance-noise", "angle-signed-zero"],
)
def test_keys_keep_apart_what_differs(calls, first, second):
    traj = benchmark_trajectory()
    configs = [SimConfig(**fields) for fields in (first, second)]
    records = [trajectory._simulation_record(config, traj) for config in configs]
    assert records[0] is not records[1]
    assert calls["pairs_from_points"] == 2
    assert trajectory._simulation_record(configs[1], traj) is records[1]
    assert calls["pairs_from_points"] == 2
    # each configuration gets the record that a fresh evaluation gives
    for config in configs:
        assert_same(simulate_measurements(config, traj), cold(config, traj))


def test_a_config_of_another_shape_is_rejected_after_a_hit(calls):
    traj = benchmark_trajectory()
    simulate_measurements(SimConfig(), traj)
    with pytest.raises(ConfigError, match="does not match"):
        simulate_measurements(SimConfig(n_nodes=12), traj)
    # a (3, n) trajectory of the configured node count is no planar scene
    spatial = PolynomialTrajectory(tuple(np.vstack([c, c[:1]]) for c in traj.coeffs))
    with pytest.raises(ConfigError, match="does not match"):
        simulate_measurements(SimConfig(), spatial)


def test_a_record_without_distance_noise_holds_the_squared_distances(calls):
    traj = benchmark_trajectory()
    exact = trajectory._noiseless_record(SimConfig(sigma_d=0.0), traj)
    noisy = trajectory._noiseless_record(SimConfig(sigma_d=0.01), traj)
    want = pairs_from_points(eval_kinematics(traj, exact.timestamps, 0))
    assert np.array_equal(exact.pairs, want)
    assert np.array_equal(noisy.pairs, np.sqrt(want))
    assert np.array_equal(simulate_measurements(SimConfig(sigma_d=0.0), traj).pairs, want)


def test_kept_arrays_are_read_only_and_never_handed_out(calls):
    config, traj = SimConfig(seed=3, accel_rotation_angle=0.7), benchmark_trajectory()
    record = trajectory._simulation_record(config, traj)
    for array in record:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    meas = simulate_measurements(config, traj)
    _, stack = harness._simulate_chunk(config, record, range(3))
    outputs = [meas.timestamps, meas.pairs, meas.accels, meas.q_true]
    outputs += [stack.timestamps, stack.pairs, stack.accels]
    for out in outputs:
        assert out.flags.writeable
        assert not any(np.shares_memory(out, array) for array in record)
    # writing into what a call returned leaves the next call unchanged
    want = simulate_measurements(config, traj)
    for out in outputs:
        out[...] = np.nan
    assert_same(simulate_measurements(config, traj), want)


def test_only_the_last_record_is_kept(calls):
    traj = benchmark_trajectory()
    for k in range(10, 16):
        simulate_measurements(SimConfig(k_samples=k), traj)
    assert calls["pairs_from_points"] == 6
    simulate_measurements(SimConfig(k_samples=15, seed=9), traj)
    assert calls["pairs_from_points"] == 6
    simulate_measurements(SimConfig(k_samples=10), traj)
    assert calls["pairs_from_points"] == 7


def test_a_sweep_leaves_the_kept_record_alone(calls):
    config, truth, k_values = SimConfig(n_trials=6, seed=11), benchmark_trajectory(), (10, 20)
    simulate_measurements(replace(config, k_samples=20), truth)
    kept = trajectory._last_record
    first = run_monte_carlo(config, truth, k_values=k_values)
    second = run_monte_carlo(config, truth, k_values=k_values)
    # each sweep evaluates the truth once per K, and the simulator's record stays
    assert calls["eval_kinematics"] == 2 + 2 * 2 * len(k_values)
    assert trajectory._last_record is kept
    assert second.rmse_table.rows == first.rmse_table.rows
    assert second.time_sweep == first.time_sweep
    assert second.failure_counts == first.failure_counts == {10: 0, 20: 0}


def retained(call) -> int:
    """Bytes still held after ``call`` returns, beyond what was held before it.

    A first untraced call fills the per-grid caches (index maps,
    projectors), and the simulator's kept record is dropped before the
    traced call, so that only what the call itself leaves behind counts.
    """
    call()
    trajectory._last_record = None
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_k_sweep_keeps_no_more_than_its_largest_record():
    # a count, not a timing: a sweep over K leaves no record behind, and a
    # loop of simulations over K keeps the last one only, which is never
    # larger than the largest (at n = 30, K = 200 a record is 0.8 MB)
    n, k_values = 30, (200, 100, 50, 10)
    traj = random_constant_accel_trajectory(np.random.default_rng(5), n=n)
    config = SimConfig(n_nodes=n, n_trials=2, seed=5)
    sizes = [
        sum(a.nbytes for a in trajectory._noiseless_record(replace(config, k_samples=k), traj))
        for k in k_values
    ]

    def loop():
        for k in k_values:
            simulate_measurements(replace(config, k_samples=k), traj)

    assert retained(lambda: run_monte_carlo(config, traj, k_values=k_values)) < min(sizes) / 2
    assert retained(loop) <= max(sizes)


def test_threads_each_get_the_record_of_their_own_key():
    # simulations of different grids from several threads replace the one kept
    # record over and over; each must still get its own grid's record
    traj = benchmark_trajectory()
    configs = [SimConfig(k_samples=k, seed=k) for k in range(10, 16)]
    want = {config.k_samples: cold(config, traj) for config in configs}
    wrong = []

    def worker(config):
        for _ in range(40):
            got = simulate_measurements(config, traj)
            if not all(
                np.array_equal(getattr(got, name), getattr(want[config.k_samples], name))
                for name in ("timestamps", "pairs", "accels", "q_true")
            ):
                wrong.append(config.k_samples)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(config,)) for config in configs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
