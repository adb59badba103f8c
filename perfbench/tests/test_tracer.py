import json
from collections import Counter
from pathlib import Path

from run import traced
from tracer import ESTIMATORS, TRACED, Span, Tracer, self_times_ns
from workloads import LongRecord, PaperMc, Tally, WideNet

import relkin
from relkin import accel_estimator, cli, distance_estimator, harness, linalg, trajectory

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("b", 30, 50, 0, 0),  # overlaps a: together they cover 10..50
        Span("c", 90, 120, 0, 0),  # only 90..100 lies inside root
        Span("a.child", 15, 25, 1, 0),
    ]
    assert self_times_ns(spans) == [50, 20, 20, 30, 10]


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("child", 10, 60, 0, 0),
        Span("grandchild", 20, 50, 1, 0),
        Span("sibling", 70, 80, 0, 0),
    ]
    own = self_times_ns(spans)
    assert own == [40, 20, 30, 10]
    assert sum(own) == 100


def _references():
    """Module attributes that hold a traced function, including imported copies."""
    holders = [(relkin, "vech"), (linalg, "vech"), (distance_estimator, "vech")]
    holders += [(accel_estimator, "vech"), (harness, "vech"), (accel_estimator, "chu_decompose")]
    holders += [(harness, "estimate_from_distances"), (harness, "simulate_measurements")]
    holders += [(cli, name) for name in ("estimate_with_accel", "load_scenario", "main")]
    holders += [(cli, "run_monte_carlo"), (cli, "simulate_measurements")]
    return holders


def test_install_rebinds_every_reference_and_uninstall_restores_them():
    holders = _references()
    before = [getattr(module, name) for module, name in holders]
    estimators = dict(harness._ESTIMATORS)
    post_init = trajectory.MeasurementSet.__dict__["__post_init__"]
    tracer = Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(holders, before):
            assert getattr(module, name).__wrapped__ is original, (module.__name__, name)
        for key, original in estimators.items():
            assert harness._ESTIMATORS[key].__wrapped__ is original
        assert trajectory.MeasurementSet.__dict__["__post_init__"].__wrapped__ is post_init
    finally:
        tracer.uninstall()
    assert all(getattr(m, n) is f for (m, n), f in zip(holders, before))
    assert all(harness._ESTIMATORS[k] is f for k, f in estimators.items())
    assert trajectory.MeasurementSet.__dict__["__post_init__"] is post_init


def _trace(workload, run):
    tracer = Tracer()
    tally = Tally(tracer)
    tracer.install()
    try:
        run(tally)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    return tracer, tally


def _calls_in_op(tracer, kind):
    op = tracer.op_kinds.index(kind)
    return Counter(span.name for span in tracer.spans if span.op == op)


def test_traced_long_record_distance_estimate_counts(tmp_path):
    workload = LongRecord(1, tmp_path)
    tracer, _ = _trace(workload, lambda tally: workload.trial(0, tally))
    distance = _calls_in_op(tracer, "distance")
    assert distance["linalg.vech"] == 501
    assert distance["linalg.gram_from_edm"] == 501
    assert distance["distance_estimator.chu_decompose"] == 3
    assert distance["distance_estimator.build_and_solve_basis"] == 2
    simulate = _calls_in_op(tracer, "simulate")
    assert simulate["trajectory.eval_kinematics"] == 2 * 501


def test_traced_paper_mc_sweep_has_two_estimator_spans_per_successful_trial(tmp_path):
    workload = PaperMc(1, tmp_path)
    tracer, tally = _trace(workload, lambda tally: workload._sweep(0, tally, n_trials=2))
    sweep = tracer.op_kinds.index("sweep")
    (root,) = [i for i, s in enumerate(tracer.spans) if s.name == "harness.run_monte_carlo"]
    estimates = [
        s for s in tracer.spans if s.op == sweep and s.name in ESTIMATORS and s.error is None
    ]
    assert tally.paired_trials == 2 * len(workload.scenario.k_sweep)
    assert len(estimates) == 2 * tally.paired_trials
    assert all(s.parent == root for s in estimates)


def test_traced_run_reports_every_per_layer_metric_and_counts_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(WideNet, "trace_trials", 2)
    first = traced(WideNet(3, tmp_path))[2]
    second = traced(WideNet(3, tmp_path))[2]
    declared = {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    assert set(first) == declared
    expected = {f"{module}.{name}.calls" for module, names in TRACED.items() for name in names}
    counts = {k for k in first if k.endswith((".calls", "warnings_per_op", ".errors", "ratio"))}
    assert expected <= counts
    counts.discard("trace.overhead_ratio")
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["distance_estimator.build_and_solve_basis.useful_ratio"]["value"] == 0.5
    assert first["trace.overhead_ratio"]["value"] > 0

