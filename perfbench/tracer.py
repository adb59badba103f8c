"""Span tracer that times calls into relkin's public functions from outside.

``Tracer.install`` swaps every reference to each traced function for a
timing wrapper: the attribute of the module that defines it, the copies that
other modules (and the package namespace) imported by name, and function
references held in module-level dicts such as the harness's estimator
table.  Methods named ``Class.method`` are wrapped on the class.
``Tracer.uninstall`` puts the originals back.  Spans stay in memory until
``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

#: the public functions traced per module of ``src/relkin``
TRACED: dict[str, tuple[str, ...]] = {
    "trajectory": ("simulate_measurements", "eval_kinematics", "MeasurementSet.__post_init__"),
    "linalg": (
        "gram_from_edm",
        "vech",
        "unvech",
        "classical_mds",
        "orthogonal_procrustes",
        "centering_matrix",
    ),
    "distance_estimator": (
        "estimate_from_distances",
        "fit_gram_coeffs",
        "recover_position_acceleration",
        "chu_decompose",
        "build_and_solve_basis",
        "recover_velocity",
    ),
    "accel_estimator": (
        "estimate_with_accel",
        "fit_accel_coeffs",
        "deflate_grams",
        "fit_deflated_coeffs",
    ),
    "harness": ("run_monte_carlo", "align_to_truth", "rmse"),
    "bundle_io": (
        "read_measurement_bundle",
        "write_measurement_bundle",
        "write_estimate",
        "write_rmse_table",
        "write_time_sweep",
    ),
    "config": ("load_scenario",),
    "cli": ("main",),
}

ESTIMATORS = {
    "distance_estimator.estimate_from_distances": "distance_estimator",
    "accel_estimator.estimate_with_accel": "accel_estimator",
}


@dataclass(slots=True)
class Span:
    """One traced call; times are ``perf_counter_ns`` readings."""

    name: str
    start: int
    end: int
    parent: int  # index of the enclosing span, -1 for a span opened by the benchmark
    op: int  # benchmark op that caused the call
    error: Optional[str] = None  # exception type name when the call raised


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        clipped = [
            (max(spans[k].start, span.start), min(spans[k].end, span.end)) for k in kids
        ]
        covered = _covered_ns([(lo, hi) for lo, hi in clipped if hi > lo])
        out.append(span.end - span.start - covered)
    return out


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).is_file())


class Tracer:
    """Records a span per call into a traced function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.op_kinds: list[str] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def begin_op(self, kind: str) -> None:
        """Attribute the spans that follow to a new benchmark op."""
        self.op = len(self.op_kinds)
        self.op_kinds.append(kind)

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, Callable] = {}
        observers = self._observers()
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"relkin.{module_name}")
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
                key = f"{module_name}.{name}"
                wrapper = self._wrap(key, original, observers.get(key))
                if owner_name:
                    self._set_attr(owner, attr, wrapper)
                else:
                    wrappers[id(original)] = wrapper
        # every module-level name, and every module-level dict entry, that
        # refers to a traced function is pointed at its wrapper
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "relkin"]
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._set_attr(module, key, wrappers[id(value)])
                elif isinstance(value, dict) and key != "__builtins__":
                    for item_key, item in list(value.items()):
                        if id(item) in wrappers and callable(item):
                            self._set_item(value, item_key, wrappers[id(item)])

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _set_attr(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _set_item(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counters read from arguments and results, outside the span --------

    def _observers(self) -> dict[str, Callable]:
        counters = self.counters

        def estimate(module: str):
            def observe(args, est):
                counters[f"{module}.warnings"] += len(est.warnings)
                counters["basis_used"] += math.isfinite(est.residuals.get("basis", math.nan))

            return observe

        def read(args, _result):
            counters["bundle_io.bytes_read"] += _file_bytes(Path(args[0]).glob("*.csv"))

        def written(args, result):
            paths = result if isinstance(result, list) else [result]
            counters["bundle_io.bytes_written"] += _file_bytes(paths)

        observers = {name: estimate(module) for name, module in ESTIMATORS.items()}
        observers["bundle_io.read_measurement_bundle"] = read
        for name in TRACED["bundle_io"]:
            if name.startswith("write_"):
                observers[f"bundle_io.{name}"] = written
        return observers

    # -- results -----------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op calls and self time per function and module, plus counters."""
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        errors: Counter[str] = Counter()
        for span, own in zip(self.spans, self_times_ns(self.spans)):
            calls[span.name] += 1
            self_ns[span.name] += own
            if span.error is not None and span.name in ESTIMATORS:
                errors[ESTIMATORS[span.name]] += 1
        out: dict[str, tuple[float, str]] = {}
        for module, names in TRACED.items():
            module_ns = 0
            for name in names:
                key = f"{module}.{name}"
                out[f"{key}.calls"] = (calls[key] / n_ops, "calls/op")
                out[f"{key}.self_ms"] = (self_ns[key] / 1e6 / n_ops, "ms/op")
                module_ns += self_ns[key]
            out[f"{module}.self_ms"] = (module_ns / 1e6 / n_ops, "ms/op")
        for module in ESTIMATORS.values():
            out[f"{module}.errors"] = (errors[module] / n_ops, "errors/op")
            out[f"{module}.warnings_per_op"] = (
                self.counters[f"{module}.warnings"] / n_ops,
                "warnings/op",
            )
        solves = calls["distance_estimator.build_and_solve_basis"]
        out["distance_estimator.build_and_solve_basis.useful_ratio"] = (
            self.counters["basis_used"] / solves if solves else 0.0,
            "ratio",
        )
        for key in ("bundle_io.bytes_read", "bundle_io.bytes_written"):
            out[key] = (self.counters[key] / n_ops, "bytes/op")
        return out

    def write_jsonl(self, path: Path) -> None:
        """One JSON header line naming the fields, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            header = {"fields": list(Span.__slots__), "op_kinds": self.op_kinds}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps([getattr(span, f) for f in Span.__slots__]) + "\n")
