"""Closed-loop benchmark of relkin: end-to-end metrics, or a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports its
per-layer metrics.  The line before it records the environment.  Run
records and spans go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy is first imported: the matrices are
# small, and a single thread keeps run-to-run spread low
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: set-up runs per measured run, spread over the measuring loop
SETUP_REPS = 7
#: calibration kernel runs before and after each set-up run
SETUP_CALIBRATIONS = 5
#: untimed calibration kernel runs before the measuring loop
CALIBRATION_WARM_UP = 20
#: a latency's p90 goes into the run record only with this many samples,
#: so that ten of them lie beyond it
P90_SAMPLES = 100
TRACE_PASSES = 3
#: the accuracy fixture's inputs do not depend on --seed, so its RMSE is
#: bit-identical from run to run while the program's arithmetic is unchanged
FIXTURE_SEED = 0
LATENCIES = ("distance", "accel", "simulate")
RMSE_UNITS = ("m", "m/s", "m/s2")


def _import_program():
    """Import relkin from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "relkin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no relkin sources under {src}")
    sys.path.insert(0, str(src))
    import relkin

    if Path(relkin.__file__).resolve().parent != src / "relkin":
        sys.exit(f"perfbench: imported relkin from {relkin.__file__}, not {src}")


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, queried from the library itself."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "relkin").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": _blas_threads(np),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _make_workload(name: str, seed: int, workdir: Path, warm_up: bool = True):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    if warm_up:
        workload.warm_up()
    return workload


def measure_setup(args) -> tuple[float, float]:
    """Wall and reference seconds from spawning a fresh process until it has set up.

    The reference time scales the wall time by the median of the calibration
    kernel runs made just before and just after.
    """
    from workloads import CALIBRATION_REF_S, calibration_s

    calibrations = [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]  # fmt: skip
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=150)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up process failed with exit code {code}")
    calibrations += [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
    return elapsed, elapsed * CALIBRATION_REF_S / statistics.median(calibrations)


def measure(workload, seconds: float, pause=None, pauses: int = 0):
    """Run loop steps until ``seconds`` have passed.

    ``pause`` is called ``pauses`` times, evenly spread over the loop's time
    but outside it, so that what it measures samples the same stretch of the
    host's load as the loop.

    The loop, and any process ``pause`` starts, runs on one CPU, so that the
    calibration kernel runs where the timed calls run.  Other tenants of the
    host slow each vCPU on its own.
    """
    from workloads import Tally, calibration_s

    tally = Tally(calibrated=True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    for _ in range(CALIBRATION_WARM_UP):
        calibration_s()
    start = time.perf_counter()
    index, paused, done = 0, 0.0, 0
    try:
        while True:
            elapsed = time.perf_counter() - start - paused
            if done < pauses and elapsed >= done * seconds / pauses:
                paused_at = time.perf_counter()
                pause()
                paused += time.perf_counter() - paused_at
                done += 1
            if elapsed >= seconds:
                return tally, elapsed
            workload.trial(index, tally)
            index += 1
    finally:
        os.sched_setaffinity(0, cpus)


def accuracy_fixture(name: str, workdir: Path):
    """The workload's loop steps on inputs from FIXTURE_SEED, untimed."""
    from workloads import Tally

    fixture = _make_workload(name, FIXTURE_SEED, workdir, warm_up=False)
    tally = Tally()
    for index in range(fixture.fixture_trials):
        fixture.trial(index, tally)
    return fixture, tally


def trials_per_s(workload, tally) -> float:
    """Median rate, in paired trials per reference second."""
    return statistics.median(workload.rates(tally))


def _ref_ms(samples: list[tuple[float, float]]) -> list[float]:
    return [ref * 1e3 for _, ref in samples]


def end_to_end(workload, tally, fixture, fixture_tally, setup_times: list[float]) -> dict:
    values = {
        "setup_s": ("s", statistics.median(setup_times)),
        "trials_per_ref_s": ("1/s", trials_per_s(workload, tally)),
    }
    for kind in LATENCIES:
        values[f"{kind}_p50_ref_ms"] = ("ms", statistics.median(_ref_ms(tally.samples[kind])))
    attempted = tally.attempted + fixture_tally.attempted
    values["ok_rate"] = ("ratio", 1.0 - (tally.failed + fixture_tally.failed) / attempted)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["peak_rss_mb"] = ("MB", rss_mb)
    n, d = fixture.shape
    for method in ("distance", "accel"):
        for block, unit in enumerate(RMSE_UNITS):
            value = fixture_tally.rmse(method, block, n, d)
            values[f"rmse_y{block}_{method}"] = (unit, value)
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def latency_record(tally) -> dict:
    """Sample count, wall and reference medians, and (given P90_SAMPLES) the
    reference p90 in ms of every op kind."""
    record = {}
    for kind, samples in tally.samples.items():
        ref_ms = _ref_ms(samples)
        record[kind] = {
            "samples": len(samples),
            "p50_ms": statistics.median(s for s, _ in samples) * 1e3,
            "p50_ref_ms": statistics.median(ref_ms),
        }
        if len(samples) >= P90_SAMPLES:
            record[kind]["p90_ref_ms"] = _percentile(ref_ms, 90)
    return record


def traced(workload):
    """Alternate untraced and traced passes over the same paired trials.

    The overhead ratio compares the fastest pass of each kind, which is
    the one least disturbed by other tenants of the host.
    """
    from tracer import Tracer
    from workloads import Tally

    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    tallies = []
    for _ in range(TRACE_PASSES):
        for on in (False, True):
            tally = Tally(tracer if on else None)
            if on:
                tracer.install()
            start = time.perf_counter()
            try:
                for index in range(workload.trace_trials):
                    workload.trial(index, tally)
            finally:
                walls[on].append(time.perf_counter() - start)
                tracer.uninstall()
            tallies.append(tally)
    traced_tallies = tallies[1::2]
    n_ops = sum(t.paired_trials for t in traced_tallies)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in tracer.layer_metrics(max(n_ops, 1)).items()
    }
    overhead = min(walls[True]) / min(walls[False])
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return tracer, tallies, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_name = f"{args.workload}-seed{args.seed}"
    workdir = OUT / "work" / f"{run_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _make_workload(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        workload = _make_workload(args.workload, args.seed, workdir)
        record = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
        if args.trace:
            tracer, tallies, metrics = traced(workload)
            tracer.write_jsonl(OUT / f"{run_name}-spans.jsonl")
        else:
            setups: list[tuple[float, float]] = []
            tally, elapsed = measure(
                workload, args.seconds, lambda: setups.append(measure_setup(args)), SETUP_REPS
            )
            fixture, fixture_tally = accuracy_fixture(args.workload, workdir)
            tallies = [tally, fixture_tally]
            metrics = end_to_end(workload, tally, fixture, fixture_tally, [r for _, r in setups])
            record.update(
                measured_s=elapsed,
                setup_wall_s=[s for s, _ in setups],
                setup_ref_s=[r for _, r in setups],
                latency=latency_record(tally),
                paired_trials=tally.paired_trials,
                warnings=dict(tally.warnings),
                failure_counts={str(k): v for k, v in sorted(tally.failure_counts.items())},
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    (OUT / f"{run_name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": record["env"], "latency": record.get("latency")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
