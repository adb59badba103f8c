"""The benchmark's four workloads, their inputs and their output checks.

Every workload is a closed loop with one caller.  Its unit of work is the
paired trial: one measurement set is simulated and then estimated by both
methods, each call timed on its own.  ``paper-mc`` also runs whole
Monte-Carlo sweeps, whose trials are paired inside the harness.  Inputs
derive from the benchmark seed alone.  Outputs are checked against the
ground truth outside the timed region, with the benchmark's own alignment
and distance arithmetic rather than the program's.

Each timed call runs between two runs of the calibration kernel, a fixed
computation of the benchmark's own.  A call's time is reported in reference
seconds: its wall time scaled by how much slower than ``CALIBRATION_REF_S``
the kernel ran around it.  Other tenants of a shared host slow the program
and the kernel alike, so the scaled time is steady where the wall time is
not.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import relkin
from relkin import bundle_io, cli, config

METHODS = ("distance", "accel")
_ESTIMATOR_NAMES = {"distance": "estimate_from_distances", "accel": "estimate_with_accel"}
BLOCKS = ("Y0", "Y1", "Y2")

SIGMA_D = 0.01
SIGMA_A = 0.001
ROTATION = math.pi / 6  # the bundled scenario's sensor-frame angle
#: a simulated distance or accelerometer reading may miss the truth by this
#: many noise standard deviations (a 1e-15 chance per reading)
NOISE_SIGMAS = 8.0

#: largest relative error ||aligned - truth|| / ||truth|| of the (Y0, Y1, Y2)
#: blocks that one estimate may have.  Each is 2 to 10 times the largest
#: error seen at the seed commit over 4000 paired trials (n = 10, K = 40),
#: 400 (long-record) or 300 seeds (wide-net).  The distance-only
#: acceleration at K = 40 is legitimately poor (errors up to 1.6), so its
#: bound only catches gross scale errors; Y0 and Y1 carry those checks.
TOLERANCE = {
    ("paper-mc", "distance"): (5e-5, 0.5, 3.0),
    ("paper-mc", "accel"): (5e-5, 0.1, 0.1),
    ("long-record", "distance"): (2e-5, 0.05, 0.5),
    ("long-record", "accel"): (2e-5, 0.03, 0.03),
    ("wide-net", "distance"): (2e-5, 0.02, 0.3),
    ("wide-net", "accel"): (2e-5, 0.02, 0.02),
}
TOLERANCE["cli-bundle", "distance"] = TOLERANCE["paper-mc", "distance"]
TOLERANCE["cli-bundle", "accel"] = TOLERANCE["paper-mc", "accel"]
#: largest RMSE (normalized as harness.rmse does) per (method, block) that a
#: paper-mc sweep of 5 trials may report at any K: five times the largest
#: seen at the seed commit over 400 sweeps, rounded up
SWEEP_TOLERANCE = {
    "distance": {"Y0": 0.008, "Y1": 1.0, "Y2": 0.7, "B0": 5.0, "B1": 3.0, "B2": 2.0},
    "accel": {"Y0": 0.006, "Y1": 0.2, "Y2": 0.01, "B0": 4.0, "B1": 3.0, "B2": 0.3},
}


#: the calibration kernel's wall time on an undisturbed vCPU of the reference
#: VM (2-vCPU "Intel(R) Xeon(R) Processor", numpy's OpenBLAS on one thread)
CALIBRATION_REF_S = 1.6e-3
_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = _CAL_RNG.random((10, 10))
_CAL_CENTER = np.eye(10) - 0.1
_CAL_UPPER = np.triu_indices(10)
_CAL_LARGE = _CAL_RNG.standard_normal((60, 60))
_CAL_SYM = _CAL_LARGE @ _CAL_LARGE.T


def calibration_s() -> float:
    """Wall time of the calibration kernel.

    Its two halves mirror the program's two kinds of work: many numpy calls
    on 10 x 10 arrays, whose cost is mostly interpreter and dispatch (the
    per-sample loops), and LAPACK factorizations of a 60 x 60 matrix (the
    MDS and SVD stages).
    """
    start = time.perf_counter()
    for _ in range(150):
        gram = -0.5 * (_CAL_CENTER @ _CAL_SMALL @ _CAL_CENTER)
        gram[_CAL_UPPER].sum()
    np.linalg.eigh(_CAL_SYM)
    np.linalg.svd(_CAL_LARGE)
    return time.perf_counter() - start


def sub_seed(seed: int, *keys: int) -> int:
    """Independent seed for one input of the run, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


# -- ground truth and checks, independent of the program's arithmetic ---------


def _centering(n: int) -> np.ndarray:
    return np.eye(n) - 1.0 / n


def _rotation(angle: float) -> np.ndarray:
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def truth_blocks(traj) -> list[np.ndarray]:
    """Mean-centered position, velocity and acceleration at t = 0."""
    c = _centering(traj.n_nodes)
    return [traj.coefficient(order) @ c for order in range(3)]


def check_measurements(ts, edms, accels, traj, k: int) -> bool:
    """Readings lie within the noise of the truth on the K + 1 point grid over [-5, 5] s."""
    n, d = traj.n_nodes, traj.dim
    grid = np.linspace(-5.0, 5.0, k + 1)
    if ts.shape != grid.shape or not np.allclose(ts, grid, rtol=0, atol=1e-12):
        return False
    if edms.shape != (k + 1, n, n) or accels is None or accels.shape != (k + 1, d, n):
        return False
    if not (np.all(np.isfinite(edms)) and np.all(np.isfinite(accels))):
        return False
    y0, y1, y2 = (traj.coefficient(order) for order in range(3))
    x = y0 + y1 * grid[:, None, None] + 0.5 * y2 * grid[:, None, None] ** 2
    diff = x[:, :, :, None] - x[:, :, None, :]
    dist = np.sqrt(np.einsum("kdij,kdij->kij", diff, diff))
    if np.any(edms < 0) or np.abs(np.sqrt(edms) - dist).max() > NOISE_SIGMAS * SIGMA_D:
        return False
    expected = _rotation(ROTATION) @ y2 @ _centering(n)
    return float(np.abs(accels - expected).max()) <= NOISE_SIGMAS * SIGMA_A


def aligned_errors(est, targets) -> Optional[list[float]]:
    """Squared Frobenius error per block after one shared orthogonal alignment.

    Returns None for a malformed estimate (wrong shape or non-finite).
    """
    if any(y.shape != t.shape or not np.all(np.isfinite(y)) for y, t in zip(est, targets)):
        return None
    u, _, vt = np.linalg.svd(np.hstack(targets) @ np.hstack(est).T)
    r = u @ vt
    return [float(np.sum((r @ y - t) ** 2)) for y, t in zip(est, targets)]


class Tally:
    """What one pass of a workload measured and checked.

    With ``calibrated``, the calibration kernel runs before every timed call
    and times are kept in reference seconds as well; without it, the
    reference seconds equal the wall seconds.
    """

    def __init__(self, tracer=None, calibrated: bool = False) -> None:
        self.tracer = tracer
        self.calibrated = calibrated
        #: (wall seconds, reference seconds) of every op that passed, per kind
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        #: paired trials per reference second, per paired trial called one
        #: by one, and per paper-mc sweep
        self.trial_rates: list[float] = []
        self.sweep_rates: list[float] = []
        self.paired_trials = 0
        self.attempted = 0
        self.failed = 0
        self.sq_errors: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.warnings: Counter[str] = Counter()
        self.failure_counts: Counter[int] = Counter()  # paper-mc, per K

    def timed(self, call: Callable):
        """(output, wall seconds, reference seconds) of one call into the program.

        The reference time scales the wall time by CALIBRATION_REF_S over the
        mean of the calibration kernel runs just before and just after.
        """
        before = calibration_s() if self.calibrated else None
        start = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - start
        if before is None:
            return out, seconds, seconds
        calibration = (before + calibration_s()) / 2
        return out, seconds, seconds * CALIBRATION_REF_S / calibration

    def paired(self, seconds: list[Optional[float]]) -> None:
        """Count a paired trial whose ops all passed, with its rate."""
        if None not in seconds:
            self.paired_trials += 1
            self.trial_rates.append(1.0 / sum(seconds))

    def rmse(self, method: str, block: int, n: int, d: int) -> float:
        errs = self.sq_errors[(method, block)]
        return math.sqrt(sum(errs) / len(errs)) / (n * d) if errs else math.nan


class Workload:
    """Set-up plus a loop of paired trials of the library on ``self.sim``.

    Subclasses set ``sim`` (and may replace the trajectory) or override
    ``trial``.
    """

    name = ""
    #: loop steps (paired trials, or a sweep plus probes) per traced pass
    trace_trials = 1
    #: loop steps of the fixed-seed accuracy fixture
    fixture_trials = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traj = relkin.benchmark_trajectory()
        self.targets = truth_blocks(self.traj)

    @property
    def shape(self) -> tuple[int, int]:
        return self.traj.n_nodes, self.traj.dim

    def warm_up(self) -> None:
        self.trial(-1, Tally())

    def rates(self, tally: Tally) -> list[float]:
        """The paired-trial rates that ``trials_per_s`` is taken from."""
        return tally.trial_rates

    def trial(self, index: int, tally: Tally) -> None:
        self._library_trial(tally, replace(self.sim, seed=sub_seed(self.seed, 1, index + 1)))

    def _op(self, tally: Tally, kind: str, call: Callable, check: Callable[[object], bool]):
        """Time one call into the program and check its output outside the timing.

        Returns (output, reference seconds), or (None, None) when the call
        raised a RelkinError or its output failed the check.
        """
        tally.attempted += 1
        if tally.tracer is not None:
            tally.tracer.begin_op(kind)
        try:
            out, seconds, ref_seconds = tally.timed(call)
        except relkin.RelkinError:
            tally.failed += 1
            return None, None
        if not check(out):
            tally.failed += 1
            return None, None
        tally.samples[kind].append((seconds, ref_seconds))
        return out, ref_seconds

    def _check_estimate(self, tally: Tally, method: str, blocks, n_warnings: int) -> bool:
        tally.warnings[method] += n_warnings
        errors = aligned_errors(blocks, self.targets)
        if errors is None:
            return False
        tolerance = TOLERANCE[self.name, method]
        ok = True
        for block, (err, target, tol) in enumerate(zip(errors, self.targets, tolerance)):
            tally.sq_errors[(method, block)].append(err)
            ok &= math.sqrt(err) <= tol * float(np.linalg.norm(target))
        return ok

    def _library_trial(self, tally: Tally, sim_config) -> None:
        """simulate_measurements, then both estimators on its output."""
        traj, k = self.traj, sim_config.k_samples
        meas, seconds = self._op(
            tally,
            "simulate",
            lambda: relkin.simulate_measurements(sim_config, traj),
            lambda m: check_measurements(m.timestamps, m.edms, m.accels, traj, k),
        )
        if meas is None:
            return
        times = [seconds]
        for method in METHODS:
            # looked up per call, so a tracer's rebinding is seen
            estimator = getattr(relkin, _ESTIMATOR_NAMES[method])
            _, seconds = self._op(
                tally,
                method,
                lambda: estimator(meas),
                lambda e: self._check_estimate(tally, method, (e.y0, e.y1, e.y2), len(e.warnings)),
            )
            times.append(seconds)
        tally.paired(times)


class LongRecord(Workload):
    """The bundled 10-node trajectory recorded at K = 500 on [-5, 5] s."""

    name = "long-record"
    trace_trials = 4
    fixture_trials = 10

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.sim = relkin.SimConfig(
            k_samples=500, sigma_d=SIGMA_D, sigma_a=SIGMA_A, accel_rotation_angle=ROTATION
        )


class WideNet(Workload):
    """100 nodes on a constant-acceleration trajectory drawn from the seed, K = 10."""

    name = "wide-net"
    trace_trials = 20
    fixture_trials = 20
    n_nodes = 100

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = np.random.default_rng(sub_seed(seed, 3))
        shape = (2, self.n_nodes)
        self.traj = relkin.PolynomialTrajectory(
            (
                rng.uniform(-1000.0, 1000.0, shape),
                rng.uniform(-10.0, 10.0, shape),
                rng.uniform(-1.0, 1.0, shape),
            )
        )
        self.targets = truth_blocks(self.traj)
        self.sim = relkin.SimConfig(
            n_nodes=self.n_nodes,
            k_samples=10,
            sigma_d=SIGMA_D,
            sigma_a=SIGMA_A,
            accel_rotation_angle=ROTATION,
        )


class PaperMc(Workload):
    """The bundled scenario's paired Monte-Carlo sweep, plus single paired trials.

    Each loop step runs one ``run_monte_carlo`` sweep of ``SWEEP_TRIALS``
    trials per K, then ``PROBES`` paired trials at K = 40 called one by one,
    which time the estimators outside the harness.  Small sweeps give many
    timing samples per run.  ``trials_per_s`` comes from the sweeps alone.
    After each sweep its tables are written through ``bundle_io``, untimed,
    as ``relkin benchmark`` writes them.
    """

    name = "paper-mc"
    SWEEP_TRIALS = 5
    PROBES = 3
    RMSE_K = 40
    TIME_GRID = 21  # points of run_monte_carlo's default time sweep
    trace_trials = 4
    fixture_trials = 10

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.scenario = config.load_scenario(None, {"n_trials": str(self.SWEEP_TRIALS)})
        self.probe = replace(self.scenario.sim, k_samples=self.RMSE_K)
        self.tables = (workdir / bundle_io.RMSE_FILE, workdir / bundle_io.TIME_SWEEP_FILE)

    def rates(self, tally: Tally) -> list[float]:
        return tally.sweep_rates

    def warm_up(self) -> None:
        self._sweep(-1, Tally(), n_trials=1)
        self._library_trial(Tally(), replace(self.probe, seed=sub_seed(self.seed, 0)))

    def trial(self, index: int, tally: Tally) -> None:
        self._sweep(index, tally, self.SWEEP_TRIALS)
        for probe in range(self.PROBES):
            seed = sub_seed(self.seed, 2, index + 1, probe)
            self._library_trial(tally, replace(self.probe, seed=seed))

    def _sweep(self, index: int, tally: Tally, n_trials: int) -> None:
        sim = replace(self.scenario.sim, seed=sub_seed(self.seed, 1, index + 1), n_trials=n_trials)
        k_values = self.scenario.k_sweep
        trials = n_trials * len(k_values)
        tally.attempted += trials
        if tally.tracer is not None:
            tally.tracer.begin_op("sweep")
        try:
            result, seconds, ref_seconds = tally.timed(
                lambda: relkin.run_monte_carlo(sim, self.scenario.trajectory, k_values=k_values)
            )
        except relkin.RelkinError:
            tally.failed += trials
            return
        bundle_io.write_rmse_table(result.rmse_table, self.tables[0])
        bundle_io.write_time_sweep(result.time_sweep, self.tables[1])
        if not self._check_sweep(result, k_values):
            tally.failed += trials
            return
        tally.samples["sweep"].append((seconds, ref_seconds))
        failures = sum(result.failure_counts.get(k, 0) for k in k_values)
        tally.failed += failures
        tally.failure_counts.update(result.failure_counts)
        tally.paired_trials += trials - failures
        tally.sweep_rates.append((trials - failures) / ref_seconds)
        n, d = self.shape
        kept = n_trials - result.failure_counts.get(self.RMSE_K, 0)
        for method in METHODS:
            for block, name in enumerate(BLOCKS):
                value = result.rmse_table.value(method, self.RMSE_K, name)
                # pool as mean squared error over the sweep's trials
                tally.sq_errors[(method, block)] += [(value * n * d) ** 2] * kept

    def _check_sweep(self, result, k_values) -> bool:
        """Every (method, K, block) row is present, finite and within tolerance,
        and both written tables hold one line per row plus a header."""
        written = [len(path.read_text(encoding="utf-8").splitlines()) for path in self.tables]
        if written != [len(result.rmse_table.rows) + 1, len(result.time_sweep) + 1]:
            return False
        rows = {(r.method, r.k, r.block): r.rmse for r in result.rmse_table.rows}
        for method, limits in SWEEP_TOLERANCE.items():
            for k in k_values:
                for block, limit in limits.items():
                    value = rows.get((method, k, block))
                    if value is None or not math.isfinite(value) or value > limit:
                        return False
        sweep = result.time_sweep
        complete = len(sweep) == 2 * len(k_values) * self.TIME_GRID
        return complete and all(math.isfinite(e.rmse) for e in sweep)


class CliBundle(Workload):
    """``relkin simulate`` then ``relkin estimate`` with each method, in-process."""

    name = "cli-bundle"
    K = 40  # the bundled scenario's sample count
    trace_trials = 20
    fixture_trials = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.bundle = workdir / "bundle"
        self.outputs = {method: workdir / method for method in METHODS}

    def trial(self, index: int, tally: Tally) -> None:
        seed = sub_seed(self.seed, 1, index + 1)
        for path in (self.bundle, *self.outputs.values()):
            shutil.rmtree(path, ignore_errors=True)
        argv = ["simulate", "--seed", str(seed), "--output", str(self.bundle)]
        rc, seconds = self._op(tally, "simulate", lambda: _quiet_main(argv), self._check_bundle)
        if rc is None:
            return
        times = [seconds]
        for method, outdir in self.outputs.items():
            argv = [
                "estimate", "--bundle", str(self.bundle), "--method", method,
                "--output", str(outdir),
            ]  # fmt: skip
            _, seconds = self._op(
                tally,
                method,
                lambda: _quiet_main(argv),
                lambda rc: rc == 0 and self._check_estimate_files(tally, method, outdir),
            )
            times.append(seconds)
        tally.paired(times)

    def _check_bundle(self, rc: int) -> bool:
        if rc != 0:
            return False
        n, d = self.shape
        ts = _read_csv(self.bundle / "timestamps.csv", 2)
        edm_rows = _read_csv(self.bundle / "edms.csv", 4)
        acc_rows = _read_csv(self.bundle / "accels.csv", 4)
        if ts is None or edm_rows is None or acc_rows is None:
            return False
        rows = self.K + 1
        if len(edm_rows) != rows * n * (n - 1) // 2 or len(acc_rows) != rows * n * d:
            return False
        edms = np.zeros((rows, n, n))
        accels = np.zeros((rows, d, n))
        try:
            k, i, j = (edm_rows[:, c].astype(int) for c in range(3))
            edms[k, i, j] = edms[k, j, i] = edm_rows[:, 3]
            k, node, axis = (acc_rows[:, c].astype(int) for c in range(3))
            accels[k, axis, node] = acc_rows[:, 3]
        except IndexError:
            return False
        return check_measurements(ts[np.argsort(ts[:, 0]), 1], edms, accels, self.traj, self.K)

    def _check_estimate_files(self, tally: Tally, method: str, outdir: Path) -> bool:
        n, d = self.shape
        blocks = {name: np.full((d, n), np.nan) for name in BLOCKS}
        try:
            with (outdir / "estimate.csv").open(encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    if row["block"] in blocks:
                        blocks[row["block"]][int(row["row"]), int(row["col"])] = float(row["value"])
            lines = (outdir / "diagnostics.txt").read_text(encoding="utf-8").splitlines()
        except (OSError, KeyError, ValueError, IndexError):
            return False
        n_warnings = sum(line.startswith("warning:") for line in lines)
        return self._check_estimate(tally, method, [blocks[b] for b in BLOCKS], n_warnings)


def _quiet_main(argv: list[str]) -> int:
    """``relkin`` CLI call with its listing of written files discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: Path, columns: int) -> Optional[np.ndarray]:
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None
    return rows if rows.shape[1] == columns else None


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperMc, LongRecord, WideNet, CliBundle)
}
