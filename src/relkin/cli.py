"""Command-line entry point tying simulation, estimation and benchmarking.

Subcommands:

- ``simulate``: write a measurement-set CSV bundle from a scenario config.
- ``estimate``: run the distance-only or accelerometer-fused estimator on
  a bundle and write the estimate CSV plus diagnostics.
- ``benchmark``: run the paired Monte-Carlo sweep and write the RMSE,
  time-sweep and per-K failure-count tables; it exits with status 1,
  after writing them, when more than 1% of any K's trials failed.

Output directory resolution: ``--output`` flag, else the
``RELKIN_OUTPUT_DIR`` environment variable, else ``./relkin_out``.
Override precedence: CLI flags beat the config file, which beats the
built-in defaults.

The argument parser is built once per process, on the first ``main``
call, and reused by every later call; each call still parses into a
fresh namespace, so no option carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

from . import bundle_io
from .accel_estimator import estimate_with_accel
from .config import load_scenario
from .distance_estimator import estimate_from_distances
from .errors import ConfigError, RelkinError
from .harness import run_monte_carlo
from .trajectory import simulate_measurements

__all__ = ["main"]

OUTPUT_ENV_VAR = "RELKIN_OUTPUT_DIR"
#: ``benchmark`` fails when more than this share of a K's trials fail
_MAX_FAILURE_RATE = 0.01


def _resolve_output(flag_value: Optional[str]) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_ENV_VAR)
    return Path(env) if env else Path("relkin_out")


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, value = (part.strip() for part in item.split("=", 1))
        overrides[key] = value
    # a flag beats a --set of the key it sets
    for flag, key in (("seed", "seed"), ("trials", "n_trials"), ("k_sweep", "k_sweep")):
        if getattr(args, flag, None) is not None:
            overrides[key] = str(getattr(args, flag))
    return overrides


def _cmd_simulate(args: argparse.Namespace) -> tuple[list[Path], int]:
    scenario = load_scenario(args.config, _collect_overrides(args))
    meas = simulate_measurements(scenario.sim, scenario.trajectory)
    return bundle_io.write_measurement_bundle(meas, _resolve_output(args.output)), 0


def _cmd_estimate(args: argparse.Namespace) -> tuple[list[Path], int]:
    meas = bundle_io.read_measurement_bundle(args.bundle)
    # the module globals are read per call, so a rebound estimator takes effect
    est = (estimate_with_accel if args.method == "accel" else estimate_from_distances)(meas)
    return bundle_io.write_estimate(est, _resolve_output(args.output)), 0


def _cmd_benchmark(args: argparse.Namespace) -> tuple[list[Path], int]:
    scenario = load_scenario(args.config, _collect_overrides(args))
    methods = (args.method,) if args.method else ("distance", "accel")
    result = run_monte_carlo(
        scenario.sim, scenario.trajectory, methods=methods, k_values=scenario.k_sweep
    )
    outdir = _resolve_output(args.output)
    written = []
    if result.rmse_table.rows:
        written += [
            bundle_io.write_rmse_table(result.rmse_table, outdir / bundle_io.RMSE_FILE),
            bundle_io.write_time_sweep(result.time_sweep, outdir / bundle_io.TIME_SWEEP_FILE),
        ]
    written.append(
        bundle_io.write_failure_counts(
            result.failure_counts, result.n_trials, outdir / bundle_io.FAILURES_FILE
        )
    )
    limit = _MAX_FAILURE_RATE * result.n_trials
    over = {k: f for k, f in result.failure_counts.items() if f > limit}
    for k, failures in over.items():
        print(
            f"error: {failures} of {result.n_trials} trials failed at K={k} "
            f"(threshold {_MAX_FAILURE_RATE:.0%}); results would not be trustworthy",
            file=sys.stderr,
        )
    return written, 1 if over else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relkin",
        description=(
            "Relative kinematics of a mobile node network from time-varying "
            "pairwise distances, with optional accelerometer fusion."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="scenario file (default: bundled scenario)")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any scenario key (repeatable)",
        )

    p_sim = sub.add_parser("simulate", help="write a measurement-set CSV bundle")
    add_scenario_flags(p_sim)
    p_sim.add_argument("--output", help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate relative kinematics from a bundle")
    p_est.add_argument("--bundle", required=True, help="directory holding the CSV bundle")
    p_est.add_argument(
        "--method",
        choices=("distance", "accel"),
        default="distance",
        help="estimator: pairwise distances only, or fused with accelerometers",
    )
    p_est.add_argument("--output", help="output directory")
    p_est.set_defaults(func=_cmd_estimate)

    p_bench = sub.add_parser("benchmark", help="run the paired Monte-Carlo sweep")
    add_scenario_flags(p_bench)
    p_bench.add_argument("--trials", type=int, help="override the Monte-Carlo trial count")
    p_bench.add_argument(
        "--k-sweep", dest="k_sweep", help="comma-separated sample-count sweep, e.g. 10,20,30"
    )
    p_bench.add_argument(
        "--method",
        choices=("distance", "accel"),
        help="restrict the benchmark to one method (default: both, paired)",
    )
    p_bench.add_argument("--output", help="output directory")
    p_bench.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        written, status = args.func(args)
        for path in written:
            print(path)
        return status
    except (OSError, RelkinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
