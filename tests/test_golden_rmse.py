"""Golden RMSE table: the Monte-Carlo arithmetic, pinned in tier-1.

``data/rmse_seed42_trials200_k10_30.csv`` is the ``rmse.csv`` that
``relkin benchmark --seed 42 --trials 200 --k-sweep 10,30`` writes for the
bundled scenario: both methods, K = 10 and 30, all six blocks.  A change
that leaves the arithmetic alone moves an entry by round-off only, so an
in-process run of the same sweep must match every entry to 1e-9 relative.
A change that moves the tables on purpose re-records the file with that
command and logs the old-to-new ratios.
"""

import csv
from pathlib import Path

import pytest

from relkin import run_monte_carlo
from relkin.config import load_scenario

GOLDEN = Path(__file__).parent / "data" / "rmse_seed42_trials200_k10_30.csv"


def test_rmse_table_matches_the_golden_run():
    with GOLDEN.open(newline="", encoding="utf-8") as f:
        want = {(r["method"], int(r["k"]), r["block"]): float(r["rmse"]) for r in csv.DictReader(f)}
    assert len(want) == 2 * 2 * 6
    scenario = load_scenario(None, {"seed": "42", "n_trials": "200", "k_sweep": "10,30"})
    result = run_monte_carlo(scenario.sim, scenario.trajectory, k_values=scenario.k_sweep)
    assert result.failure_counts == {10: 0, 30: 0}
    got = {(r.method, r.k, r.block): r.rmse for r in result.rmse_table.rows}
    assert got == pytest.approx(want, rel=1e-9, abs=0)
