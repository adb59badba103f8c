import time

import pytest
import workloads
from run import measure, trials_per_s
from workloads import CALIBRATION_REF_S, PaperMc, Tally

from relkin import harness

SECONDS = 2.0
ALIGN_DELAY_S = 0.003


def _paper_mc_trials_per_s(tmp_path) -> float:
    workload = PaperMc(5, tmp_path)
    workload.warm_up()
    tally, _ = measure(workload, SECONDS)
    assert tally.failed == 0
    return trials_per_s(workload, tally)


def test_slower_harness_step_lowers_paper_mc_trials_per_s(tmp_path, monkeypatch):
    # two align_to_truth calls per paired trial of a sweep, each 3 ms
    # slower: about as long again as the trial itself.  The probe trials
    # at K = 40 do not align, so a rate that mixed them in would barely move.
    base = _paper_mc_trials_per_s(tmp_path)
    align = harness.align_to_truth

    def slow_align(*args, **kwargs):
        time.sleep(ALIGN_DELAY_S)
        return align(*args, **kwargs)

    monkeypatch.setattr(harness, "align_to_truth", slow_align)
    slowed = _paper_mc_trials_per_s(tmp_path)
    assert slowed < 0.75 * base


def test_reference_time_scales_wall_time_by_the_calibration_around_the_call(monkeypatch):
    # a host twice as slow: the kernel takes 2 and then 4 reference times
    kernel_times = iter([2 * CALIBRATION_REF_S, 4 * CALIBRATION_REF_S])
    monkeypatch.setattr(workloads, "calibration_s", lambda: next(kernel_times))
    out, seconds, ref_seconds = Tally(calibrated=True).timed(lambda: time.sleep(0.01) or 7)
    assert out == 7
    assert ref_seconds == pytest.approx(seconds / 3)
    _, seconds, ref_seconds = Tally().timed(lambda: None)
    assert ref_seconds == seconds
