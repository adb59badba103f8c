from dataclasses import replace

import pytest
from workloads import WORKLOADS, Tally

import relkin
from relkin import cli, harness

ESTIMATOR_NAMES = ("estimate_from_distances", "estimate_with_accel")


def _scaled(estimator):
    """An estimator that is 1% off in scale: fast and wrong."""

    def wrong(meas, d=2):
        est = estimator(meas, d)
        return replace(est, y0=1.01 * est.y0, y1=1.01 * est.y1, y2=1.01 * est.y2)

    return wrong


def _swap_in_wrong_estimators(monkeypatch):
    for name in ESTIMATOR_NAMES:
        original = getattr(relkin, name)
        monkeypatch.setattr(relkin, name, _scaled(original))
        monkeypatch.setattr(cli, name, _scaled(original))
    for key, original in list(harness._ESTIMATORS.items()):
        monkeypatch.setitem(harness._ESTIMATORS, key, _scaled(original))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correct_estimators_pass_every_check(name, tmp_path):
    tally = Tally()
    WORKLOADS[name](4, tmp_path).trial(0, tally)
    assert tally.attempted > 0
    assert tally.failed == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_estimator_fails_every_estimate_op(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name](4, tmp_path)
    _swap_in_wrong_estimators(monkeypatch)
    tally = Tally()
    workload.trial(0, tally)
    # only the simulate ops pass; every estimate and every sweep trial fails
    assert len(tally.samples["simulate"]) > 0
    assert tally.failed == tally.attempted - len(tally.samples["simulate"])
    assert not tally.samples["distance"] and not tally.samples["accel"]
    assert not tally.samples["sweep"] and tally.paired_trials == 0
