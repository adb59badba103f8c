"""Shared helpers: random scenario generation and independent oracles."""

from math import factorial

import numpy as np
import pytest

import relkin.harness as harness
from relkin import EstimationError, PolynomialTrajectory, center_coefficients


def random_constant_accel_trajectory(
    rng, n=10, d=2, pos_scale=1000.0, vel_scale=10.0, acc_scale=1.0
):
    """Random constant-acceleration instance at desk-scale magnitudes."""
    coeffs = (
        rng.uniform(-pos_scale, pos_scale, (d, n)),
        rng.uniform(-vel_scale, vel_scale, (d, n)),
        rng.uniform(-acc_scale, acc_scale, (d, n)),
    )
    return PolynomialTrajectory(coeffs)


def gram_poly_blocks(traj, degree):
    """Brute-force Grammian polynomial coefficients from centered truth.

    Direct evaluation of B_l = sum_m Y_m^T Y_{l-m} / (m! (l-m)!), kept
    independent of the fitting code it is used to check.
    """
    centered = center_coefficients(traj)
    n = traj.n_nodes
    out = []
    for l in range(degree + 1):
        b = np.zeros((n, n))
        for m in range(l + 1):
            b += centered.coefficient(m).T @ centered.coefficient(l - m) / (
                factorial(m) * factorial(l - m)
            )
        out.append(b)
    return out


def poison_record(monkeypatch, pairs):
    """Make every harness method fail on the record whose pairs equal ``pairs``.

    The failure lands in that record's slot of the batch's ``errors``.
    """
    for method, estimator in list(harness._ESTIMATORS.items()):

        def injected(meas, d=2, estimator=estimator):
            batch = estimator(meas, d)
            if meas.pairs.shape[1:] == pairs.shape:
                for i in np.all(meas.pairs == pairs, axis=(1, 2)).nonzero()[0]:
                    batch.errors[i] = EstimationError("stage 'synthetic': poisoned record")
            return batch

        monkeypatch.setitem(harness._ESTIMATORS, method, injected)


def rel_err(actual, expected):
    denom = np.linalg.norm(expected)
    return np.linalg.norm(np.asarray(actual) - np.asarray(expected)) / max(denom, 1e-300)


def rotation_angle(r):
    """Signed angle of a proper planar rotation."""
    return float(np.arctan2(r[1, 0], r[0, 0]))


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
