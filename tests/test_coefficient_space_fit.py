"""The estimators' coefficient-space fit against the Grammian-space oracle.

Both estimators fit the EDM record first and double-center the coefficient
blocks afterwards.  Centering is linear, so the blocks must match centering
every EDM and fitting the Grammian series (``fit_gram_coeffs``), and on the
accelerometer path deflating that series (``deflate_grams`` +
``fit_deflated_coeffs``), up to round-off.  The reported residual is the
pair fit's own, so it is checked against a plain least-squares fit of the
pair series, deflated first on the accelerometer path.
"""

import numpy as np
import pytest

from relkin import (
    AccelCoefficients,
    SimConfig,
    benchmark_trajectory,
    centering_matrix,
    deflate_grams,
    estimate_from_distances,
    estimate_with_accel,
    fit_accel_coeffs,
    fit_deflated_coeffs,
    fit_gram_coeffs,
    gram_from_edm,
    simulate_measurements,
    vech,
)
from relkin.linalg import pairs_from_points

from conftest import random_constant_accel_trajectory, rel_err

SHAPES = [(10, 40), (10, 500), (100, 10)]


def measurements(n, k, sigma_d=0.01, sigma_a=0.001, seed=5):
    if n == 10:
        traj = benchmark_trajectory()
    else:
        traj = random_constant_accel_trajectory(np.random.default_rng(seed), n=n)
    cfg = SimConfig(
        n_nodes=n,
        k_samples=k,
        sigma_d=sigma_d,
        sigma_a=sigma_a,
        seed=seed,
        accel_rotation_angle=0.5,
    )
    return simulate_measurements(cfg, traj)


def gram_series(meas):
    return np.stack([vech(gram_from_edm(e)) for e in meas.edms])


def pair_residual(meas, degree, accel=None):
    """Norm of the residual of ``np.linalg.lstsq`` on the pairs' Vandermonde design."""
    t, pairs = meas.timestamps, meas.pairs
    if accel is not None:
        pairs = pairs - np.outer(t**4, pairs_from_points(accel) / 4)
    design = np.vander(t, degree + 1, increasing=True)
    coeffs = np.linalg.lstsq(design, pairs, rcond=None)[0]
    return np.linalg.norm(design @ coeffs - pairs)


def distance_oracle(meas):
    return fit_gram_coeffs(gram_series(meas), meas.timestamps, degree=4)


def centered_accel(meas):
    return fit_accel_coeffs(meas.accels, meas.timestamps).block @ centering_matrix(meas.n_nodes)


def accel_oracle(meas):
    acc = AccelCoefficients(block=centered_accel(meas))
    deflated = deflate_grams(gram_series(meas), meas.timestamps, acc)
    return fit_deflated_coeffs(deflated, meas.timestamps)


def distance_pair_residual(meas):
    return pair_residual(meas, 4)


def accel_pair_residual(meas):
    return pair_residual(meas, 3, centered_accel(meas))


ESTIMATORS = {
    "distance": (estimate_from_distances, distance_oracle, distance_pair_residual),
    "accel": (estimate_with_accel, accel_oracle, accel_pair_residual),
}


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@pytest.mark.parametrize("n,k", SHAPES)
def test_matches_grammian_space_fit(method, n, k):
    estimate, oracle, residual = ESTIMATORS[method]
    meas = measurements(n, k)
    got = estimate(meas).coeffs
    want = oracle(meas)
    assert got.degree == want.degree
    for block, ref in zip(got.blocks, want.blocks):
        assert np.array_equal(block, block.T)
        assert rel_err(block, ref) <= 1e-9
    want_residual = residual(meas)
    assert abs(got.residual - want_residual) <= 1e-9 * want_residual


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@pytest.mark.parametrize("n,k", SHAPES)
def test_zero_noise_residual_stays_small(method, n, k):
    estimate, oracle, _ = ESTIMATORS[method]
    meas = measurements(n, k, sigma_d=0.0, sigma_a=0.0)
    assert estimate(meas).coeffs.residual <= 1e-6
    assert oracle(meas).residual <= 1e-6
