"""The estimators' coefficient-space fit against the Grammian-space oracle.

Both estimators fit the EDM record first and double-center the coefficient
blocks afterwards.  Centering is linear, so the result must match centering
every EDM and fitting the Grammian series (``fit_gram_coeffs``), and on the
accelerometer path deflating that series (``deflate_grams`` +
``fit_deflated_coeffs``), up to round-off.
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


def distance_oracle(meas):
    return fit_gram_coeffs(gram_series(meas), meas.timestamps, degree=4)


def accel_oracle(meas):
    raw = fit_accel_coeffs(meas.accels, meas.timestamps)
    c = centering_matrix(meas.n_nodes)
    acc = AccelCoefficients(blocks=[b @ c for b in raw.blocks])
    deflated = deflate_grams(gram_series(meas), meas.timestamps, acc)
    return fit_deflated_coeffs(deflated, meas.timestamps)


ESTIMATORS = {
    "distance": (estimate_from_distances, distance_oracle),
    "accel": (estimate_with_accel, accel_oracle),
}


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@pytest.mark.parametrize("n,k", SHAPES)
def test_matches_grammian_space_fit(method, n, k):
    estimate, oracle = ESTIMATORS[method]
    meas = measurements(n, k)
    got = estimate(meas).coeffs
    want = oracle(meas)
    assert got.degree == want.degree
    for block, ref in zip(got.blocks, want.blocks):
        assert np.array_equal(block, block.T)
        assert rel_err(block, ref) <= 1e-9
    assert abs(got.residual - want.residual) <= 1e-9 * want.residual


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
@pytest.mark.parametrize("n,k", SHAPES)
def test_zero_noise_residual_stays_small(method, n, k):
    estimate, oracle = ESTIMATORS[method]
    meas = measurements(n, k, sigma_d=0.0, sigma_a=0.0)
    assert estimate(meas).coeffs.residual <= 1e-6
    assert oracle(meas).residual <= 1e-6
