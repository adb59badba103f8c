"""The estimators' coefficient-space fit against the Grammian-space oracle.

Both estimators fit the EDM record first and double-center the coefficient
blocks afterwards.  Centering is linear, so the blocks must match centering
every EDM and fitting the Grammian series (``fit_gram_coeffs``), and on the
accelerometer path deflating that series (``deflate_grams`` +
``fit_deflated_coeffs``), up to round-off.  The reported residual is the
pair fit's own, so it is checked against a plain least-squares fit of the
pair series, deflated first on the accelerometer path.  The accelerometer
path deflates in coefficient space, so its fit is also checked against
the per-sample deflation it replaced.
"""

import numpy as np
import pytest

from relkin import (
    AccelCoefficients,
    MeasurementSet,
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
from relkin.accel_estimator import fit_with_accel
from relkin.distance_estimator import _double_center, _poly_lstsq
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


def record_stack(n, k, count):
    """``count`` records on one grid, of the seeds from 5 on."""
    records = [measurements(n, k, seed=seed) for seed in range(5, 5 + count)]
    return MeasurementSet(
        records[0].timestamps,
        np.stack([r.pairs for r in records]),
        np.stack([r.accels for r in records]),
    )


def per_sample_deflation(meas):
    """The deflation the fit replaced: fit pairs - t^4 w sample by sample, w = |a_i - a_j|^2 / 4."""
    t = meas.timestamps
    w = 0.25 * pairs_from_points(centered_accel(meas))
    return w, _poly_lstsq(t, meas.pairs - (t**4)[:, None] * w[..., None, :], 3)


@pytest.mark.parametrize("n,k,count", [(n, k, 1) for n, k in SHAPES] + [(10, 40, 7)])
def test_coefficient_space_deflation_matches_the_per_sample_deflation(n, k, count):
    meas = record_stack(n, k, count)
    w, (want_coeffs, want_res) = per_sample_deflation(meas)
    coeffs, res = _poly_lstsq(meas.timestamps, meas.pairs, 3, quartic=w)
    fit = fit_with_accel(meas)
    want_blocks = _double_center(want_coeffs, n)
    for i, pairs in enumerate(meas.pairs):
        assert rel_err(coeffs[i], want_coeffs[i]) <= 1e-12
        # the residual is a small difference of the record, so its round-off is the record's
        assert np.linalg.norm(res[i] - want_res[i]) <= 1e-12 * np.linalg.norm(pairs)
        # the fit runs at unit scale: block l comes back times 2^(2e - l f), its residual 4^e
        e, f = fit.exponent[i], np.frexp(fit.t_max[i])[1]
        blocks = np.stack([np.ldexp(b[i], 2 * e - l * f) for l, b in enumerate(fit.coeffs.blocks)])
        assert rel_err(blocks, want_blocks[i]) <= 1e-12
        want_residual = np.linalg.norm(want_res[i])
        residual = np.ldexp(fit.coeffs.residual[i], 2 * e)
        assert abs(residual - want_residual) <= 1e-12 * want_residual
