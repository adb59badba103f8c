"""Accelerometer fusion: deflate the distance model and jointly recover
velocity plus the fixed sensor-frame rotation.

Accelerometers pin down the quadratic trajectory coefficients up to one
common rotation.  Because squared distances only see rotation-invariant
inner products, the quartic term those coefficients predict can be taken
out of every pair's squared-distance series, lowering the polynomial
degree of the fit to 3.  The fit is linear, so that happens in
coefficient space: the pairs are fitted as they are and the fit of the
quartic term comes off their coefficients, with no deflated copy of the
record.  The coefficient blocks are then double-centered into Grammian
blocks, as on the distance-only path.  The
unknown rotation is solved jointly with the velocity by the solve the
distance-only path uses, with the same fallback rule: a sensor
acceleration that is negligible over the record (a static network),
rank deficient, or admits no solvable basis system leaves the velocity
at its minimum-norm completion and the rotation at identity, with a
warning.

Only the fit (:func:`fit_with_accel`) differs from the distance-only
path: it returns the same kind of ``FittedStack``, carrying the centered
sensor block as the acceleration factor, and the shared
``distance_estimator.finish_batch`` does the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance_estimator import (
    BatchEstimate,
    FittedStack,
    GrammianCoefficients,
    KinematicEstimate,
    _fit_input,
    _fitted_stack,
    _one_record,
    _poly_lstsq,
    _stage,
    _stage_error,
    finish_batch,
    fit_gram_coeffs,
)
from .errors import ConfigError, InvalidDimensionError
from .linalg import _norm_discarding, centering_matrix, vech
from .trajectory import MeasurementSet

__all__ = [
    "AccelCoefficients",
    "deflate_grams",
    "estimate_with_accel",
    "estimate_with_accel_batch",
    "fit_accel_coeffs",
    "fit_deflated_coeffs",
    "fit_with_accel",
]

@dataclass
class AccelCoefficients:
    """The acceleration coefficient fitted from accelerometer data.

    ``block`` is the (d, n) constant acceleration expressed in the sensor
    frame (a fixed unknown rotation of the true coefficient).  A stacked
    fit carries the leading axes on ``block`` and on ``residual``.
    """

    block: np.ndarray
    residual: float | np.ndarray = 0.0


def fit_accel_coeffs(accels, timestamps) -> AccelCoefficients:
    """Constant-acceleration fit of an accelerometer series, or of a stack of them.

    A constant-acceleration trajectory reads a constant in every sensor
    entry, so the fit is the per-entry time average: a degree-0
    polynomial fit sharing the grid's cached projector.
    """
    accels = np.asarray(accels, dtype=float)
    if accels.ndim < 3:
        raise InvalidDimensionError("accels must be (K+1, dim, n)")
    lead, (d, n) = accels.shape[:-2], accels.shape[-2:]
    coeffs, residual = _poly_lstsq(timestamps, accels.reshape(lead + (d * n,)), 0)
    block = coeffs[..., 0, :].reshape(lead[:-1] + (d, n))
    return AccelCoefficients(block=block, residual=_norm_discarding(residual))


def deflate_grams(gram_vecs, timestamps, acc: AccelCoefficients) -> np.ndarray:
    """Subtract the accelerometer-known quartic term from the Grammians.

    With A the acceleration block, the term vech(A^T A) * t^4 / 4 is
    removed; this inner product is invariant to the sensor rotation, so
    no frame knowledge is needed.  The deflated series is a cubic in time
    instead of a quartic.
    """
    gram_vecs = np.asarray(gram_vecs, dtype=float)
    t = np.asarray(timestamps, dtype=float).ravel()
    if gram_vecs.ndim != 2 or gram_vecs.shape[0] != t.size:
        raise InvalidDimensionError("gram_vecs must be (K+1, m) matching timestamps")
    return gram_vecs - np.outer(t**4, vech(acc.block.T @ acc.block) / 4)


def fit_deflated_coeffs(deflated_vecs, timestamps) -> GrammianCoefficients:
    """Degree-3 coefficient fit of a deflated Grammian series.

    In the constant-acceleration case the deflated blocks coincide with
    the low-order blocks of the full model, so this is the lower-variance
    replacement for the degree-4 fit.
    """
    return fit_gram_coeffs(deflated_vecs, timestamps, degree=3)


def fit_with_accel(meas: MeasurementSet, d: int = 2) -> FittedStack:
    """The accelerometer-fused fit of every record of ``meas`` (a stack, or one record).

    Steps: fit sensor-frame acceleration coefficients and center them,
    the acceleration factor; fit every pair's squared-distance series at
    degree 3 with its quartic term taken out in coefficient space, and
    double-center the coefficient blocks.
    ``distance_estimator.finish_batch`` then recovers the position factor
    by MDS and jointly solves for the velocity and the sensor-frame
    rotation.  Raises only for a cause that every record shares (the
    dimension, missing accelerometer data, fewer than four nodes, the
    time grid).  The fit runs at unit scale: each record's readings are
    multiplied by 2^(2f - e), with the exponents of its pairs and grid.

    At unit scale, readings that agree with the distances are of order
    one: |a_i - a_j| t_max^2 is bounded by a few of the largest distances.
    A record whose largest |reading| there passes 2^128 disagrees with its
    distances beyond any noise, and the deflation and the finish take
    squares of squares of it, which would leave float64; so does one
    whose 2^(2f - e) is past 2^1023, no float, while its readings are not
    all zero.  Either fails at ``coefficient-fit``, its readings fitted as
    zeros.  Readings below 2^-128 at unit scale are fitted as zeros too:
    they are negligible next to the distances, and the split would divide
    by them.
    """
    unit, exponent, t_max = _fit_input(meas, d)
    accels, n = unit.accels, unit.n_nodes
    if accels is None:
        raise ConfigError("accelerometer fusion needs accelerometer data in the bundle")
    if accels.shape[-2] != d:
        raise InvalidDimensionError(f"accelerometer data has {accels.shape[-2]} axes, not {d}")
    readings = accels.reshape(len(accels), -1, d * n)
    shift = 2 * np.frexp(t_max)[1] - exponent
    # the mantissa of an all-zero record is 0
    big = np.frexp(np.abs(readings).max(axis=(1, 2)))
    lost = (big[0] > 0.0) & ((big[1] + shift > 128) | (shift > 1023))
    overflow = InvalidDimensionError("readings past 2**128 at unit scale overflow the deflation")
    errors = [_stage_error("coefficient-fit", overflow) if x else None for x in lost]
    scale = np.ldexp(((big[0] > 0.0) & ~lost & (big[1] + shift > -128)).astype(float), shift)
    # the constant-acceleration fit of fit_accel_coeffs, of the scaled readings
    with _stage("accelerometer-fit"):
        coeffs, res = _poly_lstsq(unit.timestamps, readings, 0, scale=scale)
    # rebinding res frees the record-sized residual before the pair fit
    res = {"accel_fit": _norm_discarding(res)}
    # the true coefficients are mean centered; projecting the fit onto
    # centered matrices strips the noise component the model excludes
    factor = coeffs.reshape(-1, d, n) @ centering_matrix(n)
    return _fitted_stack(unit, exponent, t_max, 3, factor, res, errors)


def estimate_with_accel_batch(meas: MeasurementSet, d: int = 2) -> BatchEstimate:
    """Accelerometer-fused estimates of every record of ``meas`` (a stack, or one record).

    The finish of its fit: ``finish_batch(fit_with_accel(meas, d))``.
    Outputs of order >= 2 are the sensor-frame coefficients mapped
    through the recovered rotation, so all blocks share the position
    factor's frame.
    """
    return finish_batch(fit_with_accel(meas, d))


def estimate_with_accel(meas: MeasurementSet, d: int = 2) -> KinematicEstimate:
    """Recover relative kinematics from EDMs fused with accelerometer data.

    The batch of one of :func:`estimate_with_accel_batch`: ``meas`` holds
    one record, and a failed record raises its stage-labelled
    EstimationError.
    """
    return estimate_with_accel_batch(_one_record(meas), d).estimate(0)
