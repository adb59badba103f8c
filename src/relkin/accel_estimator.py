"""Accelerometer fusion: deflate the distance model and jointly recover
velocity plus the fixed sensor-frame rotation.

Accelerometers pin down the quadratic trajectory coefficients up to one
common rotation.  Because squared distances only see rotation-invariant
inner products, the quartic term those coefficients predict can be
subtracted from every pair's squared-distance series, lowering the
polynomial degree of the fit to 3; the coefficient blocks are then
double-centered into Grammian blocks, as on the distance-only path.  The
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
    finish_batch,
    fit_gram_coeffs,
)
from .distance_estimator import chu_decompose  # noqa: F401  (perfbench's tracer rebinds this copy)
from .errors import ConfigError, InvalidDimensionError
from .linalg import _norm, centering_matrix, vech
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
    return AccelCoefficients(block=block, residual=_norm(residual))


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
    the acceleration factor; deflate every pair's squared-distance series
    by its quartic term, fit it at degree 3 and double-center the
    coefficient blocks.  ``distance_estimator.finish_batch`` then
    recovers the position factor by MDS and jointly solves for the
    velocity and the sensor-frame rotation.  Raises only for a cause that
    every record shares (the dimension, missing accelerometer data, fewer
    than four nodes, the time grid).
    """
    meas = _fit_input(meas, d)
    if meas.accels is None:
        raise ConfigError("accelerometer fusion needs accelerometer data in the bundle")
    if meas.accels.shape[-2] != d:
        raise InvalidDimensionError(
            f"accelerometer data has {meas.accels.shape[-2]} axes, but dim = {d}"
        )
    with _stage("accelerometer-fit"):
        acc = fit_accel_coeffs(meas.accels, meas.timestamps)
    # the true coefficients are mean centered; projecting the fit onto
    # centered matrices strips the noise component the model excludes
    sensor_accel = acc.block @ centering_matrix(meas.n_nodes)
    return _fitted_stack(meas, 3, sensor_accel, {"accel_fit": acc.residual})


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
