"""Accelerometer fusion: deflate the distance model and jointly recover
velocity plus the fixed sensor-frame rotation.

Accelerometers pin down the quadratic trajectory coefficients up to one
common rotation.  Because squared distances only see rotation-invariant
inner products, the quartic term those coefficients predict can be
subtracted from every pair's squared-distance series, lowering the
polynomial degree of the fit to 3; the coefficient blocks are then
double-centered into Grammian blocks, as on the distance-only path.  The
unknown rotation is solved jointly with the velocity through the same
coupled-equation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .distance_estimator import (
    GrammianCoefficients,
    KinematicEstimate,
    _fallback_velocity,
    _fit_edm_coeffs,
    _poly_lstsq,
    _solve_rotation_velocity,
    _stage,
    chu_decompose,
    fit_gram_coeffs,
)
from .errors import ConfigError, DegenerateGeometryError, InvalidDimensionError
from .linalg import centering_matrix, classical_mds, vech
from .trajectory import MeasurementSet

__all__ = [
    "AccelCoefficients",
    "deflate_grams",
    "estimate_with_accel",
    "fit_accel_coeffs",
    "fit_deflated_coeffs",
]


@dataclass
class AccelCoefficients:
    """Trajectory coefficients of order >= 2 fitted from accelerometer data.

    ``blocks[i]`` estimates the coefficient of derivative order ``2 + i``,
    expressed in the sensor frame (a fixed unknown rotation of the true
    coefficients).
    """

    blocks: list[np.ndarray]
    residual: float = 0.0

    @property
    def order(self) -> int:
        """Highest trajectory derivative order covered by the fit."""
        return 1 + len(self.blocks)


def fit_accel_coeffs(accels, timestamps, order: int = 2) -> AccelCoefficients:
    """Per-entry polynomial fit of an accelerometer series.

    An order-``order`` trajectory has acceleration polynomial of degree
    ``order - 2`` in time, so for the constant-acceleration case the fit
    reduces to the per-entry time average.  Returns the coefficient
    matrices for derivative orders 2..order in the sensor frame.
    """
    accels = np.asarray(accels, dtype=float)
    if accels.ndim != 3:
        raise InvalidDimensionError("accels must be (K+1, dim, n)")
    if order < 2:
        raise InvalidDimensionError("accelerometer data constrains orders >= 2 only")
    kk, d, n = accels.shape
    coeffs, residual = _poly_lstsq(timestamps, accels.reshape(kk, d * n), order - 2)
    blocks = [factorial(j) * coeffs[j].reshape(d, n) for j in range(order - 1)]
    return AccelCoefficients(blocks=blocks, residual=float(np.linalg.norm(residual)))


def deflate_grams(gram_vecs, timestamps, acc: AccelCoefficients) -> np.ndarray:
    """Subtract the accelerometer-known quadratic terms from the Grammians.

    For each order l >= 2 the term vech(Y_l^T Y_l) * t^(2l) / (l!)^2 is
    removed; these inner products are invariant to the sensor rotation, so
    no frame knowledge is needed.  The deflated series is polynomial of
    degree 2*order - 1 instead of 2*order (degree 3 instead of 4 in the
    constant-acceleration case).
    """
    gram_vecs = np.asarray(gram_vecs, dtype=float)
    t = np.asarray(timestamps, dtype=float).ravel()
    if gram_vecs.ndim != 2 or gram_vecs.shape[0] != t.size:
        raise InvalidDimensionError("gram_vecs must be (K+1, m) matching timestamps")
    out = gram_vecs.copy()
    for i, block in enumerate(acc.blocks):
        l = 2 + i
        quad = vech(block.T @ block) / factorial(l) ** 2
        out -= np.outer(t ** (2 * l), quad)
    return out


def fit_deflated_coeffs(deflated_vecs, timestamps) -> GrammianCoefficients:
    """Degree-3 coefficient fit of a deflated Grammian series.

    In the constant-acceleration case the deflated blocks coincide with
    the low-order blocks of the full model, so this is the lower-variance
    replacement for the degree-4 fit.
    """
    return fit_gram_coeffs(deflated_vecs, timestamps, degree=3)


def estimate_with_accel(meas: MeasurementSet, d: int = 2) -> KinematicEstimate:
    """Recover relative kinematics from EDMs fused with accelerometer data.

    Steps: fit sensor-frame acceleration coefficients, deflate every
    pair's squared-distance series by its quartic term and fit it at
    degree 3, double-center the coefficient blocks, recover the position
    factor by MDS, then jointly solve for the velocity and the sensor-frame
    rotation with the acceleration coefficients taking the role of the
    acceleration factor.  Outputs of order >= 2 are the sensor-frame
    coefficients mapped through the recovered rotation, so all blocks
    share the position factor's frame.
    """
    if d != 2:
        raise InvalidDimensionError("the closed-form pipeline is implemented for dim = 2")
    if meas.accels is None:
        raise ConfigError("accelerometer fusion needs accelerometer data in the bundle")
    warnings_: list[str] = []

    with _stage("accelerometer-fit"):
        acc = fit_accel_coeffs(meas.accels, meas.timestamps, order=2)
    # the true coefficients are mean centered; projecting the fit onto
    # centered matrices strips the noise component the model excludes
    sensor_accel = acc.blocks[0] @ centering_matrix(meas.n_nodes)

    with _stage("coefficient-fit"):
        coeffs = _fit_edm_coeffs(meas, degree=3, accel=sensor_accel)
    with _stage("mds"):
        mds0 = classical_mds(coeffs.blocks[0], d)
    warnings_ += [f"position factor: {w}" for w in mds0.warnings]

    residuals = {"accel_fit": acc.residual, "gram_fit": coeffs.residual}
    with _stage("velocity-split"):
        f0 = chu_decompose(coeffs.blocks[1], mds0.points)
    warnings_ += [f"velocity split: {w}" for w in f0.warnings]
    residuals["velocity_split"] = f0.residual

    with _stage("basis-solve"):
        try:
            sol = _solve_rotation_velocity(f0, 2.0 * coeffs.blocks[3], sensor_accel)
            y1, rotation = sol.y1, sol.rotation
            residuals["acceleration_split"] = sol.f2.residual
            residuals["basis"] = sol.basis.residual
            warnings_ += sol.warnings
        except DegenerateGeometryError:
            y1, rotation = _fallback_velocity(f0)
            residuals["acceleration_split"] = float("nan")
            residuals["basis"] = float("nan")
            warnings_.append(
                "sensor acceleration rank deficient; velocity set to its "
                "minimum-norm completion and the rotation fixed to identity"
            )

    return KinematicEstimate(
        y0=mds0.points,
        y1=y1,
        y2=rotation @ sensor_accel,
        rotation=rotation,
        residuals=residuals,
        warnings=warnings_,
        coeffs=coeffs,
    )
