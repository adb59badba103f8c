"""Anchorless relative kinematics from time-varying pairwise distances.

Estimates the relative position, velocity and acceleration of a network
of mobile nodes from noisy pairwise-distance sequences, optionally fused
with accelerometer readings, and ships a simulator plus a Monte-Carlo
benchmarking harness.
"""

from types import ModuleType as _ModuleType

from .accel_estimator import (
    AccelCoefficients,
    deflate_grams,
    estimate_with_accel,
    estimate_with_accel_batch,
    fit_accel_coeffs,
    fit_deflated_coeffs,
)
from .config import benchmark_trajectory
from .distance_estimator import (
    BatchEstimate,
    KinematicEstimate,
    build_and_solve_basis,
    chu_decompose,
    estimate_from_distances,
    estimate_from_distances_batch,
    fit_gram_coeffs,
    recover_position_acceleration,
    recover_velocity,
)
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    DegenerateGeometryWarning,
    EstimationError,
    InvalidDimensionError,
    RelkinError,
    SingularDesignError,
    UnsupportedOrderError,
)
from .harness import (
    RmseEntry,
    RmseTable,
    TimeSweepEntry,
    align_to_truth,
    rmse,
    run_monte_carlo,
)
from .linalg import (
    centering_matrix,
    classical_mds,
    edm_from_points,
    gram_from_edm,
    orthogonal_procrustes,
    unvech,
    vech,
)
from .trajectory import (
    MeasurementSet,
    PolynomialTrajectory,
    SimConfig,
    center_coefficients,
    eval_kinematics,
    rotation2d,
    simulate_measurements,
)

__version__ = "0.1.0"

# the public names are exactly the ones imported above
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
