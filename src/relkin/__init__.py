"""Anchorless relative kinematics from time-varying pairwise distances.

Estimates the relative position, velocity and acceleration of a network
of mobile nodes from noisy pairwise-distance sequences, optionally fused
with accelerometer readings, and ships a simulator plus a Monte-Carlo
benchmarking harness.
"""

from .accel_estimator import (
    AccelCoefficients,
    deflate_grams,
    estimate_with_accel,
    estimate_with_accel_batch,
    fit_accel_coeffs,
    fit_deflated_coeffs,
)
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
    benchmark_trajectory,
    center_coefficients,
    eval_kinematics,
    rotation2d,
    simulate_measurements,
)

__version__ = "0.1.0"

__all__ = [
    "AccelCoefficients",
    "BatchEstimate",
    "ConfigError",
    "DegenerateGeometryError",
    "DegenerateGeometryWarning",
    "EstimationError",
    "InvalidDimensionError",
    "KinematicEstimate",
    "MeasurementSet",
    "PolynomialTrajectory",
    "RelkinError",
    "RmseEntry",
    "RmseTable",
    "SimConfig",
    "SingularDesignError",
    "TimeSweepEntry",
    "UnsupportedOrderError",
    "align_to_truth",
    "benchmark_trajectory",
    "build_and_solve_basis",
    "center_coefficients",
    "centering_matrix",
    "chu_decompose",
    "classical_mds",
    "deflate_grams",
    "edm_from_points",
    "estimate_from_distances",
    "estimate_from_distances_batch",
    "estimate_with_accel",
    "estimate_with_accel_batch",
    "eval_kinematics",
    "fit_accel_coeffs",
    "fit_deflated_coeffs",
    "fit_gram_coeffs",
    "gram_from_edm",
    "orthogonal_procrustes",
    "recover_position_acceleration",
    "recover_velocity",
    "rmse",
    "rotation2d",
    "run_monte_carlo",
    "simulate_measurements",
    "unvech",
    "vech",
]
