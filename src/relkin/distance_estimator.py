"""Relative kinematics from noisy squared-distance sequences alone.

Pipeline: fit the pairwise squared distances of the whole record with a
degree-4 polynomial, double-center the five coefficient blocks into the
blocks of the Grammian polynomial (centering is linear, so it commutes
with the fit), recover position and acceleration factors by classical
MDS, then solve the two coupled Lyapunov-like coefficient equations for
the relative velocity and the rotation tying the acceleration factor to
the position frame.

That last solve is one core shared with the accelerometer-fused method,
with one fallback rule for both: when the acceleration factor is
negligible over the record, rank deficient, or admits no solvable basis
system, the velocity takes its minimum-norm completion, the rotation is
fixed to identity and a warning says so.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DegenerateRotationError,
    EstimationError,
    InvalidDimensionError,
    NonUniqueSolutionError,
    RelkinError,
    SingularDesignError,
)
from .linalg import MdsResult, classical_mds, triu_indices, unvech
from .linalg import vech  # noqa: F401  (perfbench's tracer test rebinds this copy)
from .trajectory import MeasurementSet

__all__ = [
    "BasisSystem",
    "ChuFactors",
    "GrammianCoefficients",
    "KinematicEstimate",
    "build_and_solve_basis",
    "chu_decompose",
    "estimate_from_distances",
    "fit_gram_coeffs",
    "recover_position_acceleration",
    "recover_velocity",
]

# reflection that flips the first coordinate axis; negating one row of a
# rank-2 factor toggles the parity of its MDS ambiguity
_FLIP = np.diag([-1.0, 1.0])
# 90-degree generator: h1*I + h2*_J spans the planar rotations
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
# the acceleration factor F counts as negligible when s_min(F)^2 t_max^4, its
# weakest direction at the record's largest |t|, stays below this fraction of
# the largest position eigenvalue
_NEGLIGIBLE_ACCEL = 1e-10


@dataclass
class GrammianCoefficients:
    """Symmetric coefficient blocks of the fitted Grammian polynomial."""

    degree: int
    blocks: list[np.ndarray]
    residual: float = 0.0


@dataclass
class ChuFactors:
    """Split of one Lyapunov-like equation B = A^T M + M^T A in node coordinates.

    With the thin SVD A = u @ diag(lam) @ vt (``vt`` is 2-by-n) and the
    projector P = I - vt^T vt onto the complement of A's row space, B
    determines the coordinates N = u^T M except for the two off-diagonal
    entries of the leading block N @ vt^T.  ``z1_diag`` is that block's
    diagonal and ``z2`` = diag(1/lam) vt B P the part of N outside the row
    space, so N = :attr:`known` + (u1 vt[1]; u2 vt[0]) for free entries
    (u1, u2) tied by lam[0] u1 + lam[1] u2 = ``c`` = (vt B vt^T)[0, 1].
    ``residual`` is ||P B P||_F, zero for consistent input.
    """

    u: np.ndarray
    vt: np.ndarray
    lam: np.ndarray
    z1_diag: np.ndarray
    z2: np.ndarray
    c: float
    residual: float
    warnings: list[str] = field(default_factory=list)

    @property
    def known(self) -> np.ndarray:
        """N with both free entries set to zero, (2, n)."""
        return self.z1_diag[:, None] * self.vt + self.z2


@dataclass
class BasisSystem:
    """Stacked linear system over the bilinear basis of (rotation, unknowns).

    ``phi`` solves rows @ phi ~ rhs in least squares for the basis vector
    (h1, h2, h1*u1, h1*u2, h2*u1, h2*u2); ``h`` is the normalized rotation
    pair and ``u`` the recovered free entries.  ``condition`` is
    s_max/s_min of ``w``.
    """

    w: np.ndarray
    rhs: np.ndarray
    phi: np.ndarray
    h: np.ndarray
    u: np.ndarray
    residual: float
    rank: int
    condition: float


@dataclass
class KinematicEstimate:
    """Recovered relative kinematics in one common centered frame.

    ``rotation`` maps the raw acceleration factor (MDS factor or sensor
    frame) into the frame of ``y0``; it is orthogonal but may be a
    reflection.  ``coeffs`` keeps the fitted Grammian coefficient blocks
    for diagnostic and benchmarking use.  ``conditioning`` holds the
    eigen-gap lambda_d/|lambda_(d+1)| of each MDS (``position_mds``, and
    ``acceleration_mds`` on the distance-only path), lambda_max/lambda_min
    of each split (``velocity_split``, ``acceleration_split``) and
    s_max/s_min of the basis system (``basis``); the last two are NaN
    when the solve falls back.
    """

    y0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    rotation: np.ndarray
    residuals: dict[str, float]
    warnings: list[str]
    coeffs: Optional[GrammianCoefficients] = None
    conditioning: dict[str, float] = field(default_factory=dict)


def _poly_lstsq(timestamps, values, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares polynomial fit shared by all columns of ``values``.

    One QR factorization of the (degree+1)-column Vandermonde matrix
    gives the small (degree+1, K+1) projector R^-1 Q^T, which one matmul
    applies to every column at once.  The time axis is rescaled to
    [-1, 1] before factorization and the coefficients unscaled
    afterwards, which leaves the minimizer unchanged but keeps the factor
    well conditioned.  Returns the coefficients and the (K+1, m) residual
    of the fit.
    """
    t = np.asarray(timestamps, dtype=float).ravel()
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != t.size:
        raise InvalidDimensionError("values must be (K+1, m) matching timestamps")
    if t.size < degree + 1:
        raise SingularDesignError(
            f"need at least {degree + 1} samples for a degree-{degree} fit, got {t.size}"
        )
    scale = float(np.abs(t).max()) or 1.0
    a = np.vander(t / scale, degree + 1, increasing=True)
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise SingularDesignError("rank-deficient Vandermonde design (repeated timestamps?)")
    coeffs = np.linalg.solve(r, q.T) @ vals
    residual = a @ coeffs
    residual -= vals
    powers = scale ** np.arange(degree + 1)
    return coeffs / powers[:, None], residual


def fit_gram_coeffs(gram_vecs, timestamps, degree: int) -> GrammianCoefficients:
    """Fit half-vectorized Grammians with a degree-``degree`` polynomial.

    ``gram_vecs`` stacks vech(G_k) row-wise over the K+1 timestamps.  The
    block structure of the full design matrix makes the problem one small
    polynomial fit per vech component, all sharing a single Vandermonde
    factorization; the returned blocks are the un-vech'd coefficient
    matrices, exactly symmetric by construction.
    """
    gram_vecs = np.asarray(gram_vecs, dtype=float)
    coeffs, residual = _poly_lstsq(timestamps, gram_vecs, degree)
    blocks = [unvech(row) for row in coeffs]
    return GrammianCoefficients(degree, blocks, residual=float(np.linalg.norm(residual)))


def _double_center(pairs, n: int) -> np.ndarray:
    """-C D C / 2 of each EDM D whose upper-triangle entries are a row of ``pairs``.

    ``pairs`` is (B, m); the result is the (B, n, n) block stack.  Centers
    by row and column means: each block stays exactly symmetric, and the
    cost is O(B n^2) rather than two n-by-n matrix products per block.
    """
    iu, ju = triu_indices(n, 1)
    d = np.zeros((len(pairs), n, n))
    d[:, iu, ju] = pairs
    d[:, ju, iu] = pairs
    # in place: fewer (B, n, n) temporaries, the same operations in the same order
    r = d.mean(axis=2)
    d -= r[:, :, None] + r[:, None, :]
    d += r.mean(axis=1)[:, None, None]
    d *= -0.5
    return d


def _gram_residual(res, r, n: int) -> float:
    """Norm of the half-vectorized Grammian-space residual, in O(K m).

    Row k of ``res`` holds the upper-triangle entries of a symmetric,
    zero-diagonal residual EDM R, and row k of ``r`` its row means.  With
    rbar their mean, ||C R C||_F^2 = ||R||_F^2 - 2n ||r||^2 + n^2 rbar^2
    and diag(-C R C / 2) = r - rbar / 2; vech keeps each diagonal entry
    and each off-diagonal pair once, so
    ||vech G||^2 = (||G||_F^2 + ||diag G||^2) / 2.
    """
    rbar = r.mean(axis=1)
    r_sq = 2.0 * float(np.vdot(res, res))  # each pair appears twice in R
    crc_sq = r_sq - 2.0 * n * float(np.vdot(r, r)) + n**2 * float(rbar @ rbar)
    diag = r - 0.5 * rbar[:, None]
    total = 0.5 * (0.25 * crc_sq + float(np.vdot(diag, diag)))
    return float(np.sqrt(max(total, 0.0)))


def _fit_edm_coeffs(meas: MeasurementSet, degree: int, accel=None) -> GrammianCoefficients:
    """Grammian coefficient blocks from one polynomial fit of the EDM record.

    Double centering is linear and acts on each sample alone, so it
    commutes with the fit: fitting the upper-triangle entries of every
    (validated symmetric, zero-diagonal) EDM with one shared Vandermonde
    projection and centering only the coefficient blocks gives
    :func:`fit_gram_coeffs` of the Grammian series, up to round-off.
    ``accel``, a centered (d, n) acceleration block, deflates each pair
    by t^4 |a_i - a_j|^2 / 4 first; that double-centers to the
    vech(A^T A) t^4 / 4 that :func:`deflate_grams` removes.
    """
    n = meas.n_nodes
    iu, ju = triu_indices(n, 1)
    t = meas.timestamps
    pairs = meas.edms[:, iu, ju]
    # row means are linear too: their series' fit residual is the row
    # means of the residual EDMs, which the Grammian residual needs
    row_means = meas.edms.mean(axis=2)
    if accel is not None:
        diff = accel[:, iu] - accel[:, ju]
        quartic = 0.25 * np.einsum("dm,dm->m", diff, diff)
        pairs -= np.outer(t**4, quartic)
        node_quartic = np.bincount(iu, quartic, n) + np.bincount(ju, quartic, n)
        row_means -= np.outer(t**4, node_quartic / n)
    coeffs, res = _poly_lstsq(t, pairs, degree)
    _, row_res = _poly_lstsq(t, row_means, degree)
    blocks = list(_double_center(coeffs, n))
    return GrammianCoefficients(degree, blocks, residual=_gram_residual(res, row_res, n))


def recover_position_acceleration(
    coeffs: GrammianCoefficients, d: int
) -> tuple[MdsResult, MdsResult]:
    """MDS factors of the constant and quartic Grammian coefficients.

    The constant block is the Grammian of the centered positions at t = 0;
    four times the quartic block is the Grammian of the accelerations.
    Both factors inherit zero row sums from the double-centered data, and
    each is known only up to its own orthogonal transform.
    """
    if coeffs.degree < 4:
        raise InvalidDimensionError("position/acceleration recovery needs a degree-4 fit")
    return classical_mds(coeffs.blocks[0], d), classical_mds(4.0 * coeffs.blocks[4], d)


def chu_decompose(bhat, yhat) -> ChuFactors:
    """Split B = A^T M + M^T A via the thin SVD of the known factor A = ``yhat``.

    ``bhat`` is the symmetric n-by-n B and ``yhat`` the 2-by-n A, which
    must have full row rank (singular values above 1e-8 of the largest);
    otherwise the equation does not determine the split and a
    DegenerateGeometryError is raised.  No n-by-n frame is formed: B is
    projected with P = I - vt^T vt applied as two rank-2 updates.
    """
    bhat = np.asarray(bhat, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if yhat.ndim != 2 or yhat.shape[0] != 2 or bhat.shape != (yhat.shape[1], yhat.shape[1]):
        raise InvalidDimensionError("chu_decompose needs yhat (2, n) and bhat (n, n)")
    u, lam, vt = np.linalg.svd(yhat, full_matrices=False)
    if lam.size < 2 or lam[1] <= 1e-8 * lam[0]:
        raise DegenerateGeometryError(
            "factor is rank deficient; the Lyapunov-like split cannot proceed"
        )
    bv = bhat @ vt.T
    lead = vt @ bv  # vt B vt^T
    bp = bhat - bv @ vt  # B P
    vbp = vt @ bp
    notes: list[str] = []
    if lam[0] / lam[1] < 1.0 + 1e-6:
        notes.append(
            "nearly repeated singular values; the SVD frame is ill determined "
            "and the basis solve relies on its residual check"
        )
    # ||P B P||, not ||B||^2 - ||vt B||^2, which cancels at zero noise
    residual = float(np.linalg.norm(bp - vt.T @ vbp))
    return ChuFactors(
        u=u, vt=vt, lam=lam, z1_diag=np.diag(lead) / (2.0 * lam), z2=vbp / lam[:, None],
        c=float(lead[0, 1]), residual=residual, warnings=notes,
    )


def _require_four_nodes(n: int) -> None:
    if n < 4:
        raise NonUniqueSolutionError(
            f"{n} nodes give fewer equations than the 6 basis unknowns; need n >= 4"
        )


def build_and_solve_basis(f0: ChuFactors, f2: ChuFactors) -> BasisSystem:
    """Solve the coupled pair of Lyapunov-like splits for (rotation, unknowns).

    Writing N0 and N2 for the velocity coordinates of ``f0`` and ``f2``
    (see :class:`ChuFactors`), the two splits are linked by
    N2 = (U2^T R^T U0) N0 with R the planar rotation parameterized by
    h = (h1, h2).  Every entry of N2 is then linear in the basis vector
    phi = (h1, h2, h1*u1, h1*u2, h2*u1, h2*u2), where u holds the two free
    entries of N0.  The six (2, n) coefficient matrices of N2 are stacked
    once, and the 2n + 5 rows are sliced out of that stack:

    - the two diagonal entries of the leading block N2 @ vt2^T,
    - the trailing part N2 - (N2 @ vt2^T) @ vt2, row 0 then row 1 (2n
      rows, matched to ``f2.z2``),
    - the off-diagonal constraint of ``f2``, a known linear combination
      of two leading-block entries,
    - the off-diagonal constraint of ``f0``, which ties u linearly and
      yields two homogeneous rows after multiplication by h1 and h2.

    The trailing rows span only the (n - 2)-dimensional complement of
    vt2's rows, so the normal equations equal those of the 2n + 1 rows of
    the full SVD frame.  phi is obtained by linear least squares; h is
    normalized to unit length and u recovered by projecting the bilinear
    components onto h, which avoids dividing by near-zero rotation
    components.
    """
    n = f0.vt.shape[1]
    if f2.vt.shape[1] != n:
        raise InvalidDimensionError("both splits must describe the same node count")
    _require_four_nodes(n)

    g = (f2.u.T @ f0.u, f2.u.T @ _J @ f0.u)
    known, free = f0.known, f0.vt[::-1]
    # coefficient matrices of N2 w.r.t. each basis component, (6, 2, n)
    m = np.stack([x @ known for x in g] + [np.outer(x[:, k], free[k]) for x in g for k in (0, 1)])
    lead = m @ f2.vt.T
    w = np.vstack(
        [
            lead[:, [0, 1], [0, 1]].T,
            (m - lead @ f2.vt).reshape(6, -1).T,
            f2.lam[0] * lead[:, 0, 1] + f2.lam[1] * lead[:, 1, 0],
            [[-f0.c, 0.0, f0.lam[0], f0.lam[1], 0.0, 0.0],
             [0.0, -f0.c, 0.0, 0.0, f0.lam[0], f0.lam[1]]],
        ]
    )
    b = np.concatenate([f2.z1_diag, f2.z2.ravel(), [f2.c, 0.0, 0.0]])
    phi, _, rank, sv = np.linalg.lstsq(w, b, rcond=None)
    if rank < 6:
        raise NonUniqueSolutionError(
            "basis system is rank deficient; the coefficient blocks are too "
            "close to singular for a unique solution"
        )
    residual = float(np.linalg.norm(w @ phi - b))
    norm_h = float(np.hypot(phi[0], phi[1]))
    if norm_h < 1e-8:
        raise DegenerateRotationError("rotation components of the basis solution vanish")
    h = phi[:2] / norm_h
    u = np.array([h[0] * phi[2] + h[1] * phi[4], h[0] * phi[3] + h[1] * phi[5]])
    return BasisSystem(
        w=w, rhs=b, phi=phi, h=h, u=u, residual=residual, rank=int(rank),
        condition=float(sv[0] / sv[-1]),
    )


def recover_velocity(f0: ChuFactors, u) -> np.ndarray:
    """The velocity matrix u0 @ N0 of the split ``f0``.

    ``u`` supplies the two free entries of N0; the rest is ``f0.known``.
    """
    u = np.asarray(u, dtype=float).ravel()
    return f0.u @ (f0.known + u[:, None] * f0.vt[::-1])


@contextmanager
def _stage(label: str):
    """Re-raise pipeline errors, numpy's LinAlgError included, with the stage prepended."""
    try:
        yield
    except (RelkinError, np.linalg.LinAlgError) as exc:
        raise EstimationError(f"stage '{label}': {exc}") from exc


def _solve(
    meas: MeasurementSet,
    coeffs: GrammianCoefficients,
    mds0: MdsResult,
    accel_factor: np.ndarray,
    warnings_: list[str],
    residuals: dict[str, float],
    conditioning: dict[str, float],
) -> KinematicEstimate:
    """Joint velocity/rotation solve shared by both data models.

    The methods differ only in where ``coeffs`` and the acceleration
    factor F (MDS factor of the quartic block, or centered sensor
    coefficients) come from.  MDS and an uncalibrated sensor frame fix F
    only up to an orthogonal transform, while the basis parameterization
    covers rotations only: F and its first-row-negated reflection are
    both tried, and the original is kept unless its residual exceeds ten
    times the reflected one's.

    One fallback rule: if F is negligible next to the positions over the
    record (s_min(F)^2 t_max^4 <= _NEGLIGIBLE_ACCEL lambda_max(B0), e.g. a
    static network), rank deficient, or neither candidate gives a
    solvable basis system, the velocity is set to the minimum-norm
    completion of the first split and the rotation to identity, with a
    warning.
    """
    with _stage("basis-solve"):
        _require_four_nodes(meas.n_nodes)
    with _stage("velocity-split"):
        f0 = chu_decompose(coeffs.blocks[1], mds0.points)
    warnings_ += [f"velocity split: {w}" for w in f0.warnings]
    residuals["velocity_split"] = f0.residual
    conditioning["velocity_split"] = float(f0.lam[0] / f0.lam[-1])

    candidates = []
    reason = "negligible next to the positions over the record"
    with _stage("basis-solve"):
        t_max = float(np.abs(meas.timestamps).max())
        two_b3 = 2.0 * coeffs.blocks[3]
        for flipped in (False, True):
            try:
                f2 = chu_decompose(two_b3, _FLIP @ accel_factor if flipped else accel_factor)
                # the split's singular values are F's, the same for both candidates
                if f2.lam[-1] ** 2 * t_max**4 <= _NEGLIGIBLE_ACCEL * mds0.eigenvalues[0]:
                    break
                candidates.append((flipped, f2, build_and_solve_basis(f0, f2)))
            except (DegenerateGeometryError, NonUniqueSolutionError,
                    DegenerateRotationError) as exc:
                reason = f"unusable ({exc})"

    if not candidates:
        # the minimum-norm (u1, u2) on lam[0] u1 + lam[1] u2 = c
        y1 = recover_velocity(f0, (f0.c / (f0.lam @ f0.lam)) * f0.lam)
        rotation, nan = np.eye(2), float("nan")
        residuals.update(acceleration_split=nan, basis=nan)
        conditioning.update(acceleration_split=nan, basis=nan)
        warnings_.append(
            f"acceleration factor {reason}; velocity set to its minimum-norm "
            "completion and the rotation fixed to identity"
        )
    else:
        flipped, f2, basis = candidates[0]
        if flipped:
            warnings_.append("only the reflected acceleration factor admitted a solution")
        elif len(candidates) == 2 and basis.residual > 10.0 * candidates[1][2].residual:
            flipped, f2, basis = candidates[1]
            warnings_.append(
                "MDS reflection ambiguity detected; the reflected acceleration "
                "factor fit the coupled equations"
            )
        h1, h2 = basis.h
        rotation = np.array([[h1, -h2], [h2, h1]])
        if flipped:
            rotation = rotation @ _FLIP
        y1 = recover_velocity(f0, basis.u)
        residuals.update(acceleration_split=f2.residual, basis=basis.residual)
        conditioning.update(
            acceleration_split=float(f2.lam[0] / f2.lam[-1]), basis=basis.condition
        )
        warnings_ += f2.warnings

    return KinematicEstimate(
        y0=mds0.points,
        y1=y1,
        y2=rotation @ accel_factor,
        rotation=rotation,
        residuals=residuals,
        warnings=warnings_,
        coeffs=coeffs,
        conditioning=conditioning,
    )


def estimate_from_distances(meas: MeasurementSet, d: int = 2) -> KinematicEstimate:
    """Recover relative position, velocity and acceleration from EDMs only.

    Steps: degree-4 fit of the EDM record, double centering of its
    coefficient blocks, MDS of the constant and quartic blocks, then the
    shared velocity/rotation solve (:func:`_solve`) with the quartic
    block's factor as the acceleration factor.  A static network, whose
    quartic block is round-off, takes the solve's minimum-norm fallback.
    """
    if d != 2:
        raise InvalidDimensionError("the closed-form pipeline is implemented for dim = 2")
    warnings_: list[str] = []

    with _stage("coefficient-fit"):
        coeffs = _fit_edm_coeffs(meas, degree=4)
    with _stage("mds"):
        mds0, mds2 = recover_position_acceleration(coeffs, d)
    warnings_ += [f"position factor: {w}" for w in mds0.warnings]
    warnings_ += [f"acceleration factor: {w}" for w in mds2.warnings]
    conditioning = {"position_mds": mds0.eigen_gap, "acceleration_mds": mds2.eigen_gap}
    return _solve(
        meas, coeffs, mds0, mds2.points, warnings_, {"gram_fit": coeffs.residual}, conditioning
    )
