"""Relative kinematics from noisy squared-distance sequences alone.

Pipeline: fit the pairwise squared distances of the whole record with a
degree-4 polynomial, double-center the five coefficient blocks into the
blocks of the Grammian polynomial (centering is linear, so it commutes
with the fit), recover position and acceleration factors by classical
MDS, then solve the two coupled Lyapunov-like coefficient equations for
the relative velocity and the rotation tying the acceleration factor to
the position frame.
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
# the acceleration factor counts as absent when its Grammian, at the record's
# largest |t|, stays below this fraction of the largest position eigenvalue
_NEGLIGIBLE_ACCEL = 1e-10


@dataclass
class GrammianCoefficients:
    """Symmetric coefficient blocks of the fitted Grammian polynomial."""

    degree: int
    blocks: list[np.ndarray]
    residual: float = 0.0
    #: the fit ignores the correlations that centering/squaring induce
    unweighted: bool = True


@dataclass
class ChuFactors:
    """SVD-based split of one Lyapunov-like equation B = A^T M + M^T A.

    With A = u @ [diag(lam) 0] @ v.T, the transformed right side
    bbar = v.T @ B @ v determines M's coordinates Z = u.T @ M @ v except
    for the off-diagonal entries of its leading d-by-d block: ``z1_diag``
    and ``z2`` are the uniquely determined parts, and each tuple in
    ``offdiag_constraints`` records (i, j, bbar[i, j]) with
    lam[i]*Z[i, j] + lam[j]*Z[j, i] = bbar[i, j].  ``residual`` is the
    norm of the trailing block of bbar, zero for consistent input.
    """

    u: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    bbar: np.ndarray
    z2: np.ndarray
    z1_diag: np.ndarray
    offdiag_constraints: list[tuple[int, int, float]]
    residual: float
    warnings: list[str] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.lam.size

    @property
    def n_nodes(self) -> int:
        return self.v.shape[0]


@dataclass
class BasisSystem:
    """Stacked linear system over the bilinear basis of (rotation, unknowns).

    ``phi`` solves rows @ phi ~ rhs in least squares for the basis vector
    (h1, h2, h1*u1, h1*u2, h2*u1, h2*u2); ``h`` is the normalized rotation
    pair and ``u`` the recovered free entries.  ``row_labels`` records
    where each equation came from.
    """

    w: np.ndarray
    rhs: np.ndarray
    row_labels: list[str]
    phi: np.ndarray
    h: np.ndarray
    u: np.ndarray
    residual: float
    rank: int


@dataclass
class KinematicEstimate:
    """Recovered relative kinematics in one common centered frame.

    ``rotation`` maps the raw acceleration factor (MDS factor or sensor
    frame) into the frame of ``y0``; it is orthogonal but may be a
    reflection.  ``coeffs`` keeps the fitted Grammian coefficient blocks
    for diagnostic and benchmarking use.
    """

    y0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    rotation: np.ndarray
    residuals: dict[str, float]
    warnings: list[str]
    coeffs: Optional[GrammianCoefficients] = None


def _poly_lstsq(timestamps, values, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares polynomial fit shared by all columns of ``values``.

    One QR factorization of the (degree+1)-column Vandermonde matrix
    serves every column.  The time axis is rescaled to [-1, 1] before
    factorization and the coefficients unscaled afterwards, which leaves
    the minimizer unchanged but keeps the factor well conditioned.
    Returns the coefficients and the (K+1, m) residual of the fit.
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
    coeffs = np.linalg.solve(r, q.T @ vals)
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
    """-C D C / 2 of the EDM D with upper-triangle entries ``pairs``.

    Centers by row and column means: the block stays exactly symmetric,
    and the cost is O(n^2) rather than two n-by-n matrix products.
    """
    iu, ju = triu_indices(n, 1)
    d = np.zeros((n, n))
    d[iu, ju] = pairs
    d = d + d.T
    r = d.mean(axis=1)
    g = d - (r[:, None] + r[None, :])
    g += r.mean()
    g *= -0.5
    return g


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
    blocks = [_double_center(row, n) for row in coeffs]
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
    """Split B = A^T M + M^T A via the SVD of the known factor A = ``yhat``.

    Requires ``yhat`` to have full row rank (singular values above
    1e-8 of the largest); otherwise the equation does not determine the
    blocks and a DegenerateGeometryError is raised.
    """
    bhat = np.asarray(bhat, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if yhat.ndim != 2 or bhat.shape != (yhat.shape[1], yhat.shape[1]):
        raise InvalidDimensionError("chu_decompose needs yhat (d, n) and bhat (n, n)")
    d, n = yhat.shape
    u, lam, vt = np.linalg.svd(yhat, full_matrices=True)
    if lam.min() <= 1e-8 * lam.max() or lam.max() == 0.0:
        raise DegenerateGeometryError(
            "factor is rank deficient; the Lyapunov-like split cannot proceed"
        )
    v = vt.T
    bbar = v.T @ bhat @ v
    bbar = 0.5 * (bbar + bbar.T)
    z2 = bbar[:d, d:] / lam[:, None]
    z1_diag = np.diag(bbar)[:d] / (2.0 * lam)
    constraints = [(i, j, float(bbar[i, j])) for i in range(d) for j in range(i + 1, d)]
    residual = float(np.linalg.norm(bbar[d:, d:]))
    notes: list[str] = []
    if d >= 2 and lam[0] / lam[-1] < 1.0 + 1e-6:
        notes.append(
            "nearly repeated singular values; the SVD frame is ill determined "
            "and the basis solve relies on its residual check"
        )
    return ChuFactors(
        u=u,
        v=v,
        lam=lam,
        bbar=bbar,
        z2=z2,
        z1_diag=z1_diag,
        offdiag_constraints=constraints,
        residual=residual,
        warnings=notes,
    )


def _known_z(f: ChuFactors) -> np.ndarray:
    """Assemble Z from its determined parts, zeros at the unknown entries."""
    d, n = f.dim, f.n_nodes
    z = np.zeros((d, n))
    z[range(d), range(d)] = f.z1_diag
    z[:, d:] = f.z2
    return z


def build_and_solve_basis(f0: ChuFactors, f2: ChuFactors) -> BasisSystem:
    """Solve the coupled pair of Lyapunov-like splits for (rotation, unknowns).

    Writing Z for the velocity coordinates in the frame of ``f0`` and
    Zbar for those in the frame of ``f2``, the two splits are linked by
    Zbar = (U2^T R^T U0) Z (V0^T V2) with R the planar rotation
    parameterized by h = (h1, h2).  Every entry of Zbar is then linear in
    the basis vector phi = (h1, h2, h1*u1, h1*u2, h2*u1, h2*u2), where u
    holds the two unknown off-diagonals of Z's leading block.  The system
    stacks all available linear relations:

    - one row per determined entry of Zbar (its leading-block diagonal
      and the full trailing block),
    - the off-diagonal constraint of ``f2``, a known linear combination
      of two Zbar entries,
    - the off-diagonal constraint of ``f0``, which ties u linearly and
      yields two homogeneous rows after multiplication by h1 and h2.

    phi is obtained by linear least squares; h is normalized to unit
    length and u recovered by projecting the bilinear components onto h,
    which avoids dividing by near-zero rotation components.
    """
    if f0.dim != 2 or f2.dim != 2:
        raise InvalidDimensionError("the basis solve is implemented for dim = 2 only")
    n = f0.n_nodes
    if f2.n_nodes != n:
        raise InvalidDimensionError("both splits must describe the same node count")
    if n < 4:
        raise NonUniqueSolutionError(
            f"{n} nodes give fewer equations than the 6 basis unknowns; need n >= 4"
        )

    zk = _known_z(f0)
    p = f0.v.T @ f2.v
    g1 = f2.u.T @ f0.u
    g2 = f2.u.T @ _J @ f0.u
    e01 = np.zeros((2, n))
    e01[0, 1] = 1.0
    e10 = np.zeros((2, n))
    e10[1, 0] = 1.0
    # coefficient matrices of Zbar's entries w.r.t. each basis component
    mats = [g1 @ zk @ p, g2 @ zk @ p, g1 @ e01 @ p, g1 @ e10 @ p, g2 @ e01 @ p, g2 @ e10 @ p]

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    labels: list[str] = []
    for i in range(2):
        rows.append(np.array([m[i, i] for m in mats]))
        rhs.append(float(f2.z1_diag[i]))
        labels.append(f"zbar[{i},{i}]")
    for i in range(2):
        for j in range(2, n):
            rows.append(np.array([m[i, j] for m in mats]))
            rhs.append(float(f2.z2[i, j - 2]))
            labels.append(f"zbar[{i},{j}]")
    ci, cj, c2 = f2.offdiag_constraints[0]
    rows.append(
        np.array([f2.lam[ci] * m[ci, cj] + f2.lam[cj] * m[cj, ci] for m in mats])
    )
    rhs.append(c2)
    labels.append("offdiag-constraint[f2]")
    ci, cj, c0 = f0.offdiag_constraints[0]
    rows.append(np.array([-c0, 0.0, f0.lam[ci], f0.lam[cj], 0.0, 0.0]))
    rhs.append(0.0)
    labels.append("offdiag-constraint[f0]*h1")
    rows.append(np.array([0.0, -c0, 0.0, 0.0, f0.lam[ci], f0.lam[cj]]))
    rhs.append(0.0)
    labels.append("offdiag-constraint[f0]*h2")

    w = np.vstack(rows)
    b = np.asarray(rhs)
    phi, _, rank, _ = np.linalg.lstsq(w, b, rcond=None)
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
        w=w, rhs=b, row_labels=labels, phi=phi, h=h, u=u, residual=residual, rank=int(rank)
    )


def recover_velocity(f0: ChuFactors, u) -> np.ndarray:
    """Map the completed coordinates Z back to the velocity matrix.

    ``u`` supplies the two off-diagonal entries of Z's leading block; the
    rest comes from the determined parts of ``f0``.
    """
    u = np.asarray(u, dtype=float).ravel()
    z = _known_z(f0)
    z[0, 1] = u[0]
    z[1, 0] = u[1]
    return f0.u @ z @ f0.v.T


@dataclass
class _RotationVelocity:
    y1: np.ndarray
    rotation: np.ndarray  # maps the original acceleration factor into y0's frame
    basis: BasisSystem
    f2: ChuFactors
    flipped: bool
    warnings: list[str]


def _solve_rotation_velocity(f0: ChuFactors, two_b3, accel_factor) -> _RotationVelocity:
    """Joint velocity/rotation solve with reflection disambiguation.

    MDS (and an uncalibrated sensor frame) leaves the acceleration factor
    determined only up to an orthogonal transform, while the basis
    parameterization covers rotations only.  Both the factor and its
    first-row-negated reflection are tried; the original is kept unless
    its residual exceeds ten times the reflected retry's.
    """
    candidates = []
    errors: list[RelkinError] = []
    for flipped in (False, True):
        factor = _FLIP @ accel_factor if flipped else np.asarray(accel_factor, dtype=float)
        f2 = chu_decompose(two_b3, factor)
        try:
            basis = build_and_solve_basis(f0, f2)
        except (NonUniqueSolutionError, DegenerateRotationError) as exc:
            errors.append(exc)
            continue
        candidates.append((flipped, f2, basis))
    if not candidates:
        raise errors[0]

    notes: list[str] = []
    if len(candidates) == 1:
        flipped, f2, basis = candidates[0]
        if flipped:
            notes.append("only the reflected acceleration factor admitted a solution")
    else:
        (_, f2_orig, basis_orig), (_, f2_flip, basis_flip) = candidates
        if basis_orig.residual > 10.0 * basis_flip.residual:
            flipped, f2, basis = True, f2_flip, basis_flip
            notes.append(
                "MDS reflection ambiguity detected; the reflected acceleration "
                "factor fit the coupled equations"
            )
        else:
            flipped, f2, basis = False, f2_orig, basis_orig

    h1, h2 = basis.h
    rotation = np.array([[h1, -h2], [h2, h1]])
    if flipped:
        rotation = rotation @ _FLIP
    y1 = recover_velocity(f0, basis.u)
    notes.extend(f2.warnings)
    return _RotationVelocity(
        y1=y1, rotation=rotation, basis=basis, f2=f2, flipped=flipped, warnings=notes
    )


def _fallback_velocity(f0: ChuFactors) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm completion when the acceleration factor is degenerate.

    With only the first Lyapunov-like split available, the off-diagonal
    unknowns are pinned by a single linear constraint; the minimum-norm
    solution is taken and the rotation fixed to identity.
    """
    i, j, c0 = f0.offdiag_constraints[0]
    lam = f0.lam
    u = (c0 / (lam[i] ** 2 + lam[j] ** 2)) * np.array([lam[i], lam[j]])
    return recover_velocity(f0, u), np.eye(2)


@contextmanager
def _stage(label: str):
    """Re-raise pipeline errors, numpy's LinAlgError included, with the stage prepended."""
    try:
        yield
    except (RelkinError, np.linalg.LinAlgError) as exc:
        raise EstimationError(f"stage '{label}': {exc}") from exc


def estimate_from_distances(meas: MeasurementSet, d: int = 2) -> KinematicEstimate:
    """Recover relative position, velocity and acceleration from EDMs only.

    Steps: degree-4 fit of the EDM record, double centering of its
    coefficient blocks, MDS of the constant and quartic blocks, then the
    coupled Lyapunov-like solve for velocity and the acceleration-frame
    rotation.  If the acceleration factor is rank deficient, or negligible
    next to the positions over the record (e.g. a static network, whose
    quartic block is round-off), the velocity falls back to its
    minimum-norm completion and warnings are recorded instead of failing.
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

    residuals = {"gram_fit": coeffs.residual}
    with _stage("velocity-split"):
        f0 = chu_decompose(coeffs.blocks[1], mds0.points)
    warnings_ += [f"velocity split: {w}" for w in f0.warnings]
    residuals["velocity_split"] = f0.residual

    t_max = float(np.abs(meas.timestamps).max())
    accel_negligible = (
        mds2.eigenvalues[-1] * t_max**4 <= _NEGLIGIBLE_ACCEL * mds0.eigenvalues[0]
    )
    with _stage("basis-solve"):
        sol = None
        if not accel_negligible:
            try:
                sol = _solve_rotation_velocity(f0, 2.0 * coeffs.blocks[3], mds2.points)
            except DegenerateGeometryError:
                pass
        if sol is not None:
            y1, rotation = sol.y1, sol.rotation
            residuals["acceleration_split"] = sol.f2.residual
            residuals["basis"] = sol.basis.residual
            warnings_ += sol.warnings
        else:
            y1, rotation = _fallback_velocity(f0)
            residuals["acceleration_split"] = float("nan")
            residuals["basis"] = float("nan")
            warnings_.append(
                "acceleration factor rank deficient; velocity set to its "
                "minimum-norm completion and the rotation fixed to identity"
            )

    return KinematicEstimate(
        y0=mds0.points,
        y1=y1,
        y2=rotation @ mds2.points,
        rotation=rotation,
        residuals=residuals,
        warnings=warnings_,
        coeffs=coeffs,
    )
