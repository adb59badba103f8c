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

Each estimate runs in two stages.  The fit (:func:`fit_from_distances`
here, ``accel_estimator.fit_with_accel`` with accelerometers) is the
only stage that sees the time grid: it turns a stack of records on one
grid into a :class:`FittedStack` of n-by-n coefficient blocks.  The
finish (:func:`finish_batch`, shared by both methods) runs the MDS and
the solve on those blocks, which have the same shape for every grid, so
stacks fitted on different grids join (:func:`join_fitted`) and finish
in one call.  The batch entry points are a finish of one fit, and a
single estimate is the batch of one.  The choices a record needs of its
own (reflection retry, fallback, a degenerate split) are per-record
masks, so each record comes out as it would alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence, TypeVar

import numpy as np

from .errors import (
    DegenerateGeometryError,
    EstimationError,
    InvalidDimensionError,
    NonUniqueSolutionError,
    RelkinError,
    SingularDesignError,
)
from .linalg import MdsResult, classical_mds, edm_from_pairs, pairs_from_points
from .linalg import _TINY, _finite_norm, _norm, _sum_squares
from .linalg import unvech, vech  # noqa: F401  (perfbench's tracer test rebinds this vech)
from .trajectory import MeasurementSet

__all__ = [
    "BasisSystem",
    "BatchEstimate",
    "ChuFactors",
    "FittedStack",
    "GrammianCoefficients",
    "KinematicEstimate",
    "build_and_solve_basis",
    "chu_decompose",
    "estimate_from_distances",
    "estimate_from_distances_batch",
    "finish_batch",
    "fit_from_distances",
    "fit_gram_coeffs",
    "join_fitted",
    "recover_position_acceleration",
    "recover_velocity",
]

# reflection that flips the first coordinate axis; negating one row of a
# rank-2 factor toggles the parity of its MDS ambiguity
_FLIP = np.diag([-1.0, 1.0])
# 90-degree generator: h1*I + h2*_J spans the planar rotations
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_GENERATORS = np.stack([np.eye(2), _J])
# the acceleration factor F counts as negligible when s_min(F)^2 t_max^4, its
# weakest direction at the record's largest |t|, stays below this fraction of
# the largest position eigenvalue
_NEGLIGIBLE_ACCEL = 1e-10
_EYE = np.eye(2)
_EPS = float(np.finfo(float).eps)

_DEGENERATE_FACTOR = "factor is rank deficient; the Lyapunov-like split cannot proceed"
_RANK_DEFICIENT_BASIS = (
    "basis system is rank deficient; the coefficient blocks are too close to "
    "singular for a unique solution"
)
_VANISHING_ROTATION = "rotation components of the basis solution vanish"
_REPEATED = (
    "nearly repeated singular values; the SVD frame is ill determined and the "
    "basis solve relies on its residual check"
)

T = TypeVar("T")


@dataclass
class GrammianCoefficients:
    """Symmetric coefficient blocks of the fitted Grammian polynomial.

    For a stack of B records, ``blocks[l]`` is the (B, n, n) stack of
    block l and ``residual`` holds the B fit residuals.  Each producer
    reports the residual of the fit it solves: the estimators' pair fit
    gives the norm over all pairs and samples of the squared-distance
    residual (deflated on the accelerometer path), in length^2;
    :func:`fit_gram_coeffs` gives the norm of its half-vectorized
    Grammian residual.
    """

    degree: int
    blocks: list[np.ndarray]
    residual: float | np.ndarray = 0.0


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
    ``residual`` is ||P B P||_F, zero for consistent input, and
    ``repeated`` flags nearly repeated singular values and ``degenerate``
    a rank-deficient A, whose other fields are finite but meaningless.
    The split of a stack carries its leading axes on every field.
    """

    u: np.ndarray
    vt: np.ndarray
    lam: np.ndarray
    z1_diag: np.ndarray
    z2: np.ndarray
    c: np.ndarray
    residual: np.ndarray
    repeated: np.ndarray
    degenerate: np.ndarray

    @cached_property
    def known(self) -> np.ndarray:
        """N with both free entries set to zero, (..., 2, n); computed once per split."""
        return self.z1_diag[..., :, None] * self.vt + self.z2


@dataclass
class BasisSystem:
    """Stacked linear system over the bilinear basis of (rotation, unknowns).

    ``phi`` solves rows @ phi ~ rhs in least squares for the basis vector
    (h1, h2, h1*u1, h1*u2, h2*u1, h2*u2); ``h`` is the normalized rotation
    pair, ``h_norm`` its length before normalization, and ``u`` the
    recovered free entries.  ``condition`` is s_max/s_min of ``w``, NaN
    below rank 6.
    ``solvable`` flags a usable solution: ``rank`` 6 and ``h_norm`` at
    least 1e-8.  The system of a stack of splits carries its leading axes
    on every field.
    """

    w: np.ndarray
    rhs: np.ndarray
    phi: np.ndarray
    h: np.ndarray
    u: np.ndarray
    residual: np.ndarray
    rank: np.ndarray
    condition: np.ndarray
    h_norm: np.ndarray
    solvable: np.ndarray


@dataclass
class KinematicEstimate:
    """Recovered relative kinematics in one common centered frame.

    ``rotation`` maps the raw acceleration factor (MDS factor or sensor
    frame) into the frame of ``y0``; it is orthogonal but may be a
    reflection.  ``coeffs`` keeps the fitted Grammian coefficient blocks
    for diagnostic and benchmarking use.  ``conditioning`` holds
    :attr:`MdsResult.kept_over_discarded` of each MDS, lambda_d over the
    Frobenius norm of what the rank-d factor discards (``position_mds``,
    and ``acceleration_mds`` on the distance-only path), lambda_max/lambda_min
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


@dataclass
class BatchEstimate:
    """Estimates of the B records of a stack, as the batch entry points return them.

    ``y0``, ``y1``, ``y2`` (B, d, n) and ``rotation`` (B, 2, 2) stack the
    fields of :class:`KinematicEstimate`, every value of ``residuals`` and
    ``conditioning`` is a (B,) array, and ``coeffs`` holds stacked blocks.
    ``warnings[i]`` lists record i's warnings and ``errors[i]`` holds its
    stage-labelled failure, or None; the blocks of a failed record are
    meaningless.  ``errors`` is the only channel of a record's own
    failure: a batch entry point raises only for a cause that all the
    records of its stack share (an invalid argument or time grid, too
    few nodes), never because of one record's data.
    """

    y0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    rotation: np.ndarray
    residuals: dict[str, np.ndarray]
    conditioning: dict[str, np.ndarray]
    warnings: list[list[str]]
    errors: list[Optional[EstimationError]]
    coeffs: GrammianCoefficients

    def estimate(self, i: int) -> KinematicEstimate:
        """Record ``i`` on its own; raises its error if it failed."""
        if self.errors[i] is not None:
            raise self.errors[i]
        c = self.coeffs
        return KinematicEstimate(
            y0=self.y0[i],
            y1=self.y1[i],
            y2=self.y2[i],
            rotation=self.rotation[i],
            residuals={key: float(v[i]) for key, v in self.residuals.items()},
            warnings=self.warnings[i],
            coeffs=GrammianCoefficients(c.degree, [b[i] for b in c.blocks], float(c.residual[i])),
            conditioning={key: float(v[i]) for key, v in self.conditioning.items()},
        )

    def select(self, index: np.ndarray) -> BatchEstimate:
        """The records at the integer positions ``index``, as a batch."""
        c = self.coeffs
        return BatchEstimate(
            y0=self.y0[index],
            y1=self.y1[index],
            y2=self.y2[index],
            rotation=self.rotation[index],
            residuals={key: v[index] for key, v in self.residuals.items()},
            conditioning={key: v[index] for key, v in self.conditioning.items()},
            warnings=[self.warnings[i] for i in index],
            errors=[self.errors[i] for i in index],
            coeffs=GrammianCoefficients(c.degree, [b[index] for b in c.blocks], c.residual[index]),
        )


@dataclass
class FittedStack:
    """What the fit stage of either method hands the shared finish, for a stack of B records.

    ``coeffs`` holds the (B, n, n) Grammian coefficient blocks and the B
    pair-fit residuals; a record whose fit overflowed has zeroed blocks,
    a NaN residual and its ``coefficient-fit`` error in ``errors``.
    ``factor`` is the (B, 2, n) acceleration factor of the accelerometer
    path (its centered sensor block), or None on the distance-only path,
    whose finish takes the MDS of 4 B_4 instead.  ``residuals`` maps each
    fit's name to its (B,) residuals and ``t_max`` holds each record's
    largest |t|, the only thing the finish reads of a time grid.
    """

    coeffs: GrammianCoefficients
    factor: Optional[np.ndarray]
    residuals: dict[str, np.ndarray]
    t_max: np.ndarray
    errors: list[Optional[EstimationError]]


def join_fitted(parts: Sequence[FittedStack]) -> FittedStack:
    """One stack of the records of ``parts``, in order, whatever time grids they were fitted on.

    The parts must come from one method's fit of one node count.
    """
    first = parts[0]
    if len(parts) == 1:
        return first
    kinds = {
        (p.coeffs.degree, p.coeffs.blocks[0].shape[1:], p.factor is None, tuple(p.residuals))
        for p in parts
    }
    if len(kinds) != 1:
        raise InvalidDimensionError("only stacks from one fit of one node count can be joined")
    blocks = [np.concatenate(stacks) for stacks in zip(*(p.coeffs.blocks for p in parts))]
    return FittedStack(
        coeffs=GrammianCoefficients(
            first.coeffs.degree, blocks, np.concatenate([p.coeffs.residual for p in parts])
        ),
        factor=None if first.factor is None else np.concatenate([p.factor for p in parts]),
        residuals={
            key: np.concatenate([p.residuals[key] for p in parts]) for key in first.residuals
        },
        t_max=np.concatenate([p.t_max for p in parts]),
        errors=[error for p in parts for error in p.errors],
    )


@lru_cache(maxsize=32)
def _vandermonde(t_bytes: bytes, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design, projector and unscaling powers of a degree-``degree`` fit.

    ``t_bytes`` holds the float64 time grid.  One QR factorization of the
    (degree+1)-column Vandermonde matrix gives the small (degree+1, K+1)
    projector R^-1 Q^T.  The time axis is rescaled to [-1, 1] before
    factorization and the coefficients are unscaled by the powers
    afterwards, which leaves the minimizer unchanged but keeps the factor
    well conditioned; a grid whose largest |t| raised to ``degree``
    falls below the smallest normal float cannot be unscaled and is
    rejected.  The arrays are read-only and cached per grid and
    degree: every record of a sweep's K shares one grid, and so does
    every single estimate at that K.
    """
    t = np.frombuffer(t_bytes)
    if t.size < degree + 1:
        raise SingularDesignError(
            f"need at least {degree + 1} samples for a degree-{degree} fit, got {t.size}"
        )
    scale = float(np.abs(t).max()) or 1.0
    # only a grid inside (-1, 1) can underflow; above 1, float ** raises OverflowError
    if scale < 1.0 and scale**degree < _TINY:
        raise SingularDesignError(
            f"time grid too short for a degree-{degree} fit: its largest |t| is {scale!r}, "
            f"whose power {degree} underflows float64"
        )
    a = np.vander(t / scale, degree + 1, increasing=True)
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise SingularDesignError("rank-deficient Vandermonde design (repeated timestamps?)")
    fit = a, np.linalg.solve(r, q.T), scale ** np.arange(degree + 1)
    for array in fit:
        array.flags.writeable = False
    return fit


def _poly_lstsq(timestamps, values, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares polynomial fit shared by all columns of ``values``.

    ``values`` is (K+1, m), or a stack (..., K+1, m) of such series; the
    grid's cached projector (see :func:`_vandermonde`) serves every column
    of every member in one matmul.  Returns the coefficients and the
    residual of the fit.
    """
    t = np.asarray(timestamps, dtype=float).ravel()
    vals = np.asarray(values, dtype=float)
    if vals.ndim < 2 or vals.shape[-2] != t.size:
        raise InvalidDimensionError("values must be (K+1, m) matching timestamps")
    a, projector, powers = _vandermonde(t.tobytes(), degree)
    coeffs = projector @ vals
    residual = a @ coeffs
    residual -= vals
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

    ``pairs`` is (..., m); the result is the (..., n, n) block stack.
    Centers by row and column means: each block stays exactly symmetric,
    and the cost is O(n^2) per block rather than two n-by-n matrix
    products.
    """
    d = edm_from_pairs(pairs, n)
    # in place: fewer (..., n, n) temporaries, the same operations in the same order
    r = d.mean(axis=-1)
    d -= r[..., :, None] + r[..., None, :]
    d += r.mean(axis=-1)[..., None, None]
    d *= -0.5
    return d


def _fit_edm_coeffs(meas: MeasurementSet, degree: int, accel=None) -> GrammianCoefficients:
    """Grammian coefficient blocks from one polynomial fit of the pair record.

    Double centering is linear and acts on each sample alone, so it
    commutes with the fit: fitting each pair's series with one shared
    Vandermonde projection and centering only the coefficient blocks gives
    :func:`fit_gram_coeffs` of the Grammian series, up to round-off.
    ``accel``, a centered (..., d, n) acceleration block, first deflates
    each pair by t^4 |a_i - a_j|^2 / 4 into a new array, since
    ``meas.pairs`` is the caller's; that double-centers to the
    vech(A^T A) t^4 / 4 that :func:`deflate_grams` removes.  A stacked
    ``meas`` gives stacked blocks, all from the grid's one projector.
    The residual is the norm of the pair fit's own residual.

    A record whose fit overflows float64 fails on its own: its blocks are
    zeroed and its residual is NaN, the mark :func:`_fitted_stack` reports
    as that record's ``coefficient-fit`` error.  The screen keeps 8|B|
    finite for every block B, since the MDS stage reads 4 B_4 and
    symmetrizes it by adding its transpose.
    """
    n, t, pairs = meas.n_nodes, meas.timestamps, meas.pairs
    with np.errstate(over="ignore", invalid="ignore"):
        if accel is not None:
            deflation = (t**4)[:, None] * (0.25 * pairs_from_points(accel))[..., None, :]
            pairs = np.subtract(pairs, deflation, out=deflation)
        coeffs, res = _poly_lstsq(t, pairs, degree)
        blocks = _double_center(coeffs, n)
        failed = ~np.isfinite(8.0 * np.abs(blocks).max(axis=(-3, -2, -1)))
        # the residual is as large as the data, so this errstate covers its sum too
        residual = _finite_norm(res, np.sqrt(_sum_squares(res)))
    if failed.any():
        blocks[failed] = 0.0
        residual = np.where(failed, np.nan, residual)
    return GrammianCoefficients(
        degree, [blocks[..., l, :, :] for l in range(degree + 1)], residual=residual
    )


def recover_position_acceleration(
    coeffs: GrammianCoefficients, d: int
) -> tuple[MdsResult, MdsResult]:
    """MDS factors of the constant and quartic Grammian coefficients.

    The constant block is the Grammian of the centered positions at t = 0;
    four times the quartic block is the Grammian of the accelerations.
    Both factors inherit zero row sums from the double-centered data, and
    each is known only up to its own orthogonal transform.  Stacked
    blocks give stacked factors.  Both come from one ``classical_mds``
    call, whose records never interact.
    """
    if coeffs.degree < 4:
        raise InvalidDimensionError("position/acceleration recovery needs a degree-4 fit")
    both = classical_mds(np.stack([coeffs.blocks[0], 4.0 * coeffs.blocks[4]]), d)
    if coeffs.blocks[0].ndim == 2:
        notes, discarded = both.warnings, both.discarded.tolist()
    else:
        half = len(both.warnings) // 2
        notes, discarded = [both.warnings[:half], both.warnings[half:]], both.discarded
    return tuple(
        MdsResult(both.points[i], both.eigenvalues[i], notes[i], discarded[i]) for i in (0, 1)
    )


def chu_decompose(bhat, yhat) -> ChuFactors:
    """Split B = A^T M + M^T A via the thin SVD of the known factor A = ``yhat``.

    ``bhat`` is the symmetric n-by-n B and ``yhat`` the 2-by-n A, or
    stacks (..., n, n) and (..., 2, n) of them, split by one stacked SVD.
    A must have full row rank (singular values above 1e-8 of the
    largest); otherwise the equation does not determine the split and
    ``degenerate`` flags it.  No n-by-n frame is formed: B is projected
    with P = I - vt^T vt applied as two rank-2 updates.
    """
    bhat = np.asarray(bhat, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    square = yhat.shape[:-2] + yhat.shape[-1:] * 2
    if yhat.ndim < 2 or yhat.shape[-2] != 2 or bhat.shape != square:
        raise InvalidDimensionError("chu_decompose needs yhat (2, n) and bhat (n, n)")
    u, lam, vt = np.linalg.svd(yhat, full_matrices=False)
    if lam.shape[-1] < 2:
        raise DegenerateGeometryError(_DEGENERATE_FACTOR)
    degenerate = lam[..., 1] <= 1e-8 * lam[..., 0]
    # a degenerate split divides by 1 instead, keeping its fields finite
    safe = np.where(degenerate[..., None], 1.0, lam) if degenerate.any() else lam
    vtt = vt.swapaxes(-1, -2)
    bv = bhat @ vtt
    lead = vt @ bv  # vt B vt^T
    bp = bhat - bv @ vt  # B P
    vbp = vt @ bp
    # ||P B P||, not ||B||^2 - ||vt B||^2, which cancels at zero noise
    residual = _norm(bp - vtt @ vbp)
    return ChuFactors(
        u=u, vt=vt, lam=lam, z1_diag=lead.diagonal(0, -2, -1) / (2.0 * safe),
        z2=vbp / safe[..., None], c=lead[..., 0, 1], residual=residual,
        repeated=lam[..., 0] / safe[..., 1] < 1.0 + 1e-6, degenerate=degenerate,
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
    the full SVD frame.  phi is the least-squares solution from the SVD
    of the rows, with ``lstsq``'s rank rule (singular values at most
    eps * max(rows, 6) times the largest count as zero); h is normalized
    to unit length and u recovered by projecting the bilinear components
    onto h, which avoids dividing by near-zero rotation components.
    Stacked splits give a stack of systems solved by one stacked SVD; a
    system without a usable solution is flagged in ``solvable``, not
    raised.
    """
    n = f0.vt.shape[-1]
    if f2.vt.shape[-1] != n:
        raise InvalidDimensionError("both splits must describe the same node count")
    _require_four_nodes(n)

    # g[..., j, :, :] = U2^T G_j U0 for the generators G = (I, _J) of h1*I + h2*_J
    g = f2.u.swapaxes(-1, -2)[..., None, :, :] @ _GENERATORS @ f0.u[..., None, :, :]
    free = f0.vt[..., ::-1, :]
    # coefficient matrices of N2 w.r.t. each basis component, (..., 6, 2, n): g_j @ known
    # for h_j, then the outer products of g_j's column k with free[k] for h_j * u_(k+1)
    outer = g.swapaxes(-1, -2)[..., :, :, :, None] * free[..., None, :, None, :]
    m = np.concatenate(
        [g @ f0.known[..., None, :, :], outer.reshape(outer.shape[:-4] + (4, 2, n))], axis=-3
    )
    vt2 = f2.vt[..., None, :, :]
    lead = m @ vt2.swapaxes(-1, -2)
    tie = np.zeros(f0.lam.shape[:-1] + (2, 6))
    tie[..., 0, 0] = tie[..., 1, 1] = -f0.c
    tie[..., 0, 2:4] = tie[..., 1, 4:6] = f0.lam
    w = np.concatenate(
        [
            lead.diagonal(0, -2, -1).swapaxes(-1, -2),
            (m - lead @ vt2).reshape(m.shape[:-2] + (2 * n,)).swapaxes(-1, -2),
            (f2.lam[..., :1] * lead[..., 0, 1] + f2.lam[..., 1:] * lead[..., 1, 0])[..., None, :],
            tie,
        ],
        axis=-2,
    )
    b = np.concatenate(
        [f2.z1_diag, f2.z2.reshape(f2.z2.shape[:-2] + (2 * n,)), f2.c[..., None], tie[..., 0, 4:]],
        axis=-1,
    )
    uw, sv, vwt = np.linalg.svd(w, full_matrices=False)
    kept = sv > _EPS * max(w.shape[-2], 6) * sv[..., :1]
    rank = kept.sum(axis=-1)
    full = rank == 6
    # singular values under the cutoff contribute nothing, as in lstsq
    scaled = (uw.swapaxes(-1, -2) @ b[..., None])[..., 0] / np.where(kept, sv, np.inf)
    phi = (vwt.swapaxes(-1, -2) @ scaled[..., None])[..., 0]
    gap = (w @ phi[..., None])[..., 0] - b
    h_norm = np.hypot(phi[..., 0], phi[..., 1])
    h = phi[..., :2] / np.maximum(h_norm, _TINY)[..., None]
    return BasisSystem(
        w=w, rhs=b, phi=phi, h=h, u=h[..., :1] * phi[..., 2:4] + h[..., 1:] * phi[..., 4:],
        residual=_norm(gap, -1), rank=rank,
        condition=_ratio(sv, full), h_norm=h_norm, solvable=full & (h_norm >= 1e-8),
    )


def _ratio(s: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """s[..., 0] / s[..., -1] of nonnegative, descending ``s``; NaN where ``kept`` is False.

    ``kept`` flags the records whose s[..., -1] passed a relative rank
    test, so it is positive and the quotient is finite: it cannot
    overflow.  The other records are flagged members of a stack, whose
    ratio is never reported.
    """
    return s[..., 0] / np.where(kept, s[..., -1], np.nan)


def recover_velocity(f0: ChuFactors, u) -> np.ndarray:
    """The velocity matrix u0 @ N0 of the split ``f0``.

    ``u`` (..., 2) supplies the two free entries of N0; the rest is
    ``f0.known``.
    """
    u = np.asarray(u, dtype=float)
    return f0.u @ (f0.known + u[..., :, None] * f0.vt[..., ::-1, :])


def _stage_error(label: str, exc: Exception) -> EstimationError:
    err = EstimationError(f"stage '{label}': {exc}")
    err.__cause__ = exc
    return err


@contextmanager
def _stage(label: str):
    """Re-raise pipeline errors, numpy's LinAlgError included, with the stage prepended."""
    try:
        yield
    except (RelkinError, np.linalg.LinAlgError) as exc:
        raise _stage_error(label, exc) from exc


def _merge(mask: np.ndarray, first: T, second: T) -> T:
    """Per record of a stack: the fields of ``second`` where ``mask`` is set, else of ``first``."""
    if not mask.any():
        return first
    if mask.all():
        return second
    picked = {}
    for item in fields(first):
        a, b = getattr(first, item.name), getattr(second, item.name)
        picked[item.name] = np.where(mask.reshape(mask.shape + (1,) * (a.ndim - mask.ndim)), b, a)
    return replace(first, **picked)


def _note(notes: list[list[str]], mask: np.ndarray, message: str) -> None:
    """Append ``message`` to the warnings of each record that ``mask`` flags."""
    for i in mask.nonzero()[0]:
        notes[i].append(message)


def _candidate_failure(f2: ChuFactors, basis: BasisSystem, negligible, i: int) -> str:
    """Why the acceleration factor split ``f2`` and the ``basis`` solved on it fail record ``i``."""
    if f2.degenerate[i]:
        return f"unusable ({_DEGENERATE_FACTOR})"
    if negligible[i]:
        return "negligible next to the positions over the record"
    return f"unusable ({_RANK_DEFICIENT_BASIS if basis.rank[i] < 6 else _VANISHING_ROTATION})"


def _solve(
    fitted: FittedStack,
    mds0: MdsResult,
    accel_factor: np.ndarray,
    notes: list[list[str]],
    conditioning: dict[str, np.ndarray],
) -> BatchEstimate:
    """Joint velocity/rotation solve shared by both data models, for a fitted stack.

    The methods differ only in where ``fitted.coeffs`` and the
    acceleration factor F (MDS factor of the quartic block, or centered
    sensor coefficients) come from.  MDS and an uncalibrated sensor frame
    fix F only up to an orthogonal transform, while the basis
    parameterization covers rotations only: F and its first-row-negated
    reflection are both tried, and the original is kept unless its
    residual exceeds ten times the reflected one's.  Both candidates share
    one split of F: _FLIP @ F has the SVD (_FLIP @ u) diag(lam) vt, so the
    reflection is a sign on the split's ``u``, and F alone decides the
    fallback flags.

    One fallback rule: if F is negligible next to the positions over the
    record (s_min(F)^2 t_max^4 <= _NEGLIGIBLE_ACCEL lambda_max(B0), e.g. a
    static network), rank deficient, or neither candidate gives a
    solvable basis system, the velocity is set to the minimum-norm
    completion of the first split and the rotation to identity, with a
    warning.  The negligible test compares s_min(F) t_max^2 with the root
    of the right side, so it cannot overflow; ``fitted.t_max`` gives each
    record its own t_max.

    Every stage runs once on the whole stack; the retry, the fallback
    and a degenerate velocity split are per-record masks, so one record's
    outcome never depends on the others.  No stage raises on a
    degenerate record: the splits and the basis systems flag it.  A
    record keeps the error its fit gave it.  Warning strings are built
    only for the records they concern.
    """
    coeffs, errors, residuals = fitted.coeffs, list(fitted.errors), dict(fitted.residuals)
    with _stage("velocity-split"):
        f0 = chu_decompose(coeffs.blocks[1], mds0.points)
    # a record whose fit overflowed has zeroed blocks, so its split is degenerate too
    for i in f0.degenerate.nonzero()[0]:
        if errors[i] is None:
            errors[i] = _stage_error("velocity-split", DegenerateGeometryError(_DEGENERATE_FACTOR))
    _note(notes, f0.repeated, f"velocity split: {_REPEATED}")
    residuals["velocity_split"] = f0.residual
    conditioning["velocity_split"] = _ratio(f0.lam, ~f0.degenerate)

    with _stage("basis-solve"):
        f2 = chu_decompose(2.0 * coeffs.blocks[3], accel_factor)
        bases = [build_and_solve_basis(f0, f) for f in (f2, replace(f2, u=_FLIP @ f2.u))]
    floor = np.sqrt(np.maximum(_NEGLIGIBLE_ACCEL * mds0.eigenvalues[..., 0], 0.0))
    negligible = ~f2.degenerate & (f2.lam[..., -1] * fitted.t_max**2 <= floor)
    ok = [~f2.degenerate & ~negligible & basis.solvable for basis in bases]
    fallback = ~(ok[0] | ok[1])
    reflected = ok[1] & (~ok[0] | (bases[0].residual > 10.0 * bases[1].residual))
    for i in fallback.nonzero()[0]:
        # the reflected candidate, tried last, names the reason
        notes[i].append(
            f"acceleration factor {_candidate_failure(f2, bases[1], negligible, i)}; "
            "velocity set to its minimum-norm completion and the rotation fixed to identity"
        )
    _note(notes, reflected & ~ok[0], "only the reflected acceleration factor admitted a solution")
    _note(
        notes,
        reflected & ok[0],
        "MDS reflection ambiguity detected; the reflected acceleration factor fit the "
        "coupled equations",
    )
    basis = _merge(reflected, *bases)
    _note(notes, f2.repeated & ~fallback, _REPEATED)

    u = basis.u
    rotation = np.empty(u.shape + (2,))
    rotation[..., 0, 0] = rotation[..., 1, 1] = basis.h[..., 0]
    rotation[..., 1, 0] = basis.h[..., 1]
    rotation[..., 0, 1] = -basis.h[..., 1]
    if reflected.any():
        # R @ _FLIP for the reflected factor: its first column negated
        rotation[reflected, :, 0] *= -1.0
    # NaN marks the residuals and spreads of the records that fell back
    mark = np.where(fallback, np.nan, 0.0)
    if fallback.any():
        # the minimum-norm (u1, u2) on lam[0] u1 + lam[1] u2 = c
        lam_sq = np.where(f0.degenerate, 1.0, _sum_squares(f0.lam, -1))
        u = np.where(fallback[..., None], (f0.c / lam_sq)[..., None] * f0.lam, u)
        rotation[fallback] = _EYE
    residuals["acceleration_split"] = f2.residual + mark
    residuals["basis"] = basis.residual + mark
    conditioning["acceleration_split"] = _ratio(f2.lam, ~f2.degenerate) + mark
    conditioning["basis"] = basis.condition + mark
    return BatchEstimate(
        y0=mds0.points,
        y1=recover_velocity(f0, u),
        y2=rotation @ accel_factor,
        rotation=rotation,
        residuals=residuals,
        conditioning=conditioning,
        warnings=notes,
        errors=errors,
        coeffs=coeffs,
    )


def finish_batch(fitted: FittedStack) -> BatchEstimate:
    """Estimates of every record of a fitted stack, from either method's fit and any grids.

    Steps: MDS of the constant block, and of four times the quartic
    block when the stack carries no acceleration factor (the distance-only
    path, where a static network's round-off quartic block takes the
    fallback), then the shared velocity/rotation solve (:func:`_solve`).
    Each stage is one stacked call over all records; none reads a time
    grid, so stacks fitted at different K finish together (see
    :func:`join_fitted`).
    """
    coeffs, factor = fitted.coeffs, fitted.factor
    # every fit admits only dim = 2
    with _stage("mds"):
        if factor is None:
            mds0, mds2 = recover_position_acceleration(coeffs, 2)
        else:
            mds0 = classical_mds(coeffs.blocks[0], 2)
    conditioning = {"position_mds": mds0.kept_over_discarded}
    if factor is None:
        notes = [
            [f"position factor: {w}" for w in p] + [f"acceleration factor: {w}" for w in a]
            for p, a in zip(mds0.warnings, mds2.warnings)
        ]
        conditioning["acceleration_mds"] = mds2.kept_over_discarded
        factor = mds2.points
    else:
        notes = [[f"position factor: {w}" for w in p] for p in mds0.warnings]
    return _solve(fitted, mds0, factor, notes, conditioning)


def _one_record(meas: MeasurementSet) -> MeasurementSet:
    if meas.pairs.ndim == 3 and len(meas.pairs) != 1:
        raise InvalidDimensionError(
            f"a single estimate takes one record, got a stack of {len(meas.pairs)}; "
            "use the batch entry point"
        )
    return meas


def _fit_input(meas: MeasurementSet, d: int) -> MeasurementSet:
    """``meas`` as a stack, once the causes every record of it shares are ruled out."""
    if d != 2:
        raise InvalidDimensionError("the closed-form pipeline is implemented for dim = 2")
    with _stage("basis-solve"):
        _require_four_nodes(meas.n_nodes)
    return meas.as_batch()


def _fitted_stack(
    meas: MeasurementSet, degree: int, factor=None, residuals=None
) -> FittedStack:
    """The degree-``degree`` pair fit of the stack ``meas``, deflated by ``factor`` if given.

    A record whose fit overflowed gets its ``coefficient-fit`` error here;
    ``residuals`` are the method's earlier fit residuals, which
    ``edm_fit`` follows.
    """
    with _stage("coefficient-fit"):
        coeffs = _fit_edm_coeffs(meas, degree, accel=factor)
    errors: list[Optional[EstimationError]] = [None] * len(coeffs.residual)
    for i in np.isnan(coeffs.residual).nonzero()[0]:
        overflow = InvalidDimensionError("the squared distances overflow the fitted blocks")
        errors[i] = _stage_error("coefficient-fit", overflow)
    t_max = np.full(len(errors), float(np.abs(meas.timestamps).max()))
    residuals = {**(residuals or {}), "edm_fit": coeffs.residual}
    return FittedStack(coeffs, factor, residuals, t_max, errors)


def fit_from_distances(meas: MeasurementSet, d: int = 2) -> FittedStack:
    """The distance-only fit of every record of ``meas`` (a stack, or one record).

    A degree-4 fit of the pair records and double centering of their
    coefficient blocks; :func:`finish_batch` does the rest.  Raises only
    for a cause that every record shares (the dimension, fewer than four
    nodes, the time grid).
    """
    return _fitted_stack(_fit_input(meas, d), degree=4)


def estimate_from_distances_batch(meas: MeasurementSet, d: int = 2) -> BatchEstimate:
    """Distance-only estimates of every record of ``meas`` (a stack, or one record).

    The finish of its fit: ``finish_batch(fit_from_distances(meas, d))``.
    """
    return finish_batch(fit_from_distances(meas, d))


def estimate_from_distances(meas: MeasurementSet, d: int = 2) -> KinematicEstimate:
    """Recover relative position, velocity and acceleration from EDMs only.

    The batch of one of :func:`estimate_from_distances_batch`: ``meas``
    holds one record, and a failed record raises its stage-labelled
    EstimationError.
    """
    return estimate_from_distances_batch(_one_record(meas), d).estimate(0)
