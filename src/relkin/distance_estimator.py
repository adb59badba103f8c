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
grid into a :class:`FittedStack` of n-by-n coefficient blocks, every
record scaled to unit scale by exact powers of two (:func:`_fit_input`).
The finish (:func:`finish_batch`, shared by both methods) runs the MDS
and the solve on those blocks, whose shape is the same for every grid,
and scales its outputs back to each record's units; so stacks fitted on
different grids join (:func:`join_fitted`) and finish in one call.  The
batch entry points are a finish of one fit, and a single estimate is the
batch of one.  Each stage of the finish is one stacked call: one MDS (of
both factors on the distance-only path), one split of both Lyapunov-like
equations and one basis solve of both reflection candidates.  The
choices a record needs of its own (reflection retry, fallback, a
degenerate split) are per-record masks, so each record comes out as it
would alone.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from typing import Optional, Sequence

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
from .linalg import _TINY, _norm, _norm_discarding, _sum_squares
from .linalg import unvech
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
_AMBIGUOUS = (
    "MDS reflection ambiguity detected; the reflected acceleration factor fit the coupled equations"
)
_OVERFLOW = "the estimate overflows float64 in the units of the record"
#: a position_mds below this warns.  Measured over 20 seeds: the benchmark
#: scene reads at least 9.9e3 (99 with 100 times its distance noise), random
#: well-posed scenes of 4 to 100 nodes at least 5.1e3, while collinear scenes
#: read 0.40 to 0.97 and i.i.d. uniform "squared distances" 0.57 to 1.10,
#: so the threshold leaves at least 9 times margin on either side
_PLANAR_MDS = 10.0
_NOT_PLANAR = "position factor: position_mds below 10; no planar network fits the squared distances"
#: the units of each residual: (a, b) for length^a / time^b
_UNITS = {"accel_fit": (1, 2), "edm_fit": (2, 0), "velocity_split": (2, 1),
          "acceleration_split": (2, 3), "basis": (1, 1)}
_REPEATED = (
    "nearly repeated singular values; the SVD frame is ill determined and the "
    "basis solve relies on its residual check"
)


@dataclass
class GrammianCoefficients:
    """Symmetric coefficient blocks of the fitted Grammian polynomial.

    For a stack of B records, ``blocks[l]`` is the (B, n, n) stack of
    block l and ``residual`` holds the B fit residuals.  Each producer
    reports the residual of the fit it solves: the estimators' pair fit
    gives the norm over all pairs and samples of the squared-distance
    residual (of the series less its quartic term on the accelerometer
    path, computed in coefficient space), in length^2;
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
    (u1, u2) on the :attr:`line` lam[0] u1 + lam[1] u2 = ``c`` =
    (vt B vt^T)[0, 1].
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

    @cached_property
    def line(self) -> tuple[np.ndarray, np.ndarray]:
        """The free entries' line lam[0] u1 + lam[1] u2 = c over lam[0], as (r, q).

        r = lam / lam[0] = (1, lam[1] / lam[0]) is (..., 2) and q = c / lam[0]
        is (...,), so the line reads r . u = q.  lam[0] is the factor's own
        size, so neither quotient can overflow; a zero factor takes
        r = (1, 0) and q = c.  Computed once per split.
        """
        scale = np.where(self.lam[..., :1] > 0.0, self.lam[..., :1], 1.0)
        # lam[0] / lam[0] is 1 exactly, and the maximum gives a zero factor r = (1, 0)
        return np.maximum(self.lam / scale, _EYE[0]), self.c / scale[..., 0]


@dataclass
class BasisSystem:
    """Stacked linear system over the bilinear basis of (rotation, position on the f0 line).

    ``phi`` solves rows @ phi ~ rhs in least squares for the basis vector
    (h1, h2, h1*s, h2*s), where the free entries u = base + s*perp of the
    velocity split run along its line (see :attr:`ChuFactors.line`);
    every row and ``residual`` are in length/time.  ``base`` is the
    line's minimum-norm point, ``h`` the normalized rotation pair,
    ``h_norm`` its length before normalization, and ``u`` the recovered
    free entries, on the line to round-off.
    ``condition`` is s_max/s_min of ``w``, NaN below rank 4.
    ``solvable`` flags a usable solution: ``rank`` 4 and ``h_norm`` at
    least 1e-8.  The system of a stack of splits carries its leading axes
    on every field.
    """

    w: np.ndarray
    rhs: np.ndarray
    base: np.ndarray
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

    The fit runs at unit scale (see :func:`_fit_input`): record i's pairs
    were divided by 4^e, its grid by 2^f and its accelerations by
    2^(e - 2f), where ``exponent[i]`` is e and ``t_max[i]``, the record's
    largest |t|, is m 2^f with m in [0.5, 1) (``np.frexp``).  So
    ``coeffs``, ``factor`` and ``residuals`` are at unit scale, and the
    finish scales what it returns back.  ``t_max`` is the only thing the
    finish reads of a time grid.

    ``coeffs`` holds the (B, n, n) Grammian coefficient blocks and the B
    pair-fit residuals.  ``factor`` is the (B, 2, n) acceleration factor
    of the accelerometer path (its centered sensor block), or None on
    the distance-only path, whose finish takes the MDS of 4 B_4 instead.
    ``residuals`` maps each fit's name to its (B,) residuals, and
    ``errors`` holds each record's fit error, or None.
    """

    coeffs: GrammianCoefficients
    factor: Optional[np.ndarray]
    residuals: dict[str, np.ndarray]
    t_max: np.ndarray
    errors: list[Optional[EstimationError]]
    exponent: np.ndarray


def join_fitted(parts: Sequence[FittedStack]) -> FittedStack:
    """One stack of the records of ``parts``, in order, whatever time grids they were fitted on.

    The parts must come from one method's fit of one node count.
    """
    first = parts[0]
    kinds = {
        (p.coeffs.degree, p.coeffs.blocks[0].shape[1:], p.factor is None, tuple(p.residuals))
        for p in parts
    }
    if len(kinds) != 1:
        raise InvalidDimensionError("only stacks from one fit of one node count can be joined")
    blocks = [np.concatenate(stacks) for stacks in zip(*(p.coeffs.blocks for p in parts))]
    residual = np.concatenate([p.coeffs.residual for p in parts])
    return FittedStack(
        coeffs=GrammianCoefficients(first.coeffs.degree, blocks, residual),
        factor=None if first.factor is None else np.concatenate([p.factor for p in parts]),
        residuals={k: np.concatenate([p.residuals[k] for p in parts]) for k in first.residuals},
        t_max=np.concatenate([p.t_max for p in parts]),
        errors=[error for p in parts for error in p.errors],
        exponent=np.concatenate([p.exponent for p in parts]),
    )


@lru_cache(maxsize=32)
def _vandermonde(t_bytes: bytes, degree: int) -> tuple[np.ndarray, ...]:
    """Design and projector of a degree-``degree`` fit, and of one deflated by a quartic term.

    ``t_bytes`` holds the float64 time grid.  One QR factorization of the
    (degree+1)-column Vandermonde matrix ``a`` gives the small
    (degree+1, K+1) projector P = R^-1 Q^T.  A fit deflated by a quartic
    term reads the augmented design [a | t^4] and p4 = P t^4.  The
    estimators' grids arrive at unit scale, in [-1, 1] (see
    :func:`_fit_input`), and :func:`fit_gram_coeffs` scales its grid
    there, so the factor is well conditioned.  The arrays are read-only
    and cached per grid and degree: every record of a sweep's K shares
    one grid, and so does every single estimate at that K.
    """
    t = np.frombuffer(t_bytes)
    if t.size < degree + 1:
        raise SingularDesignError(
            f"need at least {degree + 1} samples for a degree-{degree} fit, got {t.size}"
        )
    a = np.vander(t, degree + 1, increasing=True)
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise SingularDesignError("rank-deficient Vandermonde design (repeated timestamps?)")
    projector, t4 = np.linalg.solve(r, q.T), t**4
    return _read_only((a, projector, np.column_stack([a, t4]), projector @ t4))


def _read_only(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _poly_lstsq(timestamps, values, degree: int, quartic=None, scale=1.0):
    """Least-squares polynomial fit shared by all columns of ``values``.

    ``values`` is (K+1, m), or a stack (..., K+1, m) of such series; the
    grid's cached projector (see :func:`_vandermonde`) serves every column
    of every member in one matmul.  Returns the coefficients and the
    residual of the fit, which takes v a few thousand entries per member
    at a time, so the fit holds one record-sized array, its residual.

    ``quartic``, weights w of shape (m,) or (..., m), fits the deflated
    series v - t^4 w instead, in coefficient space: the fit is linear, so
    its coefficients are P v - p4 w, and its residual is one product of
    the augmented design [a | t^4] with the stacked [c; w], minus v.  No
    deflated (..., K+1, m) series is formed.

    ``scale``, one power of two (or 0), or one per member of a
    (B, K+1, m) stack, fits the scaled series scale v instead, bit for
    bit, without forming it: the coefficients come from the scaled
    projector, (scale P) v, and the residual subtracts scale v a few
    thousand entries at a time.
    """
    t = np.asarray(timestamps, dtype=float).ravel()
    vals = np.asarray(values, dtype=float)
    if vals.ndim < 2 or vals.shape[-2] != t.size:
        raise InvalidDimensionError("values must be (K+1, m) matching timestamps")
    a, projector, design, p4 = _vandermonde(t.tobytes(), degree)
    scale = np.asarray(scale, dtype=float)[..., None, None]
    coeffs = (projector * scale) @ vals
    if quartic is None:
        residual = a @ coeffs
    else:
        w = quartic[..., None, :]
        coeffs -= p4[:, None] * w
        residual = design @ np.concatenate([coeffs, w], axis=-2)
    step = max(1, 4096 // vals.shape[-1])
    for rows in (slice(k, k + step) for k in range(0, t.size, step)):
        np.subtract(residual[..., rows, :], vals[..., rows, :] * scale, out=residual[..., rows, :])
    return coeffs, residual


def fit_gram_coeffs(gram_vecs, timestamps, degree: int) -> GrammianCoefficients:
    """Fit half-vectorized Grammians with a degree-``degree`` polynomial.

    ``gram_vecs`` stacks vech(G_k) row-wise over the K+1 timestamps.  The
    block structure of the full design matrix makes the problem one small
    polynomial fit per vech component, all sharing a single Vandermonde
    factorization; the returned blocks are the un-vech'd coefficient
    matrices, exactly symmetric by construction.  The grid is fitted at
    unit scale, divided by 2^f with max |t| = m 2^f, m in [0.5, 1), and
    coefficient l multiplied back by 2^(-l f): both steps are exact, so
    the fit is as well conditioned on a grid of any length or unit.  A
    grid so short that the coefficients overflow float64 in its units
    raises SingularDesignError.
    """
    gram_vecs = np.asarray(gram_vecs, dtype=float)
    t = np.asarray(timestamps, dtype=float).ravel()
    f = np.frexp(np.abs(t).max(initial=0.0))[1]
    coeffs, res = _poly_lstsq(np.ldexp(t, -f), gram_vecs, degree)
    with np.errstate(over="raise"):
        try:
            coeffs = np.ldexp(coeffs, -f * np.arange(degree + 1)[:, None])
        except FloatingPointError:
            message = f"time grid too short: the degree-{degree} coefficients overflow float64"
            raise SingularDesignError(message) from None
    return GrammianCoefficients(degree, [unvech(row) for row in coeffs], float(np.linalg.norm(res)))


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


def _fit_edm_coeffs(meas: MeasurementSet, degree: int, accel=None, scale=1.0):
    """Grammian coefficient blocks from one polynomial fit of the pair record.

    Double centering is linear and acts on each sample alone, so it
    commutes with the fit: fitting each pair's series with one shared
    Vandermonde projection and centering only the coefficient blocks gives
    :func:`fit_gram_coeffs` of the Grammian series, up to round-off.
    ``accel``, a centered (..., d, n) acceleration block, deflates each
    pair by t^4 |a_i - a_j|^2 / 4, which double-centers to the
    vech(A^T A) t^4 / 4 that :func:`deflate_grams` removes.  The fit is
    linear, so the deflation happens in coefficient space
    (:func:`_poly_lstsq`'s ``quartic``): no deflated copy of the record
    is made.  A stacked ``meas`` gives stacked blocks, all from the
    grid's one projector.  The residual is the norm of the pair fit's own
    residual, taken before the blocks are built, so that the record-sized
    residual is freed first; it is squared in place for that norm, so the
    fit holds one record-sized array beside its input.  ``scale`` (see
    :func:`_poly_lstsq`) fits each record's pairs times its scale.
    """
    quartic = None if accel is None else 0.25 * pairs_from_points(accel)
    coeffs, res = _poly_lstsq(meas.timestamps, meas.pairs, degree, quartic, scale)
    # rebinding res frees the record-sized residual before the blocks are built
    res = _norm_discarding(res)
    blocks = _double_center(coeffs, meas.n_nodes)
    return GrammianCoefficients(degree, list(np.moveaxis(blocks, -3, 0)), residual=res)


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
    both = classical_mds(np.array([coeffs.blocks[0], 4.0 * coeffs.blocks[4]]), d)
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
        # halving the quotient, not the divisor, cannot overflow for a huge factor
        u=u, vt=vt, lam=lam, z1_diag=0.5 * (lead.diagonal(0, -2, -1) / safe),
        z2=vbp / safe[..., None], c=lead[..., 0, 1], residual=residual,
        repeated=lam[..., 0] / safe[..., 1] < 1.0 + 1e-6, degenerate=degenerate,
    )


def _require_four_nodes(n: int) -> None:
    if n < 4:
        raise NonUniqueSolutionError(
            f"{n} nodes give 2n - 3 independent basis equations, fewer than 4 unknowns; need n >= 4"
        )


def build_and_solve_basis(f0: ChuFactors, f2: ChuFactors) -> BasisSystem:
    """Solve the coupled pair of Lyapunov-like splits for (rotation, unknowns).

    Writing N0 and N2 for the velocity coordinates of ``f0`` and ``f2``
    (see :class:`ChuFactors`), the two splits are linked by
    N2 = (U2^T R^T U0) N0 with R the planar rotation parameterized by
    h = (h1, h2).  The free entries of N0 lie on ``f0``'s line, so they
    are u = base + s*perp with base = q r / |r|^2 = c lam / |lam|^2 its
    minimum-norm point and perp = (r[1], -r[0]) its direction (see
    :attr:`ChuFactors.line`); only ``f0``'s line needs that point.
    Every entry of N2 is then linear in the basis vector
    phi = (h1, h2, h1*s, h2*s), whose four (2, n) coefficient matrices
    g_j @ (known + base*free) and g_j @ (perp*free) are stacked once; the
    2n + 3 rows are sliced out of that stack:

    - the two diagonal entries of the leading block N2 @ vt2^T,
    - the trailing part N2 - (N2 @ vt2^T) @ vt2, row 0 then row 1 (2n
      rows, matched to ``f2.z2``),
    - the off-diagonal constraint of ``f2`` divided by ``f2.lam[0]``, a
      known linear combination of two leading-block entries.

    Every row is in length/time, so phi's least-squares solution, and with
    it h and u, does not depend on the units.  The rank rule and
    ``condition`` would see them, since the h columns carry length/time
    and the h*s columns none; the estimators solve at unit scale (see
    :func:`_fit_input`), where neither does.  The trailing rows span only
    the (n - 2)-dimensional complement of vt2's rows, so the normal equations equal those of the
    2n - 1 rows of the full SVD frame.  phi is the least-squares solution
    from the SVD of the rows, with ``lstsq``'s rank rule (singular values
    at most eps * max(rows, 4) times the largest count as zero); h is
    normalized to unit length and s recovered by projecting phi[2:] onto
    h, which avoids dividing by near-zero rotation components.  Stacked
    splits give a stack of systems solved by one stacked SVD; a system
    without a usable solution is flagged in ``solvable``, not raised.
    ``f2.u`` may carry leading axes that the rest of both splits lacks,
    such as the reflection candidates (u, _FLIP @ u) of one factor: the
    systems then carry those axes too, every candidate shares the
    right-hand side, and each system is solved as it would be alone.
    """
    n = f0.vt.shape[-1]
    if f2.vt.shape[-1] != n:
        raise InvalidDimensionError("both splits must describe the same node count")
    _require_four_nodes(n)

    # g[..., j, :, :] = U2^T G_j U0 for the generators G = (I, _J) of h1*I + h2*_J
    g = f2.u.swapaxes(-1, -2)[..., None, :, :] @ _GENERATORS @ f0.u[..., None, :, :]
    r, q = f0.line
    base, perp = (q / _sum_squares(r, -1))[..., None] * r, r @ _J.T  # perp = (r[1], -r[0])
    free = f0.vt[..., ::-1, :]
    # N0 = parts[0] + s * parts[1]; m holds the coefficient matrices of N2, (..., 4, 2, n)
    parts = np.stack([f0.known + base[..., None] * free, perp[..., None] * free], axis=-3)
    m = (g[..., None, :, :, :] @ parts[..., :, None, :, :]).reshape(g.shape[:-3] + (4, 2, n))
    vt2 = f2.vt[..., None, :, :]
    lead = m @ vt2.swapaxes(-1, -2)
    r2, q2 = f2.line
    w = np.concatenate(
        [
            lead.diagonal(0, -2, -1).swapaxes(-1, -2),
            (m - lead @ vt2).reshape(m.shape[:-2] + (2 * n,)).swapaxes(-1, -2),
            (r2[..., :1] * lead[..., 0, 1] + r2[..., 1:] * lead[..., 1, 0])[..., None, :],
        ],
        axis=-2,
    )
    b = np.concatenate([f2.z1_diag, f2.z2.reshape(f2.z2.shape[:-2] + (2 * n,)), q2[..., None]], -1)
    uw, sv, vwt = np.linalg.svd(w, full_matrices=False)
    kept = sv > _EPS * max(w.shape[-2:]) * sv[..., :1]
    rank = kept.sum(axis=-1)
    full = rank == 4
    # singular values under the cutoff contribute nothing, as in lstsq
    scaled = (uw.swapaxes(-1, -2) @ b[..., None])[..., 0] / np.where(kept, sv, np.inf)
    phi = (vwt.swapaxes(-1, -2) @ scaled[..., None])[..., 0]
    gap = (w @ phi[..., None])[..., 0] - b
    h_norm = np.hypot(phi[..., 0], phi[..., 1])
    h = phi[..., :2] / np.maximum(h_norm, _TINY)[..., None]
    return BasisSystem(
        # s = h . phi[2:] places u on the line
        w=w, rhs=b, base=base, phi=phi, h=h,
        u=base + (h * phi[..., 2:]).sum(-1, keepdims=True) * perp,
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


def _note(notes: list[list[str]], mask: np.ndarray, message: str) -> None:
    """Append ``message`` to the warnings of each record that ``mask`` flags."""
    for i in mask.nonzero()[0]:
        notes[i].append(message)


def _candidate_failure(f2: ChuFactors, rank: np.ndarray, negligible, i: int) -> str:
    """Why the acceleration factor split ``f2``, with basis ranks ``rank``, fails record ``i``."""
    if f2.degenerate[i]:
        return f"unusable ({_DEGENERATE_FACTOR})"
    if negligible[i]:
        return "negligible next to the positions over the record"
    return f"unusable ({_RANK_DEFICIENT_BASIS if rank[i] < 4 else _VANISHING_ROTATION})"


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
    reflection are both tried, and each record keeps the one with the
    lower basis residual (an exact tie keeps the original).  Both
    candidates share one split of F: _FLIP @ F has the SVD
    (_FLIP @ u) diag(lam) vt, so the reflection is a sign on the split's
    ``u``, and F alone decides the fallback flags.  So the finish makes
    one stacked split, of B1 on the position factor and 2 B3 on F, and
    one stacked basis solve, with the two candidates on a leading axis of
    ``u``; each record then takes the rotation, free entries, residual
    and condition of its candidate.

    One fallback rule: if F is negligible next to the positions over the
    record (s_min(F)^2 t_max^4 <= _NEGLIGIBLE_ACCEL lambda_max(B0), e.g. a
    static network), rank deficient, or neither candidate gives a
    solvable basis system, the velocity is set to the minimum-norm
    completion of the first split and the rotation to identity, with a
    warning.  The negligible test compares s_min(F) t_max^2 with the root
    of the right side, at unit scale, where each record's t_max is the
    mantissa of its ``fitted.t_max``.

    The whole solve runs at the fit's unit scale, and so does the batch
    it returns; :func:`finish_batch` scales it back.

    Every stage runs once on the whole stack; the retry, the fallback
    and a degenerate velocity split are per-record masks, so one record's
    outcome never depends on the others.  No stage raises on a
    degenerate record: the splits and the basis systems flag it.  A
    record keeps the error its fit gave it.  Warning strings are built
    only for the records they concern.
    """
    coeffs, errors, residuals = fitted.coeffs, list(fitted.errors), dict(fitted.residuals)
    with _stage("velocity-split"):
        both = chu_decompose(
            np.array([coeffs.blocks[1], 2.0 * coeffs.blocks[3]]),
            np.array([mds0.points, accel_factor]),
        )
    f0, f2 = (ChuFactors(*(getattr(both, k.name)[i] for k in fields(ChuFactors))) for i in (0, 1))
    for i in f0.degenerate.nonzero()[0]:
        degenerate = DegenerateGeometryError(_DEGENERATE_FACTOR)
        errors[i] = errors[i] or _stage_error("velocity-split", degenerate)
    _note(notes, f0.repeated, f"velocity split: {_REPEATED}")
    residuals["velocity_split"] = f0.residual
    conditioning["velocity_split"] = _ratio(f0.lam, ~f0.degenerate)

    with _stage("basis-solve"):
        bases = build_and_solve_basis(f0, replace(f2, u=np.array([f2.u, _FLIP @ f2.u])))
    floor = np.sqrt(np.maximum(_NEGLIGIBLE_ACCEL * mds0.eigenvalues[..., 0], 0.0))
    negligible = ~f2.degenerate & (f2.lam[..., -1] * np.frexp(fitted.t_max)[0] ** 2 <= floor)
    ok = ~f2.degenerate & ~negligible & bases.solvable
    fallback = ~(ok[0] | ok[1])
    reflected = ok[1] & (~ok[0] | (bases.residual[0] > bases.residual[1]))
    for i in fallback.nonzero()[0]:
        # the reflected candidate, tried last, names the reason
        notes[i].append(
            f"acceleration factor {_candidate_failure(f2, bases.rank[1], negligible, i)}; "
            "velocity set to its minimum-norm completion and the rotation fixed to identity"
        )
    _note(notes, reflected & ~ok[0], "only the reflected acceleration factor admitted a solution")
    _note(notes, reflected & ok[0], _AMBIGUOUS)
    _note(notes, f2.repeated & ~fallback, _REPEATED)

    h, u = (np.where(reflected[:, None], x[1], x[0]) for x in (bases.h, bases.u))
    basis_residual, condition = (
        np.where(reflected, x[1], x[0]) for x in (bases.residual, bases.condition)
    )
    # R = h1 I + h2 _J^T: the generators combine into its transpose
    rotation = h[..., :1, None] * _EYE + h[..., 1:, None] * _J.T
    # R @ _FLIP for the reflected factor: its first column negated
    rotation[reflected, :, 0] *= -1.0
    # NaN marks the residuals and spreads of the records that fell back
    mark = np.where(fallback, np.nan, 0.0)
    if fallback.any():
        # the minimum-norm (u1, u2) on lam[0] u1 + lam[1] u2 = c
        u = np.where(fallback[..., None], bases.base, u)
        rotation[fallback] = _EYE
    residuals["acceleration_split"] = f2.residual + mark
    residuals["basis"] = basis_residual + mark
    conditioning["acceleration_split"] = _ratio(f2.lam, ~f2.degenerate) + mark
    conditioning["basis"] = condition + mark
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


@lru_cache(maxsize=8)
def _unit_powers(degree: int, keys: tuple[str, ...]) -> np.ndarray:
    """(a, b) rows, for length^a / time^b, of y0, y1, y2, each block and each residual in ``keys``.

    int32, as the exponents are: mixed widths would cast.  Read-only.
    """
    units = [(1, p) for p in range(3)] + [(2, l) for l in range(degree + 1)]
    return _read_only((np.array(units + [_UNITS[key] for key in keys], np.int32),))[0]


def _in_units(batch: BatchEstimate, fitted: FittedStack) -> BatchEstimate:
    """``batch``, estimated at the fit's unit scale, back in the units of each record.

    An output in length^a / time^b is multiplied by 2^(a e - b f), with e
    and f the record's exponents (see :class:`FittedStack`): y0, y1, y2 by
    2^e, 2^(e - f), 2^(e - 2f), block l by 2^(2e - l f), and each residual
    by its units in ``_UNITS``.  A record whose estimate overflows float64
    in its own units, such as the velocities of a grid a few 1e-300 long,
    fails at ``scale-back``; its outputs are only scanned for inf when
    some product overflowed.
    """
    c, res = batch.coeffs, batch.residuals
    exponents = np.array([fitted.exponent, -np.frexp(fitted.t_max)[1]])
    powers = _unit_powers(c.degree, tuple(res)) @ exponents
    outputs = [batch.y0, batch.y1, batch.y2, *c.blocks]
    overflowed: list[str] = []
    # ldexp is exact wherever the result is a normal float, even where 2^k is no float
    with np.errstate(over="call", call=lambda kind, flag: overflowed.append(kind)):
        y0, y1, y2, *blocks = map(np.ldexp, outputs, powers[:, :, None, None])
        values = np.ldexp(np.array(list(res.values())), powers[len(outputs) :])
    scaled = [y0, y1, y2, *blocks, values.T]
    lost = {i for x in scaled for i in np.isinf(x).nonzero()[0]} if overflowed else ()
    for i in lost:
        overflow = _stage_error("scale-back", InvalidDimensionError(_OVERFLOW))
        batch.errors[i] = batch.errors[i] or overflow
    # batch is the solve's own, and its errors were set in place already
    batch.y0, batch.y1, batch.y2, batch.residuals = y0, y1, y2, dict(zip(res, values))
    batch.coeffs = GrammianCoefficients(c.degree, blocks, batch.residuals["edm_fit"])
    return batch


def finish_batch(fitted: FittedStack) -> BatchEstimate:
    """Estimates of every record of a fitted stack, from either method's fit and any grids.

    Steps: MDS of the constant block, and of four times the quartic
    block when the stack carries no acceleration factor (the distance-only
    path, where a static network's round-off quartic block takes the
    fallback), then the shared velocity/rotation solve (:func:`_solve`),
    all at the fit's unit scale, and the scale back (:func:`_in_units`).
    Each stage is one stacked call over all records; none reads a time
    grid, so stacks fitted at different K finish together (see
    :func:`join_fitted`).  A ``position_mds`` below ``_PLANAR_MDS`` is
    warned about.
    """
    coeffs, factor = fitted.coeffs, fitted.factor
    # every fit admits only dim = 2
    with _stage("mds"):
        if factor is None:
            mds0, mds2 = recover_position_acceleration(coeffs, 2)
        else:
            mds0 = classical_mds(coeffs.blocks[0], 2)
    conditioning = {"position_mds": mds0.kept_over_discarded}
    notes = [[f"position factor: {w}" for w in p] for p in mds0.warnings]
    _note(notes, conditioning["position_mds"] < _PLANAR_MDS, _NOT_PLANAR)
    if factor is None:
        for mine, found in zip(notes, mds2.warnings):
            mine += [f"acceleration factor: {w}" for w in found]
        conditioning["acceleration_mds"] = mds2.kept_over_discarded
        factor = mds2.points
    return _in_units(_solve(fitted, mds0, factor, notes, conditioning), fitted)


def _one_record(meas: MeasurementSet) -> MeasurementSet:
    if meas.pairs.ndim == 3 and len(meas.pairs) != 1:
        raise InvalidDimensionError(
            f"a single estimate takes one record, got a stack of {len(meas.pairs)}; "
            "use the batch entry point"
        )
    return meas


def _fit_input(meas: MeasurementSet, d: int) -> tuple[MeasurementSet, np.ndarray, np.ndarray]:
    """``meas`` as a stack at unit scale, once the causes every record of it shares are ruled out.

    The data model is homogeneous in its units: block B_l scales as
    length^2 / time^l, and y0, y1, y2 as length, length/time and
    length/time^2.  So every record is scaled by exact powers of two: its
    pairs by 4^-e, with 2^e near its largest distance (per record, so each
    is estimated as if alone), and the shared grid by 2^-f, with
    max |t| = m 2^f, m in [0.5, 1).  The accelerometer path scales the
    accelerations by 2^(2f - e).  Every stage then runs at unit scale, far
    from overflow and underflow, and no rank rule or conditioning sees the
    units.  Returns the stack on its scaled grid (its pairs and accels as
    they are: the fits scale them), each record's e and each record's
    max |t|.
    """
    if d != 2:
        raise InvalidDimensionError("the closed-form pipeline is implemented for dim = 2")
    with _stage("basis-solve"):
        _require_four_nodes(meas.n_nodes)
    # a shallow copy whose grid can be replaced; a single record gets a record axis, on views
    unit = copy.copy(meas)
    if meas.pairs.ndim == 2:
        unit.pairs = meas.pairs[None]
        unit.accels = None if meas.accels is None else meas.accels[None]
    # e >= -500 keeps 4^-e times the projector finite for subnormal pairs; zero pairs take e = 0
    exponent = np.maximum(np.frexp(unit.pairs.max(axis=(1, 2)))[1] // 2, -500)
    t_max = np.abs(unit.timestamps).max()
    unit.timestamps = np.ldexp(unit.timestamps, -np.frexp(t_max)[1])
    return unit, exponent, np.full(len(exponent), t_max)


def _fitted_stack(unit, exponent, t_max, degree, factor=None, residuals=None, errors=None):
    """The degree-``degree`` pair fit of the unit-scale stack ``unit``, deflated by ``factor``.

    ``exponent`` and ``t_max`` come from :func:`_fit_input`;
    ``residuals`` are the method's earlier fit residuals, which
    ``edm_fit`` follows, and ``errors`` its records' errors so far.
    """
    with _stage("coefficient-fit"):
        coeffs = _fit_edm_coeffs(unit, degree, factor, np.ldexp(1.0, -2 * exponent))
    residuals = {**(residuals or {}), "edm_fit": coeffs.residual}
    return FittedStack(coeffs, factor, residuals, t_max, errors or [None] * len(t_max), exponent)


def fit_from_distances(meas: MeasurementSet, d: int = 2) -> FittedStack:
    """The distance-only fit of every record of ``meas`` (a stack, or one record).

    A degree-4 fit of the pair records and double centering of their
    coefficient blocks; :func:`finish_batch` does the rest.  Raises only
    for a cause that every record shares (the dimension, fewer than four
    nodes, the time grid).
    """
    return _fitted_stack(*_fit_input(meas, d), degree=4)


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
