"""Dense linear-algebra kernels shared by the estimators and the simulator.

Every routine is a pure function of its arguments, so all of them are safe
to call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateGeometryWarning, InvalidDimensionError

__all__ = [
    "MdsResult",
    "centering_matrix",
    "classical_mds",
    "edm_from_pairs",
    "edm_from_points",
    "gram_from_edm",
    "orthogonal_procrustes",
    "pairs_from_points",
    "triu_indices",
    "unvech",
    "vech",
]

#: relative tolerance used when checking that an input matrix is symmetric
SYMMETRY_RTOL = 1e-9
_TINY = float(np.finfo(float).tiny)


def _sum_squares(x: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """Sum of squares over ``axis``, by default the last two axes of ``x``."""
    return np.add.reduce(x * x, axis=axis)


def _norm(x: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """Euclidean norm over ``axis`` of each record of ``x``: the root of :func:`_sum_squares`."""
    return np.sqrt(_sum_squares(x, axis))


def _norm_discarding(x: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """:func:`_norm` of ``x`` bit for bit, for a caller that discards ``x``.

    ``x`` is squared in place, so no temporary of its size is made.
    """
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=x), axis=axis))


def _as_square(m, op: str, stacked: bool = False) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    ndim_ok = m.ndim == 2 or stacked and m.ndim > 2
    if not ndim_ok or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise InvalidDimensionError(f"{op} needs a square matrix, got shape {m.shape}")
    return m


def centering_matrix(n: int) -> np.ndarray:
    """Return C = I - (1/n) * ones(n, n), the projector removing the mean.

    C is symmetric, idempotent, and maps the all-ones vector to zero.
    """
    if n < 1:
        raise InvalidDimensionError("centering_matrix needs n >= 1")
    return np.eye(n) - np.full((n, n), 1.0 / n)


@lru_cache(maxsize=64)
def triu_indices(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Cached, read-only ``np.triu_indices(n, k)``.

    The estimators and ``vech``/``unvech`` index the same few triangles
    over and over; building them once per (n, k) keeps that off every call.
    """
    iu, ju = np.triu_indices(n, k)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def vech(m) -> np.ndarray:
    """Half-vectorize a symmetric matrix: lower triangle, column-major.

    The input may be asymmetric up to roundoff, relative to its largest
    entry; it is symmetrized by averaging before extraction.  A NaN or
    inf entry, or gross asymmetry, raises InvalidDimensionError.
    """
    m = _as_square(m, "vech")
    # max propagates NaN and inf, so the largest |entry| checks finiteness too
    big = float(np.abs(m).max())
    if not math.isfinite(big):
        raise InvalidDimensionError("vech expects a finite matrix")
    if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * big:
        raise InvalidDimensionError("vech expects a (numerically) symmetric matrix")
    sym = 0.5 * (m + m.T)
    iu, ju = triu_indices(m.shape[0])
    # (ju, iu) walks the lower triangle column by column
    return sym[ju, iu]


def unvech(v) -> np.ndarray:
    """Inverse of :func:`vech`; the output is exactly symmetric."""
    v = np.asarray(v, dtype=float).ravel()
    t = v.size
    n = int(round((math.sqrt(8.0 * t + 1.0) - 1.0) / 2.0))
    if t == 0 or n * (n + 1) // 2 != t:
        raise InvalidDimensionError(f"length {t} is not a triangular number")
    out = np.zeros((n, n))
    iu, ju = triu_indices(n)
    out[ju, iu] = v
    out[iu, ju] = v
    return out


def pairs_from_points(x) -> np.ndarray:
    """Squared distances (..., n(n-1)/2) between the columns of a (..., dim, n) ``x``.

    One per pair i < j in ``triu_indices(n, 1)`` order, summed over the
    coordinates in order.  Each coordinate's endpoints are gathered by
    ``np.take``, squared and added on their own, so that no temporary is
    larger than the result; numpy's reduction over that short axis would
    also be slower.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise InvalidDimensionError("pairs_from_points needs a (..., dim, n) array")
    iu, ju = triu_indices(x.shape[-1], 1)
    pairs = np.zeros(x.shape[:-2] + iu.shape)
    for axis in range(x.shape[-2]):
        coordinate = x[..., axis, :]
        # every index is in range, and "wrap" skips take's bounds check
        diff = np.take(coordinate, iu, axis=-1, mode="wrap")
        diff -= np.take(coordinate, ju, axis=-1, mode="wrap")
        diff *= diff
        pairs += diff
    return pairs


@lru_cache(maxsize=64)
def _cell_pairs(n: int) -> np.ndarray:
    """Cached, read-only (n*n,) map from each cell of an n-by-n matrix, row-major, to its pair.

    Cell (i, j) holds the position of pair (min(i, j), max(i, j)) in
    ``triu_indices(n, 1)`` order; a diagonal cell holds 0.
    """
    iu, ju = triu_indices(n, 1)
    cells = np.zeros((n, n), dtype=np.intp)
    cells[iu, ju] = cells[ju, iu] = np.arange(iu.size)
    cells = cells.ravel()
    cells.flags.writeable = False
    return cells


def edm_from_pairs(pairs, n: int) -> np.ndarray:
    """The symmetric, zero-diagonal (..., n, n) matrices above whose diagonals lie ``pairs``.

    One ``np.take`` of the pair axis through the cached cell-to-pair map.
    """
    pairs = np.asarray(pairs, dtype=float)
    if n == 1:
        # no pair to take the diagonal from
        return np.zeros(pairs.shape[:-1] + (1, 1))
    out = np.take(pairs, _cell_pairs(n), axis=-1, mode="wrap")
    # the diagonal cells took pair 0
    out[..., :: n + 1] = 0.0
    return out.reshape(pairs.shape[:-1] + (n, n))


def edm_from_points(x) -> np.ndarray:
    """Squared distances (n, n) between the columns of a (dim, n) ``x``, or stacked.

    Exactly symmetric with an exactly zero diagonal; each matrix of a
    (..., dim, n) stack equals the unstacked call bit for bit.
    """
    x = np.asarray(x, dtype=float)
    return edm_from_pairs(pairs_from_points(x), x.shape[-1])


def gram_from_edm(dk) -> np.ndarray:
    """Grammian of mean-centered points from a squared-distance matrix.

    Returns -C @ dk @ C / 2, symmetrized.  For a noise-free input the
    result is PSD with rank <= dim; noisy input may produce an indefinite
    matrix, which is still legal output.
    """
    dk = _as_square(dk, "gram_from_edm")
    c = centering_matrix(dk.shape[0])
    g = -0.5 * (c @ dk @ c)
    return 0.5 * (g + g.T)


@dataclass
class MdsResult:
    """Rank-d factor of a Grammian, or of each Grammian of a stack, plus diagnostics.

    ``points.T @ points`` is the best rank-d PSD approximation of the
    symmetrized input B.  ``eigenvalues`` holds the top-d eigenvalues
    before clamping and ``discarded`` the Frobenius norm of what the
    rank-d eigen-factor leaves out, ||B - V_d diag(eigenvalues) V_d^T||_F,
    which is the root sum of squares of the other n - d eigenvalues
    (0 when d = n).  ``warnings`` lists degeneracies encountered.  For a
    (..., n, n) stack every field gains the leading axes, and ``warnings``
    holds one list per matrix of a (B, n, n) stack.
    """

    points: np.ndarray
    eigenvalues: np.ndarray
    warnings: list = field(default_factory=list)
    discarded: float = 0.0

    @property
    def kept_over_discarded(self):
        """lambda_d / ``discarded``: 0 where lambda_d <= 0, infinite where nothing is discarded.

        It is at most lambda_d / |lambda_(d+1)|, so a small value flags
        every geometry the plain eigen-gap flags.
        """
        last = self.eigenvalues[..., -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(last > 0.0, last / self.discarded, 0.0)
        return float(ratio) if ratio.ndim == 0 else ratio


#: n from which classical_mds tries block subspace iteration before ``eigh``.
#: One classical_mds of a wide-scene B0 (K = 10), ``eigh`` against the
#: certified iteration, median µs of 21 interleaved rounds (single BLAS
#: thread, 2-vCPU Xeon VM with other tenants), two runs: n = 30: 222-258
#: vs 277-363; 40: 376-433 vs 322-419; 50: 509-597 vs 356-450; 60: 639-766
#: vs 356-468; 100: 1636-1816 vs 491-575.
_ITERATE_FROM = 40
#: A record is accepted only where the worst kept Ritz residual is at most
#: this times max |theta|.  Wide-scene B0 (n = 40, 50, 100, 150 x 10 seeds;
#: lambda_2 / lambda_3 about 1e5 to 3e5) read 1.9e-16 to 2.3e-14 after the
#: first pass.
_ACCEPT_RTOL = 1e-13
#: Each pass applies b this many times: all but the last product before its
#: QR, the last one in its Rayleigh-Ritz step.  The 4 B4 of the distance
#: path (n = 100 x 6 seeds and n = 50/150 x 3 seeds) have a flat bulk
#: (lambda_3 / lambda_2 0.11 to 0.22); all 12 are accepted after 3 or 4
#: passes.  classical_mds of the six n = 100 records, median µs per record
#: over 40 interleaved rounds (same VM): 4 products per pass 557, 5: 523,
#: 6: 483, 7: 530.  More products between QRs lose the second direction
#: under the first: with lambda_1 / lambda_2 = 1e4 the residual floor is
#: 1.9e-16 at 5 products per pass, 2.5e-13 at 6 (above ``_ACCEPT_RTOL``)
#: and 3.4e-10 at 7.
_PASS_PRODUCTS = 5
#: A record whose worst Ritz residual shrinks less than this factor per
#: product, ``_CONTRACTION`` ** ``_PASS_PRODUCTS`` over a pass, has stalled
#: and leaves for ``eigh``.  The 4 B4 above shrink 1.2e-5 to 3.2e-4 over
#: each pass before the one that accepts them; a flat spectrum (no gap)
#: reads about 0.9.  A slower record mostly fails the certificate anyway:
#: lambda_d above the norm of a flat bulk of comparable eigenvalues puts
#: lambda_(d+1) / lambda_d well below 1.
_CONTRACTION = 0.3
#: A record not accepted after this many passes leaves for ``eigh``: 5 x 5
#: = 25 products, enough for a residual that shrinks 0.3-fold per product
#: to fall from 1e-1 to the acceptance bound (23 products).  At n = 100
#: (same VM, median) a record that stalls after the second pass costs
#: 0.55 ms before its ``eigh`` (1.8 ms), a near tie rejected by the
#: certificate after one pass 0.43 ms, and one that runs to the cap 1.1 ms.
_MAX_PASSES = 5
#: lambda_d below this times lambda_1 is flagged as degenerate geometry.
_DEGENERATE_RTOL = 1e-12


def _rayleigh_ritz(b: np.ndarray, x: np.ndarray, d: int):
    """Top-d Ritz pairs of each (n, n) matrix of ``b`` on the span of its (n, p) block ``x``.

    Returns the Ritz values (B, d) descending, their vectors (B, n, d),
    the worst of their residuals ||b v - theta v||, the largest |theta|
    of the block, and b q for q an orthonormal basis of the span: the
    next pass's block.
    """
    q = np.linalg.qr(x)[0]  # indexed: numpy before 2.0 returns a plain tuple, without .Q
    bq = b @ q
    h = q.swapaxes(-1, -2) @ bq
    theta, w = np.linalg.eigh(0.5 * (h + h.swapaxes(-1, -2)))
    w, top = w[..., : -d - 1 : -1], theta[:, : -d - 1 : -1]
    v = q @ w
    r = bq @ w - v * top[:, None, :]
    worst = np.sqrt(np.einsum("bip,bip->bp", r, r).max(axis=-1))
    return top, v, worst, np.abs(theta).max(axis=-1), bq


def _certified_top(b: np.ndarray, d: int):
    """Top-d eigenpairs of each (n, n) matrix of ``b`` by block subspace iteration.

    ``b`` comes from :func:`classical_mds` scaled to unit size, so no
    product, norm or residual of the iteration comes near overflow or
    underflow.  The iteration starts from the d + 2
    largest-norm columns, as they are.  Every pass has one shape:
    ``_PASS_PRODUCTS`` - 1 products with b, then one thin QR, the last
    product and one Rayleigh-Ritz step (:func:`_rayleigh_ritz`).  A
    record stops once its Ritz residuals are round-off: it is certified when
    theta_d > ||b - V_d Theta_d V_d^T||_F as well.  Every discarded
    eigenvalue is then smaller in magnitude than theta_d, so V_d spans
    the algebraic top d even where a negative eigenvalue dominates.  A
    record that classical_mds would flag as degenerate is never
    certified.  A record whose worst residual shrinks less than
    ``_CONTRACTION`` ** ``_PASS_PRODUCTS`` over a pass, or that is not
    done after ``_MAX_PASSES`` passes, stops uncertified.  A stopped
    record is frozen and leaves the stack, so each record's passes are
    the ones it takes on its own.  Returns top (B, d) descending, rows
    (B, d, n), discarded (B,) and the certified mask; the entries of
    uncertified records are meaningless.
    """
    count, n, _ = b.shape
    cols = np.argsort(np.einsum("bij,bij->bj", b, b), axis=-1)[:, : -d - 3 : -1]
    x = np.take_along_axis(b, cols[:, None, :], axis=-1)
    top, rows = np.zeros((count, d)), np.zeros((count, d, n))
    discarded, certified = np.zeros(count), np.zeros(count, dtype=bool)
    live, previous = np.arange(count), np.inf
    for _ in range(_MAX_PASSES):
        for _ in range(_PASS_PRODUCTS - 1):
            x = b @ x
        theta, v, worst, largest, x = _rayleigh_ritz(b, x, d)
        converged = worst <= _ACCEPT_RTOL * largest
        if converged.any():
            theta_c, v_c, kept = theta[converged], v[converged], live[converged]
            left_out = (v_c * theta_c[:, None, :]) @ v_c.swapaxes(-1, -2)
            left_out -= b[converged]
            top[kept], rows[kept] = theta_c, v_c.swapaxes(-1, -2)
            discarded[kept] = np.sqrt(_sum_squares(left_out))
            last = theta_c[:, -1]
            certified[kept] = (last > discarded[kept]) & (last >= _DEGENERATE_RTOL * theta_c[:, 0])
        going = ~converged & (worst <= _CONTRACTION**_PASS_PRODUCTS * previous)
        if not going.any():
            break
        if not going.all():
            live, b, x, worst = live[going], b[going], x[going], worst[going]
        previous = worst
    return top, rows, discarded, certified


def _eigh_top(b: np.ndarray, d: int):
    """Top-d eigenpairs of each matrix of ``b`` from a full ``eigh``: top, rows, discarded."""
    evals, evecs = np.linalg.eigh(b)
    top = evals[..., : -d - 1 : -1]  # descending
    rows = evecs.swapaxes(-1, -2)[..., : -d - 1 : -1, :]  # their eigenvectors, (..., d, n)
    rest = evals[..., :-d]
    return top, rows, np.sqrt(np.einsum("...i,...i->...", rest, rest))


def _iterated_top(b: np.ndarray, d: int):
    """:func:`_eigh_top` through :func:`_certified_top`, with ``eigh`` for the records it leaves."""
    n = b.shape[-1]
    stack = b.reshape(-1, n, n)
    top, rows, discarded, certified = _certified_top(stack, d)
    redo = ~certified
    if redo.any():
        top[redo], rows[redo], discarded[redo] = _eigh_top(stack[redo], d)
    shape = b.shape[:-2]
    return top.reshape(shape + (d,)), rows.reshape(shape + (d, n)), discarded.reshape(shape)


def classical_mds(g, d: int) -> MdsResult:
    """Classical multidimensional scaling of a Grammian or a (B, n, n) stack of them.

    Keeps the d algebraically largest eigenvalues; negative ones are
    clamped to zero and recorded as a warning rather than a failure, since
    measurement noise routinely makes the input indefinite.  Each
    eigenvector's largest-magnitude entry is made positive so the factor
    is deterministic across runs.  A Grammian holding NaN or inf raises
    InvalidDimensionError.  Below ``_ITERATE_FROM`` nodes, or for
    d > n - 3, a stack takes one stacked ``eigh``.  Otherwise each record
    first runs the certified block subspace iteration of
    :func:`_certified_top`, in passes of ``_PASS_PRODUCTS`` products, one
    thin QR and one Rayleigh-Ritz step, until it converges or stalls; the
    records it does not certify take one stacked ``eigh``.  Either way
    each record's result depends on that record alone.  Both routes see
    each record divided by a power of two near its largest |entry|, which
    is exact and keeps them far from overflow and underflow for any
    finite Grammian; the eigenvalues and ``discarded`` are scaled back.
    """
    g = _as_square(g, "classical_mds", stacked=True)
    n = g.shape[-1]
    if not 1 <= d <= n:
        raise InvalidDimensionError(f"embedding dimension {d} invalid for n={n}")
    b = 0.5 * (g + g.swapaxes(-1, -2))
    # max propagates NaN and inf, so the largest |entry| checks finiteness too
    big = np.abs(b).max(axis=(-2, -1))
    if not np.isfinite(big).all():
        raise InvalidDimensionError("classical_mds: the Grammian must be finite")
    # no smaller than the least normal float, so 2**-shift stays finite
    shift = np.frexp(np.maximum(big, _TINY))[1]
    b *= np.ldexp(1.0, -shift)[..., None, None]
    # the iteration needs its d + 2 columns to span a proper subspace
    wide = n >= max(_ITERATE_FROM, d + 3)
    top, rows, discarded = (_iterated_top if wide else _eigh_top)(b, d)
    top, discarded = np.ldexp(top, shift[..., None]), np.ldexp(discarded, shift)
    # the sign of each eigenvector's (first) largest-magnitude entry
    flat = rows.reshape(-1, n)
    lead = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)].reshape(top.shape)
    points = (np.sqrt(np.maximum(top, 0.0)) * np.copysign(1.0, lead))[..., None] * rows
    last = top[..., -1]
    flagged = ((last <= 0.0) | (last < _DEGENERATE_RTOL * top[..., 0])).ravel()
    notes: list[list[str]] = [[] for _ in flagged]
    for i in flagged.nonzero()[0]:
        positive = int(np.count_nonzero(top.reshape(-1, d)[i] > 0.0))
        notes[i].append(
            f"degenerate geometry: only {positive} of {d} requested eigenvalues are "
            "positive; the rest were clamped to zero"
        )
    if g.ndim == 2:
        return MdsResult(points, top, notes[0], float(discarded))
    return MdsResult(points, top, notes, discarded)


def orthogonal_procrustes(a, b) -> np.ndarray:
    """Orthogonal matrix R minimizing ||R @ a - b||_F, or one per pair of a stack.

    Built from the SVD of b @ a.T; the result may be a reflection.  Both
    arguments are (..., d, m) of one shape, and R is (..., d, d).  If
    b @ a.T is rank deficient the minimizer is not unique: a valid
    orthogonal matrix is still returned and a DegenerateGeometryWarning
    is emitted.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < 2 or a.shape != b.shape:
        raise InvalidDimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    u, s, vt = np.linalg.svd(b @ np.swapaxes(a, -1, -2))
    if np.any(s[..., -1] <= 1e-12 * np.maximum(s[..., 0], 1e-300)):
        warnings.warn(
            "orthogonal_procrustes: cross matrix is rank deficient; the aligning "
            "transform is not unique",
            DegenerateGeometryWarning,
            stacklevel=2,
        )
    return u @ vt
