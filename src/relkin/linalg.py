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

    The input may be asymmetric up to roundoff; it is symmetrized by
    averaging before extraction.  Gross asymmetry raises ValueError.
    """
    m = _as_square(m, "vech")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError("vech expects a (numerically) symmetric matrix")
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

    One per pair i < j in ``triu_indices(n, 1)`` order, summed one
    coordinate at a time: numpy's reduction over that short axis is slower.
    """
    x = np.asarray(x, dtype=float)
    iu, ju = triu_indices(x.shape[-1], 1)
    diff = x[..., iu] - x[..., ju]
    diff *= diff
    pairs = diff[..., 0, :].copy()
    for axis in range(1, x.shape[-2]):
        pairs += diff[..., axis, :]
    return pairs


def edm_from_pairs(pairs, n: int) -> np.ndarray:
    """The symmetric, zero-diagonal (..., n, n) matrices above whose diagonals lie ``pairs``."""
    iu, ju = triu_indices(n, 1)
    out = np.zeros(pairs.shape[:-1] + (n, n))
    out[..., iu, ju] = out[..., ju, iu] = pairs
    return out


def edm_from_points(x) -> np.ndarray:
    """Squared distances (n, n) between the columns of a (dim, n) ``x``, or stacked.

    Exactly symmetric with an exactly zero diagonal; each matrix of a
    (..., dim, n) stack equals the unstacked call bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise InvalidDimensionError("edm_from_points needs a (..., dim, n) array")
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
#: One classical_mds of a wide-scene B0 (K = 10, 2-vCPU VM with other
#: tenants, timeit best of 9, two runs), ``eigh`` against the certified
#: iteration in µs: n = 30: 139-213 vs 377-384; 40: 354-365 vs 354-452;
#: 50: 430-619 vs 324-421; 60: 531-606 vs 272-343; 100: 1446-1662 vs
#: 404-418.  A record that fails the probe pays about 140 µs at n = 100
#: before its ``eigh``.
_ITERATE_FROM = 40
#: The iteration goes on only where, after one step, the worst kept Ritz
#: residual is at most this times max |theta|.  Wide-scene B0 (n = 40, 50,
#: 100, 150 x 10 seeds; lambda_2 / lambda_3 about 1e5 to 3e5) read 1.9e-11
#: to 3.5e-10; 4 B4 (lambda_2 / lambda_3 about 4 to 9) read 0.012 to 0.37
#: and mostly goes straight to ``eigh``.
_PROBE_RTOL = 1e-2
#: A record is accepted only where, after the second step, the worst kept
#: Ritz residual is at most this times max |theta|; the same B0 read
#: 2.7e-16 to 2.1e-15.
_ACCEPT_RTOL = 1e-13
#: lambda_d below this times lambda_1 is flagged as degenerate geometry.
_DEGENERATE_RTOL = 1e-12


def _rayleigh_ritz(b: np.ndarray, x: np.ndarray, d: int, rtol: float):
    """Top-d Ritz pairs of each (n, n) matrix of ``b`` on the span of its (n, p) block ``x``.

    Returns the Ritz values (B, d) descending, their vectors (B, n, d),
    whether every one of their residuals ||b v - theta v|| is at most
    ``rtol`` times the largest |theta| of the block, and b q for q an
    orthonormal basis of the span: the next step's block.
    """
    q = np.linalg.qr(x).Q
    bq = b @ q
    h = q.swapaxes(-1, -2) @ bq
    theta, w = np.linalg.eigh(0.5 * (h + h.swapaxes(-1, -2)))
    w, top = w[..., : -d - 1 : -1], theta[:, : -d - 1 : -1]
    v = q @ w
    r = bq @ w - v * top[:, None, :]
    worst = np.sqrt(np.einsum("bip,bip->bp", r, r).max(axis=-1))
    return top, v, worst <= rtol * np.abs(theta).max(axis=-1), bq


def _certified_top(b: np.ndarray, d: int):
    """Top-d eigenpairs of each (n, n) matrix of ``b`` by block subspace iteration.

    d + 2 columns start from the largest-norm columns of each matrix.
    After one step the Ritz residuals decide whether to go on; after the
    second a record is certified when its residuals are round-off and
    theta_d > ||b - V_d Theta_d V_d^T||_F.  Every discarded eigenvalue is
    then smaller in magnitude than theta_d, so V_d spans the algebraic
    top d even where a negative eigenvalue dominates.  A record that
    classical_mds would flag as degenerate is never certified.  Returns
    None when no record goes on, else top (B, d) descending,
    rows (B, d, n), discarded (B,) and the certified mask; the entries of
    uncertified records are meaningless.
    """
    cols = np.argsort(np.einsum("bij,bij->bj", b, b), axis=-1)[:, : -d - 3 : -1]
    x = b @ np.linalg.qr(np.take_along_axis(b, cols[:, None, :], axis=-1)).Q
    _, _, go_on, bq = _rayleigh_ritz(b, x, d, _PROBE_RTOL)
    if not go_on.any():
        return None
    top, v, converged, _ = _rayleigh_ritz(b, bq, d, _ACCEPT_RTOL)
    left_out = (v * top[:, None, :]) @ v.swapaxes(-1, -2)
    left_out -= b
    discarded = np.sqrt(np.einsum("bij,bij->b", left_out, left_out))
    last = top[:, -1]
    certified = go_on & converged & (last > discarded) & (last >= _DEGENERATE_RTOL * top[:, 0])
    return top, v.swapaxes(-1, -2), discarded, certified


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
    found = _certified_top(stack, d)
    if found is None:
        return _eigh_top(b, d)
    top, rows, discarded, certified = found
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
    is deterministic across runs.  Below ``_ITERATE_FROM`` nodes, or for
    d > n - 3, a stack takes one stacked ``eigh``.  Otherwise each record
    first tries the certified block subspace iteration of
    :func:`_certified_top`, and the records it does not certify take one
    stacked ``eigh``.  Either way each record's result depends on that
    record alone.
    """
    g = _as_square(g, "classical_mds", stacked=True)
    n = g.shape[-1]
    if not 1 <= d <= n:
        raise InvalidDimensionError(f"embedding dimension {d} invalid for n={n}")
    b = 0.5 * (g + g.swapaxes(-1, -2))
    # the iteration needs its d + 2 columns to span a proper subspace
    wide = n >= max(_ITERATE_FROM, d + 3)
    top, rows, discarded = (_iterated_top if wide else _eigh_top)(b, d)
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
