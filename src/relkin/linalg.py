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
    symmetrized input.  ``eigenvalues`` holds the top-d eigenvalues before
    clamping and ``next_eigenvalue`` the (d+1)-th (0 when d = n);
    ``warnings`` lists degeneracies encountered.  For a (..., n, n) stack
    every field gains the leading axes, and ``warnings`` holds one list
    per matrix of a (B, n, n) stack.
    """

    points: np.ndarray
    eigenvalues: np.ndarray
    warnings: list = field(default_factory=list)
    next_eigenvalue: float = 0.0

    @property
    def eigen_gap(self):
        """lambda_d / |lambda_(d+1)|, infinite where lambda_(d+1) is exactly 0."""
        below = np.abs(self.next_eigenvalue)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(below > 0, self.eigenvalues[..., -1] / below, np.inf)
        return float(gap) if gap.ndim == 0 else gap


def classical_mds(g, d: int) -> MdsResult:
    """Classical multidimensional scaling of a Grammian or a (B, n, n) stack of them.

    Keeps the d algebraically largest eigenvalues; negative ones are
    clamped to zero and recorded as a warning rather than a failure, since
    measurement noise routinely makes the input indefinite.  Each
    eigenvector's largest-magnitude entry is made positive so the factor
    is deterministic across runs.  A stack takes one stacked ``eigh``.
    """
    g = _as_square(g, "classical_mds", stacked=True)
    n = g.shape[-1]
    if not 1 <= d <= n:
        raise InvalidDimensionError(f"embedding dimension {d} invalid for n={n}")
    evals, evecs = np.linalg.eigh(0.5 * (g + g.swapaxes(-1, -2)))
    top = evals[..., : -d - 1 : -1]  # descending
    rows = evecs.swapaxes(-1, -2)[..., : -d - 1 : -1, :]  # their eigenvectors, (..., d, n)
    # the sign of each eigenvector's (first) largest-magnitude entry
    flat = rows.reshape(-1, n)
    lead = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)].reshape(top.shape)
    points = (np.sqrt(np.maximum(top, 0.0)) * np.copysign(1.0, lead))[..., None] * rows
    below = evals[..., -d - 1] if d < n else np.zeros(evals.shape[:-1])
    flagged = ((top[..., -1] <= 0.0) | (top[..., -1] < 1e-12 * top[..., 0])).ravel()
    notes: list[list[str]] = [[] for _ in flagged]
    for i in flagged.nonzero()[0]:
        positive = int(np.count_nonzero(top.reshape(-1, d)[i] > 0.0))
        notes[i].append(
            f"degenerate geometry: only {positive} of {d} requested eigenvalues are "
            "positive; the rest were clamped to zero"
        )
    if g.ndim == 2:
        return MdsResult(points, top, notes[0], float(below))
    return MdsResult(points, top, notes, below)


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
