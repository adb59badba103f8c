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
    "edm_from_points",
    "gram_from_edm",
    "orthogonal_procrustes",
    "triu_indices",
    "unvech",
    "vech",
]

#: relative tolerance used when checking that an input matrix is symmetric
SYMMETRY_RTOL = 1e-9


def _as_square(m, op: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
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


def edm_from_points(x) -> np.ndarray:
    """Matrix of squared pairwise distances between the columns of ``x``.

    Computed from explicit coordinate differences so the result is exactly
    symmetric with an exactly zero diagonal.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidDimensionError("edm_from_points needs a (dim, n) array")
    diff = x[:, :, None] - x[:, None, :]
    return np.einsum("dij,dij->ij", diff, diff)


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
    """Rank-d factor of a Grammian plus diagnostics.

    ``points.T @ points`` is the best rank-d PSD approximation of the
    symmetrized input.  ``eigenvalues`` holds the top-d eigenvalues before
    clamping; ``warnings`` lists degeneracies encountered.
    """

    points: np.ndarray
    eigenvalues: np.ndarray
    warnings: list[str] = field(default_factory=list)


def classical_mds(g, d: int) -> MdsResult:
    """Classical multidimensional scaling of a Grammian.

    Keeps the d algebraically largest eigenvalues; negative ones are
    clamped to zero and recorded as a warning rather than a failure, since
    measurement noise routinely makes the input indefinite.  Each
    eigenvector's largest-magnitude entry is made positive so the factor
    is deterministic across runs.
    """
    g = _as_square(g, "classical_mds")
    n = g.shape[0]
    if not 1 <= d <= n:
        raise InvalidDimensionError(f"embedding dimension {d} invalid for n={n}")
    evals, evecs = np.linalg.eigh(0.5 * (g + g.T))
    top = evals[::-1][:d].copy()  # descending
    vecs = evecs[:, ::-1][:, :d].copy()
    notes: list[str] = []
    if np.any(top <= 0.0) or top[-1] < 1e-12 * max(top[0], 0.0):
        notes.append(
            f"degenerate geometry: only {int(np.sum(top > 0.0))} of {d} requested "
            "eigenvalues are positive; the rest were clamped to zero"
        )
    clamped = np.clip(top, 0.0, None)
    for j in range(d):
        col = vecs[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            vecs[:, j] = -col
    points = np.sqrt(clamped)[:, None] * vecs.T
    return MdsResult(points=points, eigenvalues=top, warnings=notes)


def orthogonal_procrustes(a, b) -> np.ndarray:
    """Orthogonal matrix R minimizing ||R @ a - b||_F.

    Built from the SVD of b @ a.T; the result may be a reflection.  If
    b @ a.T is rank deficient the minimizer is not unique: a valid
    orthogonal matrix is still returned and a DegenerateGeometryWarning
    is emitted.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape != b.shape:
        raise InvalidDimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    u, s, vt = np.linalg.svd(b @ a.T)
    if s[-1] <= 1e-12 * max(s[0], 1e-300):
        warnings.warn(
            "orthogonal_procrustes: cross matrix is rank deficient; the aligning "
            "transform is not unique",
            DegenerateGeometryWarning,
            stacklevel=2,
        )
    return u @ vt
