"""Reconstruct a conformal class representative from sampled null vectors.

Each null vector v imposes one linear equation g_ij v^i v^j = 0 on the
n(n+1)/2 independent components of a symmetric matrix.  With at least
n(n+1)/2 - 1 generic vectors the solution space is one-dimensional and
spans the conformal class at the point.  The rank of the system is read
off its singular values (``np.linalg.svd``), relative to the largest, and
the representative returned here is canonicalized to unit max-norm with
its first nonzero component (in row-major order) positive.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NonGenericConfiguration, TooFewVectors
from .geometry import DEFAULT_RANK_TOL
from .jets import symmetric
from .sampling import as_floats, as_int

__all__ = ["reconstruct_conformal", "canonicalize_metric"]


def reconstruct_conformal(vectors, n: int) -> np.ndarray:
    """Solve the annihilation system over the given null vectors.

    The rank of the system is the number of its singular values above
    ``DEFAULT_RANK_TOL`` times the largest one, and the representative is the
    last right-singular vector.  Raises :class:`TooFewVectors` when fewer
    than n(n+1)/2 - 1 vectors are supplied and
    :class:`NonGenericConfiguration` when the solution space is not
    one-dimensional (the dimension found is attached).
    """
    n = as_int(n, "dimension must be an integer >= 2", 2)
    if not isinstance(vectors, (list, tuple, np.ndarray)) or getattr(vectors, "ndim", 1) == 0:
        raise ValueError(f"vectors must be an array of {n}-component vectors")
    try:
        v = _checked(vectors, n)
    except (TypeError, ValueError):  # one vector at a time, so the first to fail names the error
        for vector in vectors:
            _checked([vector], n)
        raise
    needed = n * (n + 1) // 2 - 1  # counted before the unknowns, which take n^2 memory
    if len(v) < needed:
        raise TooFewVectors(len(v), needed)
    rows, cols, off = _unknowns(n)  # the independent entries of g, and which are off-diagonal
    system = v[:, rows] * v[:, cols]
    system[:, off] *= 2.0  # g_ij v^i v^j holds each off-diagonal unknown twice

    _, sigma, vt = np.linalg.svd(system)
    nullity = len(rows) - int(np.count_nonzero(sigma > DEFAULT_RANK_TOL * sigma[0]))
    if nullity != 1:
        raise NonGenericConfiguration(nullity)

    g = np.zeros((n, n))
    g[rows, cols] = g[cols, rows] = vt[-1]
    return canonicalize_metric(g)


@lru_cache(maxsize=16)
def _unknowns(n: int) -> tuple:
    """The upper triangle ``rows, cols`` of an n x n matrix and ``rows != cols``, read-only."""
    rows, cols = np.triu_indices(n)
    off = rows != cols
    rows.flags.writeable = cols.flags.writeable = off.flags.writeable = False
    return rows, cols, off


def canonicalize_metric(matrix) -> np.ndarray:
    """Scale to unit max-norm with the first nonzero component positive.

    Idempotent, and the quotient map for comparing conformal
    representatives: two matrices span the same ray iff they canonicalize
    to the same array.  Raises ``ValueError`` on anything but a nonempty square
    2-d array and on a non-finite entry.
    """
    g = np.asarray(matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or not g.size:
        raise ValueError("matrix must be a nonempty square 2-d array")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    g = symmetric(g, 0, 1)
    scale = float(np.max(np.abs(g)))
    if scale == 0.0:
        raise ValueError("cannot canonicalize the zero matrix")
    g = g / scale
    return -g if g.flat[np.argmax(np.abs(g) > 1e-12)] < 0.0 else g


def _checked(vectors, n: int) -> np.ndarray:
    """The ``vectors`` as the rows of a float array, each of ``n`` finite components, not all 0."""
    v = as_floats(vectors, "vectors must be finite and nonzero")
    if len(v) and v.shape[1:] != (n,):
        raise ValueError(f"vectors must have {n} components")
    v = v.reshape(-1, n)
    if not (np.isfinite(v).all() and v.any(axis=1).all()):
        raise ValueError("vectors must be finite and nonzero")
    return v
