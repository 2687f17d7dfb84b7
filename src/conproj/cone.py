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

import numpy as np

from .errors import NonGenericConfiguration, TooFewVectors
from .geometry import DEFAULT_RANK_TOL
from .jets import symmetric

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
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not isinstance(vectors, (list, tuple, np.ndarray)):
        raise ValueError(f"vectors must be an array of {n}-component vectors")
    vs = []
    for v in vectors:
        arr = np.asarray(v, dtype=float)
        if arr.shape != (n,):
            raise ValueError(f"vectors must have {n} components")
        if not np.all(np.isfinite(arr)) or not arr.any():
            raise ValueError("vectors must be finite and nonzero")
        vs.append(arr)
    unknowns = n * (n + 1) // 2
    needed = unknowns - 1
    if len(vs) < needed:
        raise TooFewVectors(len(vs), needed)
    rows, cols = np.triu_indices(n)
    # Doubling the off-diagonal monomials keeps the unknown vector equal to
    # the independent components of the symmetric matrix.
    v = np.array(vs)
    system = v[:, rows] * v[:, cols]
    system[:, rows != cols] *= 2.0

    _, sigma, vt = np.linalg.svd(system)
    rank = int(np.count_nonzero(sigma > DEFAULT_RANK_TOL * sigma[0]))
    nullity = unknowns - rank
    if nullity != 1:
        raise NonGenericConfiguration(nullity)

    g = np.zeros((n, n))
    g[rows, cols] = g[cols, rows] = vt[-1]
    return canonicalize_metric(g)


def canonicalize_metric(matrix) -> np.ndarray:
    """Scale to unit max-norm with the first nonzero component positive.

    Idempotent, and the quotient map for comparing conformal
    representatives: two matrices span the same ray iff they canonicalize
    to the same array.  Raises ``ValueError`` on a non-finite entry.
    """
    g = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    g = symmetric(g, 0, 1)
    scale = float(np.max(np.abs(g)))
    if scale == 0.0:
        raise ValueError("cannot canonicalize the zero matrix")
    g = g / scale
    for entry in g.reshape(-1):
        if abs(entry) > 1e-12:
            return -g if entry < 0.0 else g
    return g
