"""Tensor kernels over jets whose leading axes index chart points.

The metric inverse comes from ``np.linalg.inv`` and the closed forms for
the derivatives of an inverse; the derivatives and the Christoffel symbols
are matmuls over the packed jet axis, projective shifts are elementwise and
rescalings are einsums.  Each value class wraps one tensor jet, at
one point or over a stack of points.  All residual norms in this package
are max-absolute norms.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .errors import DegenerateMetric
from .jets import Jet

__all__ = [
    "MetricValue",
    "ConnectionValue",
    "ThomasValue",
    "OneFormValue",
    "VectorValue",
    "invert_metric",
    "christoffel",
    "conformal_rescale_metric",
    "rescaled_connection",
    "projective_transform",
    "thomas_symbol",
]

# The one rank tolerance: Tolerances.rank defaults to it, and callers with no
# scenario (invert_metric, reconstruct_conformal, ...) use it.
DEFAULT_RANK_TOL = 1e-10


class _TensorValue:
    """One tensor jet whose last ``_rank`` axes have length ``n``; any axes
    before them index points."""

    _rank = 1
    __slots__ = ("jet", "n", "order", "point")

    def __init__(self, jet, point=None):
        if not isinstance(jet, Jet):
            raise TypeError(f"{type(self).__name__} wraps a Jet")
        if np.shape(jet.value)[-self._rank :] != (jet.n,) * self._rank:
            raise ValueError(f"jet must end in {self._rank} axes of length n = {jet.n}")
        self.jet, self.n, self.order = jet, jet.n, jet.order
        self.point = tuple(float(c) for c in point) if point is not None else None

    def values(self) -> np.ndarray:
        return np.array(self.jet.value, dtype=float)


class MetricValue(_TensorValue):
    """Metric g_ij, symmetric in its last two axes."""

    _rank = 2
    __slots__ = ()


class ConnectionValue(_TensorValue):
    """Connection Gamma^i_jk, symmetric in its two lower slots."""

    _rank = 3
    __slots__ = ()


class OneFormValue(_TensorValue):
    """Covariant components psi_i, T_i, ..."""

    __slots__ = ()


class VectorValue(_TensorValue):
    """Contravariant components S^i, T^i, ..."""

    __slots__ = ()


class ThomasValue:
    """Trace-free projective invariant of a connection (value parts)."""

    __slots__ = ("n", "components")

    def __init__(self, components):
        pi = np.array(components, dtype=float)
        n = pi.shape[0]
        if pi.shape != (n, n, n):
            raise ValueError("components must form an n*n*n array")
        scale = max(1.0, float(np.max(np.abs(pi))))
        tr_first = np.einsum("ppk->k", pi)
        tr_last = np.einsum("pjp->j", pi)
        if max(np.max(np.abs(tr_first)), np.max(np.abs(tr_last))) > 1e-12 * scale:
            raise ValueError("trace-free invariant violated")
        pi.flags.writeable = False
        self.n = n
        self.components = pi


# -- kernels ---------------------------------------------------------------


def ill_conditioned(condition, rank_tol: float) -> np.ndarray:
    """The one degeneracy rule: a relative condition number above 1 / rank_tol, or NaN."""
    return ~(condition <= 1.0 / rank_tol)


def inverse(g: Jet, rank_tol: float):
    """Inverse of a metric jet at every point, as ``(ginv, det, degenerate)``.

    Degenerate points are exactly singular, not finite or :func:`ill_conditioned` in
    ``max|g_ij| * max|g^ij|``; they are inverted as the identity.  ``det``, from log|det|
    (no underflow on a tiny metric), is None unless some point is degenerate.  Each packed
    column c of g gives d_c(g^-1) = -g^-1 (d_c g) g^-1 in two matmuls; order 2 adds
    g^-1 d_k g g^-1 d_l g g^-1 and its transpose in k, l."""
    n, v = g.n, g.value
    with np.errstate(all="ignore"):
        try:
            vi, singular = np.linalg.inv(v), False
        except np.linalg.LinAlgError:  # inv factorises as slogdet does: invert the rest
            singular = ~np.isfinite(np.linalg.slogdet(v)[1])
            vi = np.linalg.inv(np.where(singular[..., None, None], np.eye(n), v))
        condition = np.max(np.abs(v), axis=(-2, -1)) * np.max(np.abs(vi), axis=(-2, -1))
        degenerate, det = singular | ill_conditioned(condition, rank_tol), None
        if degenerate.any():
            sign, logdet = np.linalg.slogdet(v)
            det = sign * np.exp(logdet)
            vi[degenerate] = np.eye(n)
        # The exact inverse of a symmetric matrix is symmetric; averaging the
        # halves removes roundoff so downstream symmetry is exact.
        vi = jets.symmetric(vi, -1, -2)
        data = np.empty(g.data.shape)
        data[..., 0] = vi
        if g.order >= 1:
            w = vi[..., None, :, :] @ np.moveaxis(g.data[..., 1:], -1, -3)  # g^-1 d_c g
            inner = w @ vi[..., None, :, :]
            parts = -inner
            if g.order == 2:
                twice = w[..., :n, None, :, :] @ inner[..., None, :n, :, :]  # [k, l, i, j]
                twice = twice + np.swapaxes(twice, -4, -3)
                parts[..., n:, :, :] += twice.reshape(twice.shape[:-4] + (n * n, n, n))
            data[..., 1:] = np.moveaxis(jets.symmetric(parts, -2, -1), -3, -1)
    return jets._wrap(n, g.order, data), det, degenerate


def levi_civita(g: Jet, ginv: Jet) -> Jet:
    """Christoffel symbols of ``g`` given its inverse; order ``g.order - 1``.

    Gamma^i_jk = 1/2 g^ip c_pjk with c_pjk = d_k g_pj + d_j g_pk - d_p g_jk, one
    :func:`jets.matmul` over the packed axis.
    """
    n, dg = g.n, jets.derivative(g).data  # dg[p, q, k] = d_k g_pq
    c = jets._wrap(n, g.order - 1, dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -2, -4))
    gamma = jets.matmul(ginv, jets.reshape(c, 3, (n, n * n)))
    return jets.mul(jets.reshape(gamma, 2, (n, n, n)), 0.5, None)


def shift(gamma: Jet, psi: Jet) -> Jet:
    """Gamma^i_jk + delta^i_j psi_k + delta^i_k psi_j."""
    order = min(gamma.order, psi.order)
    k = jets._width(gamma.n, order)
    d = np.eye(gamma.n)[:, :, None, None] * psi.data[..., None, None, :, :k]
    return jets._wrap(gamma.n, order, gamma.data[..., :k] + (d + np.swapaxes(d, -3, -2)))


def tracefree(t: Jet) -> Jet:
    """Trace-free projection of a tensor t^i_jk symmetric in j, k."""
    trace = np.einsum("...ppkY->...kY", t.data) * (-1.0 / (t.n + 1))
    return shift(t, jets._wrap(t.n, t.order, trace))


def invert_metric(g: MetricValue) -> MetricValue:
    """Inverse metric with full derivative propagation.

    A condition number ``max|g_ij| * max|g^ij|`` over ``1 / DEFAULT_RANK_TOL``
    raises :class:`DegenerateMetric` carrying the determinant and point.
    """
    ginv, det, degenerate = inverse(g.jet, DEFAULT_RANK_TOL)
    if degenerate:
        raise DegenerateMetric(det, point=g.point)
    return MetricValue(ginv, point=g.point)


def christoffel(g: MetricValue) -> ConnectionValue:
    """Levi-Civita connection of ``g``; output order is ``g.order - 1``."""
    if g.order < 1:
        raise ValueError("christoffel requires metric jets of order >= 1")
    ginv = invert_metric(g).jet
    return ConnectionValue(levi_civita(g.jet, ginv), point=g.point)


def conformal_rescale_metric(g: MetricValue, phi: Jet) -> MetricValue:
    """Componentwise rescaling of the metric by exp(2*phi)."""
    if phi.n != g.n:
        raise ValueError("conformal factor dimension mismatch")
    factor = jets.apply_function(phi * 2.0, "exp")
    return MetricValue(jets.einsum("ij,->ij", g.jet, factor), point=g.point)


def rescaled_connection(g: MetricValue, phi: Jet) -> ConnectionValue:
    """Levi-Civita connection of the rescaled metric, built directly.

    Adds the closed-form correction delta^i_j d_k(phi) + delta^i_k d_j(phi)
    - g^{ip} g_jk d_p(phi) to the connection of ``g`` without ever forming
    the rescaled metric.
    """
    if g.order < 1 or phi.order < 1:
        raise ValueError("rescaled_connection requires jets of order >= 1")
    if phi.n != g.n:
        raise ValueError("conformal factor dimension mismatch")
    ginv = invert_metric(g).jet
    dphi = jets.derivative(phi)
    up = jets.einsum("ip,p->i", ginv, dphi)
    base = jets.sub(levi_civita(g.jet, ginv), jets.einsum("i,jk->ijk", up, g.jet))
    return ConnectionValue(shift(base, dphi), point=g.point)


def projective_transform(gamma: ConnectionValue, psi: OneFormValue) -> ConnectionValue:
    """Representative change Gamma + delta psi + psi delta of the projective class."""
    if psi.n != gamma.n:
        raise ValueError("one-form dimension mismatch")
    return ConnectionValue(shift(gamma.jet, psi.jet), point=gamma.point)


def thomas_symbol(gamma: ConnectionValue) -> ThomasValue:
    """Trace-adjusted connection values; equal symbols mean projectively
    equivalent connections."""
    return ThomasValue(tracefree(jets.truncate(gamma.jet, 0)).value)

