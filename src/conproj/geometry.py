"""Tensor kernels over jets whose leading axes index chart points.

The metric inverse comes from ``np.linalg.inv`` and the closed forms for
the derivatives of an inverse; Christoffel symbols, rescalings and
projective shifts are einsums.  Each value class wraps one tensor jet, at
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

    Degenerate points have no finite log|det| (exactly singular or not
    finite) or are :func:`ill_conditioned` in ``max|g_ij| * max|g^ij|``; they
    are inverted as the identity.  log|det| does not underflow on a tiny metric."""
    n, v = g.n, g.value
    with np.errstate(all="ignore"):
        # slogdet factorises v as inv does: a finite log|det| means inv succeeds.
        sign, logdet = np.linalg.slogdet(v)
        skip = ~np.isfinite(logdet)
        vi = np.linalg.inv(np.where(skip[..., None, None], np.eye(n), v))
        condition = np.max(np.abs(v), axis=(-2, -1)) * np.max(np.abs(vi), axis=(-2, -1))
        det = sign * np.exp(logdet)
        degenerate = skip | ill_conditioned(condition, rank_tol)
        vi[degenerate] = np.eye(n)
        # The exact inverse of a symmetric matrix is symmetric; averaging the
        # halves removes roundoff so downstream symmetry is exact.
        vi = jets.symmetric(vi, -1, -2)
        grad = hess = None
        if g.order >= 1:
            # d_k(g^-1) = -g^-1 (d_k g) g^-1, with D_k = g^-1 d_k g
            d = np.einsum("...ia,...ajk->...ijk", vi, g.gradient)
            grad = jets.symmetric(-np.einsum("...iak,...aj->...ijk", d, vi), -3, -2)
            if g.order == 2:
                # d_kl(g^-1) = -g^-1 (d_kl g) g^-1 + D_k D_l g^-1 + D_l D_k g^-1
                inner = np.einsum("...ia,...abkl,...bj->...ijkl", vi, g.hessian, vi)
                twice = -np.einsum("...iak,...ajl->...ijkl", d, grad)
                hess = jets.symmetric(twice + np.swapaxes(twice, -1, -2) - inner, -4, -3)
    return jets._pack(n, g.order, vi, grad, hess), det, degenerate


def levi_civita(g: Jet, ginv: Jet) -> Jet:
    """Christoffel symbols of ``g`` given its inverse; order ``g.order - 1``.

    Gamma^i_jk = 1/2 g^ip (d_k g_pj + d_j g_pk - d_p g_jk).
    """
    dg = jets.derivative(g)  # dg[p, q, k] = d_k g_pq
    c = jets.add(dg, jets.einsum("pkj->pjk", dg), None)
    c = jets.sub(c, jets.einsum("jkp->pjk", dg), None)
    return jets.mul(jets.einsum("ip,pjk->ijk", ginv, c), 0.5, None)


def shift(gamma: Jet, psi: Jet) -> Jet:
    """Gamma^i_jk + delta^i_j psi_k + delta^i_k psi_j."""
    d = jets.einsum("ij,k->ijk", np.eye(gamma.n), psi)
    return jets.add(gamma, jets.add(d, jets.einsum("ikj->ijk", d), None), None)


def tracefree(t: Jet) -> Jet:
    """Trace-free projection of a tensor t^i_jk symmetric in j, k."""
    trace = jets.einsum("ppk->k", t)
    return shift(t, jets.mul(trace, -1.0 / (t.n + 1), None))


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

