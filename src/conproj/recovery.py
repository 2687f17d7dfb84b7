"""Conformal-factor recovery by line integration of the trace one-form.

On a compatible pair the one-form T_i is closed over the (convex) sampling
box, so its integral along straight segments from a base point defines the
log-conformal factor phi with phi(base) = 0; the shared metric is then
g * exp(2*phi), unique up to the constant fixed by the normalization.
Integrals use adaptive composite 8-node Gauss-Legendre quadrature, refined
breadth-first: each level bisects every unsettled segment of every
integral of a call and evaluates all their nodes as one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .compatibility import CHUNK_POINTS, _trace_form
from .errors import NonConvergence
from .expressions import Evaluator
from .geometry import MetricValue, tracefree
from .jets import Jet
from .scenario import Scenario, metric_at, sample_points

__all__ = [
    "RecoveredFactor",
    "RecoveryVerification",
    "integrate_phi",
    "integrate_phi_path",
    "recover_metric",
    "verify_recovery",
]

_GL_NODES, _GL_WEIGHTS = leggauss(8)
# Gauss-Legendre rules one integral may evaluate before NonConvergence.
MAX_SEGMENTS = 1024


def _trace_values(scenario: Scenario, points: np.ndarray, order: int) -> list:
    """g, g^-1, T^i_jk and T_i (and at order 1 ``d_k T_i`` as ``[s, i, k]``)
    at a stack of points, at most ``CHUNK_POINTS`` per evaluator (an empty
    stack still runs one, for the shapes).  Points are evaluated leniently;
    each failing one is re-run alone, which raises its error as a one-point
    call would."""

    def at(ev):
        g, ginv, _, _, T, _, down = _trace_form(scenario, ev, order)
        return [g.value, ginv.value, T.value, down.value, down.gradient][: 4 + order]

    parts, bad = [], []
    for start in range(0, max(len(points), 1), CHUNK_POINTS):
        ev = Evaluator(points[start : start + CHUNK_POINTS], strict=False)
        with np.errstate(all="ignore"):
            parts.append(at(ev))
        bad.extend(start + np.flatnonzero(ev.bad))
    out = [np.concatenate(column) for column in zip(*parts)]
    for index in bad:
        for array, value in zip(out, at(Evaluator(points[index], strict=True))):
            array[index] = value
    return out


def _gauss_legendre(scenario, starts, w, owner, lo, hi, order) -> np.ndarray:
    """8-node estimate over ``t`` in [lo, hi] of the integral ``owner``
    (see :func:`_integrate`), one row per rule."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
    w = w[owner]
    points = starts[owner][:, None, :] + t[..., None] * w[:, None, :]
    _, _, _, down, *grad = _trace_values(scenario, points.reshape(-1, w.shape[1]), order)
    down = down.reshape(points.shape)
    f = np.einsum("rsi,ri->rs", down, w)[..., None]
    if order >= 1:
        dt = np.einsum("rsik,ri->rsk", grad[0].reshape(points.shape + w.shape[1:]), w)
        f = np.concatenate([f, t[..., None] * dt + down], axis=-1)
    return sum(f[:, k] * weight for k, weight in enumerate(_GL_WEIGHTS)) * half[:, None]


def _integrate(scenario: Scenario, starts, ends, order: int, tol: float) -> np.ndarray:
    """Integrals of ``T_i w^i`` over ``t`` in [0, 1] along ``c(t) = start + t w``,
    ``w = end - start``, one row each: shape (m, 1), or at order 1 (m, 1 + n)
    with the end-point gradient after the value (see ``phi_and_gradient``).

    A segment settles when the sum of its halves differs from its own
    estimate by less than the tolerance, which halves with each level.
    Each level evaluates the halves of every unsettled segment at once, so
    an integral's tree, result and failure do not depend on its batch.
    """
    ends = np.asarray(ends, dtype=float).reshape(-1, scenario.dimension)
    starts = np.broadcast_to(np.asarray(starts, dtype=float), ends.shape)
    w = ends - starts
    m = len(ends)
    owner, lo, hi = np.arange(m), np.zeros(m), np.ones(m)
    whole = _gauss_legendre(scenario, starts, w, owner, lo, hi, order)
    total = np.zeros_like(whole)
    used = np.ones(m, dtype=int)
    while owner.size:
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
        halves = _gauss_legendre(scenario, starts, w, np.repeat(owner, 2), lo, hi, order)
        both = halves[0::2] + halves[1::2]
        error = np.max(np.abs(both - whole), axis=1)
        settled = error < tol
        np.add.at(total, owner[settled], both[settled])
        used += 2 * np.bincount(owner, minlength=m)
        owner, error = owner[~settled], error[~settled]
        over = np.flatnonzero(used + 4 * np.bincount(owner, minlength=m) > MAX_SEGMENTS)
        if over.size:
            j = over[0]
            raise NonConvergence(
                f"quadrature from {tuple(starts[j].tolist())} to {tuple(ends[j].tolist())} did "
                f"not settle in {used[j]} of at most {MAX_SEGMENTS} segments (error estimate "
                f"{np.sum(error[owner == j]):.3e})"
            )
        keep = np.repeat(~settled, 2)
        owner, lo, hi, whole = np.repeat(owner, 2), lo[keep], hi[keep], halves[keep]
        tol = 0.5 * tol
    return total


class RecoveredFactor:
    """Evaluator for the recovered log-conformal factor.

    ``phi`` integrates the trace one-form along the straight segment from
    the base point, so ``phi(base) == 0``; the constant-factor freedom of
    the recovered metric is surfaced by the choice of base, not hidden.
    """

    def __init__(self, scenario: Scenario, base, *, quadrature_tol=None):
        self.scenario = scenario
        self.base = self._inside(base)
        self.quadrature_tol = (
            scenario.tolerances.quadrature if quadrature_tol is None else quadrature_tol
        )

    def _inside(self, point) -> tuple:
        p = tuple(float(c) for c in point)
        if len(p) != self.scenario.dimension:
            raise ValueError("point dimension mismatch")
        box = zip(self.scenario.box_min, self.scenario.box_max)
        if any(not lo <= c <= hi for c, (lo, hi) in zip(p, box)):
            raise ValueError(f"point {p} lies outside the sampling box")
        return p

    def phi(self, target) -> float:
        target = self._inside(target)
        if target == self.base:
            return 0.0
        return float(self._segment_integral(self.base, target)[0])

    def phi_and_gradient(self, target):
        """Line-integral value and its true target-point gradient.

        The gradient differentiates under the integral sign:
        ``d_j phi = int_0^1 (t * d_j T_i(c(t)) w^i + T_j(c(t))) dt`` for the
        segment ``c(t) = base + t w``.  When the closedness condition holds
        this reduces to T_j at the target; when it fails, the honest
        gradient is what makes downstream verification fail too.
        """
        target = self._inside(target)
        result = _integrate(self.scenario, self.base, target, 1, self.quadrature_tol)[0]
        return float(result[0]), result[1:]

    def scaled_metric(self, point, phi: float) -> MetricValue:
        """The scenario metric at ``point`` rescaled by exp(2*phi)."""
        g = metric_at(self.scenario, point, order=0)
        return MetricValue(g.jet * math.exp(2.0 * phi), point=g.point)

    def _segment_integral(self, start, end) -> np.ndarray:
        return _integrate(self.scenario, start, end, 0, self.quadrature_tol)[0]


def integrate_phi(scenario: Scenario, base, target, *, quadrature_tol=None) -> float:
    """Line integral of the trace one-form from ``base`` to ``target``."""
    return RecoveredFactor(scenario, base, quadrature_tol=quadrature_tol).phi(target)


def integrate_phi_path(scenario: Scenario, waypoints, *, quadrature_tol=None) -> float:
    """Integral along a polyline of straight legs through ``waypoints``."""
    points = list(waypoints)
    if len(points) < 2:
        raise ValueError("a path needs at least two waypoints")
    factor = RecoveredFactor(scenario, points[0], quadrature_tol=quadrature_tol)
    points = np.array([factor._inside(point) for point in points])
    moved = np.any(points[1:] != points[:-1], axis=1)
    legs = _integrate(scenario, points[:-1][moved], points[1:][moved], 0, factor.quadrature_tol)
    return float(np.sum(legs))


def recover_metric(scenario: Scenario, base, points, *, quadrature_tol=None) -> list:
    """Recovered metric g * exp(2*phi) at each query point (value level)."""
    factor = RecoveredFactor(scenario, base, quadrature_tol=quadrature_tol)
    points = [factor._inside(point) for point in points]
    away = [point for point in points if point != factor.base]
    phi = dict(zip(away, _integrate(scenario, factor.base, away, 0, factor.quadrature_tol)[:, 0]))
    return [factor.scaled_metric(point, float(phi.get(point, 0.0))) for point in points]


@dataclass(frozen=True)
class RecoveryVerification:
    max_deviation: float
    passed: bool
    samples: int


def verify_recovery(
    scenario: Scenario,
    base,
    *,
    samples: int | None = None,
    seed: int | None = None,
    quadrature_tol=None,
) -> RecoveryVerification:
    """Compare the recovered metric's projective class against the scenario's.

    The Levi-Civita connection of g * exp(2*phi) is that of g plus
    ``delta^i_j phi_k + delta^i_k phi_j - g^ip phi_p g_jk``, whose first two
    terms are a projective change, so its Thomas symbol differs from the
    scenario connection's by ``T - tracefree((g^-1 dphi) (x) g)`` with T the
    trace-free difference of _trace_form.  One quadrature gives dphi at
    every sample; the deviation is the largest entry over the samples.
    """
    count = scenario.samples if samples is None else samples
    seed_val = scenario.seed if seed is None else seed
    factor = RecoveredFactor(scenario, base, quadrature_tol=quadrature_tol)
    n = scenario.dimension
    points = np.reshape(sample_points(scenario, count, seed_val), (-1, n))
    dphi = _integrate(scenario, factor.base, points, 1, factor.quadrature_tol)[:, 1:]
    g, ginv, T, _ = _trace_values(scenario, points, 0)
    rescaling = Jet(n, 0, np.einsum("sip,sp,sjk->sijk", ginv, dphi, g))
    max_deviation = float(np.max(np.abs(T - tracefree(rescaling).value), initial=0.0))
    return RecoveryVerification(
        max_deviation=max_deviation,
        passed=max_deviation <= scenario.tolerances.residual,
        samples=count,
    )
