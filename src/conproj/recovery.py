"""Conformal-factor recovery by line integration of the trace one-form.

On a compatible pair the one-form T_i is closed over the (convex) sampling
box, so its integral along straight segments from a base point defines the
log-conformal factor phi with phi(base) = 0; the shared metric is then
g * exp(2*phi), unique up to the constant fixed by the normalization.
Integrals use adaptive composite 8-node Gauss-Legendre quadrature,
bisecting a segment until the two-half versus whole estimate settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .compatibility import _trace_form
from .errors import NonConvergence
from .expressions import Evaluator
from .geometry import (
    MetricValue,
    christoffel,
    conformal_rescale_metric,
    thomas_symbol,
)
from .jets import Jet
from .sampling import draw_point, point_stream
from .scenario import Scenario, connection_at, metric_at

__all__ = [
    "RecoveredFactor",
    "RecoveryVerification",
    "integrate_phi",
    "integrate_phi_path",
    "recover_metric",
    "verify_recovery",
]

_GL_NODES, _GL_WEIGHTS = leggauss(8)
MAX_BISECTIONS = 20


def _gl_segment(f, a: float, b: float) -> np.ndarray:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    samples = f(mid + half * _GL_NODES)
    acc = samples[0] * _GL_WEIGHTS[0]
    for sample, weight in zip(samples[1:], _GL_WEIGHTS[1:]):
        acc = acc + sample * weight
    return acc * half


def _refine(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = _gl_segment(f, a, mid)
    right = _gl_segment(f, mid, b)
    both = left + right
    if float(np.max(np.abs(both - whole))) < tol:
        return both
    if depth >= MAX_BISECTIONS:
        raise NonConvergence(
            f"quadrature did not settle after {MAX_BISECTIONS} bisection levels"
        )
    return _refine(f, a, mid, left, 0.5 * tol, depth + 1) + _refine(
        f, mid, b, right, 0.5 * tol, depth + 1
    )


def _adaptive(f, tol: float) -> np.ndarray:
    """Adaptive integral of a vector-valued integrand over [0, 1]."""
    return _refine(f, 0.0, 1.0, _gl_segment(f, 0.0, 1.0), tol, 0)


def _trace_one_form(scenario: Scenario, points, order: int):
    """T_i at each of a stack of points, and at order 1 its gradient
    (``grad[s, i, k] = d_k T_i``; None at order 0).  A point that fails is
    re-run alone, which raises its error as a one-point call would."""

    def at(ev):
        down = _trace_form(scenario, ev, order)[-1]
        parts = [down.value[..., None]] + ([down.gradient] if order >= 1 else [])
        return np.concatenate(parts, axis=-1)

    points = np.asarray(points, dtype=float)
    ev = Evaluator(points, strict=False)
    with np.errstate(all="ignore"):
        out = at(ev)
    for index in np.flatnonzero(ev.bad):
        out[index] = at(Evaluator(points[index], strict=True))
    return out[..., 0], (out[..., 1:] if order >= 1 else None)


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
        base = np.asarray(self.base)
        w = np.asarray(target) - base

        def integrand(ts: np.ndarray) -> np.ndarray:
            values, grads = _trace_one_form(self.scenario, base + ts[:, None] * w, 1)
            out = np.empty((len(ts), 1 + len(w)))
            out[:, 0] = values @ w
            out[:, 1:] = ts[:, None] * np.einsum("sij,i->sj", grads, w) + values
            return out

        result = _adaptive(integrand, self.quadrature_tol)
        return float(result[0]), result[1:]

    def scaled_metric(self, point, phi: float) -> MetricValue:
        """The scenario metric at ``point`` rescaled by exp(2*phi)."""
        g = metric_at(self.scenario, point, order=0)
        return MetricValue(g.jet * math.exp(2.0 * phi), point=g.point)

    def _segment_integral(self, start, end) -> np.ndarray:
        start = np.asarray(start)
        w = np.asarray(end) - start

        def integrand(ts: np.ndarray) -> np.ndarray:
            values, _ = _trace_one_form(self.scenario, start + ts[:, None] * w, 0)
            return (values @ w)[:, None]

        return _adaptive(integrand, self.quadrature_tol)


def integrate_phi(scenario: Scenario, base, target, *, quadrature_tol=None) -> float:
    """Line integral of the trace one-form from ``base`` to ``target``."""
    return RecoveredFactor(scenario, base, quadrature_tol=quadrature_tol).phi(target)


def integrate_phi_path(scenario: Scenario, waypoints, *, quadrature_tol=None) -> float:
    """Integral along a polyline of straight legs through ``waypoints``."""
    points = [tuple(float(c) for c in p) for p in waypoints]
    if len(points) < 2:
        raise ValueError("a path needs at least two waypoints")
    total = 0.0
    evaluator = RecoveredFactor(scenario, points[0], quadrature_tol=quadrature_tol)
    for start, end in zip(points, points[1:]):
        evaluator._inside(start)
        evaluator._inside(end)
        if start == end:
            continue
        total += float(evaluator._segment_integral(start, end)[0])
    return total


def recover_metric(scenario: Scenario, base, points, *, quadrature_tol=None) -> list:
    """Recovered metric g * exp(2*phi) at each query point (value level)."""
    evaluator = RecoveredFactor(scenario, base, quadrature_tol=quadrature_tol)
    return [evaluator.scaled_metric(point, evaluator.phi(point)) for point in points]


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

    At each sampled point the factor phi is assembled as an order-2 jet
    (value from quadrature, gradient by differentiating under the
    integral, Hessian as the symmetrized gradient of the trace one-form),
    the metric is rescaled, and the Thomas symbols of its Levi-Civita
    connection are compared against the scenario connection's.
    """
    count = scenario.samples if samples is None else samples
    seed_val = scenario.seed if seed is None else seed
    evaluator = RecoveredFactor(scenario, base, quadrature_tol=quadrature_tol)
    n = scenario.dimension
    rank_tol = scenario.tolerances.rank
    max_deviation = 0.0
    for index in range(count):
        stream = point_stream(seed_val, index)
        point = draw_point(stream, scenario.box_min, scenario.box_max)
        phi_value, phi_gradient = evaluator.phi_and_gradient(point)
        _, (grads,) = _trace_one_form(scenario, [point], 1)
        hessian = 0.5 * (grads + grads.T)
        phi_jet = Jet(n, 2, phi_value, phi_gradient, hessian)
        g = metric_at(scenario, point, order=2)
        recovered = conformal_rescale_metric(g, phi_jet)
        pi_recovered = thomas_symbol(christoffel(recovered, rank_tol=rank_tol))
        pi_gamma = thomas_symbol(connection_at(scenario, point, order=0))
        deviation = float(
            np.max(np.abs(pi_recovered.components - pi_gamma.components))
        )
        max_deviation = max(max_deviation, deviation)
    return RecoveryVerification(
        max_deviation=max_deviation,
        passed=max_deviation <= scenario.tolerances.residual,
        samples=count,
    )
