"""Conformal-factor recovery by line integration of the trace one-form.

On a compatible pair the one-form T_i is closed over the (convex) sampling
box, so its integral along straight segments from a base point defines the
log-conformal factor phi with phi(base) = 0; the shared metric is then
g * exp(2*phi), unique up to the constant fixed by the normalization.
Integrals use adaptive Gauss-Kronrod 7-15 quadrature with an error estimate
|K15 - G7| per segment, refined breadth-first: each level bisects every
unsettled segment of every integral of a call and evaluates all their nodes
as one batch.  Batches run through the chunked loop of ``check_compatibility``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compatibility import _batched, _condition_a, _phi_plan, _strict, _sweep
from .errors import NonConvergence
from .geometry import MetricValue
from .jets import Jet
from .scenario import Scenario, _check_point, _metric_plan

__all__ = [
    "RecoveredFactor",
    "RecoveryVerification",
    "integrate_phi",
    "integrate_phi_path",
    "recover_metric",
    "verify_recovery",
]

# QUADPACK qk15 (Piessens et al. 1983): the Kronrod nodes in [0, 1), descending, their K15
# weights and the weights of the embedded 7-point Gauss rule G7 on every second node.
_X = [0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
      0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0]
_WK = [0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782]
_WG = [0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0,
       0.4179591836734694]
_NODES = np.concatenate([np.negative(_X), _X[-2::-1]])  # ascending on [-1, 1]
_WEIGHTS = np.array([w + w[-2::-1] for w in (_WK, _WG)])  # rows K15 and G7
# Segments one integral may evaluate before NonConvergence: adaptive Gauss-Kronrod 7-15
# applies one K15 rule to each, with an error estimate |K15 - G7| per segment.
MAX_SEGMENTS = 1024


def _kronrod(scenario, starts, w, owner, mid, half, order):
    """K15 estimate over ``t`` in [mid - half, mid + half] of the integral ``owner`` (see
    :func:`_integrate`), one row per rule, and its error |K15 - G7| (max over the
    columns); reads the packed jet of T_i, whose gradient columns hold ``d_k T_i``."""
    t = mid[:, None] + half[:, None] * _NODES
    w = w[owner]
    points = starts[owner][:, None, :] + t[..., None] * w[:, None, :]
    plan, stack = _phi_plan(scenario, order), points.reshape(-1, w.shape[1])
    (down,) = _strict(*_batched(stack, plan, lambda batch: [batch.out[0].data]))
    down = down.reshape(points.shape + down.shape[-1:])  # T_i packed as [r, s, i, Y]
    f = np.einsum("rsiY,ri->rsY", down, w)  # T_i w^i and, at order 1, d_k T_i w^i
    if order >= 1:
        f[..., 1:] = t[..., None] * f[..., 1:] + down[..., 0]
    k15, g7 = np.einsum("ws,rsY->wrY", _WEIGHTS, f) * half[:, None]
    return k15, np.max(np.abs(k15 - g7), axis=1)


def _integrate(scenario: Scenario, starts, ends, order: int) -> np.ndarray:
    """Integrals of ``T_i w^i`` over ``t`` in [0, 1] along ``c(t) = start + t w``,
    ``w = end - start``, one row each: shape (m, 1), or at order 1 (m, 1 + n)
    with the end-point gradient after the value (see ``phi_and_gradient``).

    Adaptive Gauss-Kronrod 7-15: one K15 rule per segment and an error estimate
    |K15 - G7| per segment from its 15 nodes; a segment settles when that is below
    the quadrature tolerance, which halves with each level.  Each level bisects every
    unsettled segment and evaluates all halves at once, so an integral's tree, result
    and failure do not depend on its batch.  At order 0 a zero-length segment
    integrates to 0 and evaluates nothing; at order 1 its gradient is T at the start.
    """
    ends = np.asarray(ends, dtype=float).reshape(-1, scenario.dimension)
    starts = np.broadcast_to(np.asarray(starts, dtype=float), ends.shape)
    w, m = ends - starts, len(ends)
    owner = np.flatnonzero(np.any(w != 0.0, axis=1) | (order > 0))
    mid, half = np.full(owner.size, 0.5), np.full(owner.size, 0.5)
    total, used = np.zeros((m, 1 + order * w.shape[1])), np.zeros(m, dtype=int)
    tol = scenario.tolerances.quadrature
    while owner.size:
        estimate, error = _kronrod(scenario, starts, w, owner, mid, half, order)
        settled = error < tol
        np.add.at(total, owner[settled], estimate[settled])
        used += np.bincount(owner, minlength=m)
        owner, error, mid, half = (x[~settled] for x in (owner, error, mid, half))
        over = np.flatnonzero(used + 2 * np.bincount(owner, minlength=m) > MAX_SEGMENTS)
        if over.size:
            j = over[0]
            raise NonConvergence(
                f"quadrature from {tuple(starts[j].tolist())} to {tuple(ends[j].tolist())} did "
                f"not settle in {used[j]} of at most {MAX_SEGMENTS} segments (error estimate "
                f"{np.sum(error[owner == j]):.3e})"
            )
        mid = (mid[:, None] + np.outer(half, [-0.5, 0.5])).ravel()
        owner, half, tol = np.repeat(owner, 2), np.repeat(0.5 * half, 2), 0.5 * tol
    return total


class RecoveredFactor:
    """Evaluator for the recovered log-conformal factor.

    ``phi`` integrates the trace one-form along the straight segment from
    the base point, so ``phi(base) == 0``; the constant-factor freedom of
    the recovered metric is surfaced by the choice of base, not hidden.
    """

    def __init__(self, scenario: Scenario, base):
        self.scenario = scenario
        self.base = self._inside(base)

    def _inside(self, point) -> tuple:
        p = tuple(float(c) for c in point)
        if len(p) != self.scenario.dimension:
            raise ValueError("point dimension mismatch")
        box = zip(self.scenario.box_min, self.scenario.box_max)
        if any(not lo <= c <= hi for c, (lo, hi) in zip(p, box)):
            raise ValueError(f"point {p} lies outside the sampling box")
        return p

    def phi(self, target) -> float:
        return float(_integrate(self.scenario, self.base, self._inside(target), 0)[0, 0])

    def phi_and_gradient(self, target):
        """Line-integral value and its true target-point gradient.

        The gradient differentiates under the integral sign:
        ``d_j phi = int_0^1 (t * d_j T_i(c(t)) w^i + T_j(c(t))) dt`` for the
        segment ``c(t) = base + t w``.  When the closedness condition holds
        this reduces to T_j at the target; when it fails, the honest
        gradient is what makes downstream verification fail too.
        """
        result = _integrate(self.scenario, self.base, self._inside(target), 1)[0]
        return float(result[0]), result[1:]

    def scaled_metric(self, point, phi: float) -> MetricValue:
        """The scenario metric at ``point`` rescaled by exp(2*phi)."""
        return _scaled_metrics(self.scenario, [_check_point(self.scenario, point)], [phi])[0]


def integrate_phi(scenario: Scenario, base, target) -> float:
    """Line integral of the trace one-form from ``base`` to ``target``."""
    return RecoveredFactor(scenario, base).phi(target)


def integrate_phi_path(scenario: Scenario, waypoints) -> float:
    """Integral along a polyline of straight legs through ``waypoints``: the correctly
    rounded sum of the legs, so a repeated waypoint (a zero leg) changes no bit."""
    points = list(waypoints)
    if len(points) < 2:
        raise ValueError("a path needs at least two waypoints")
    factor = RecoveredFactor(scenario, points[0])
    points = np.array([factor._inside(point) for point in points])
    return math.fsum(_integrate(scenario, points[:-1], points[1:], 0)[:, 0].tolist())


def recover_metric(scenario: Scenario, base, points) -> list:
    """Recovered metric g * exp(2*phi) at each query point (value level)."""
    factor = RecoveredFactor(scenario, base)
    points = [factor._inside(point) for point in points]
    phi = _integrate(scenario, factor.base, points, 0)[:, 0]
    return _scaled_metrics(scenario, points, phi.tolist())


def _scaled_metrics(scenario: Scenario, points: list, phis: list) -> list:
    """The scenario metric at each point (tuples) rescaled by exp(2*phi), in batches."""
    n = scenario.dimension
    stack = np.reshape(points, (-1, n))
    (g,) = _strict(*_batched(stack, _metric_plan(scenario, 0), lambda batch: [batch.out[0].value]))
    return [
        MetricValue(Jet(n, 0, v) * math.exp(2.0 * phi), point=p)
        for p, v, phi in zip(points, g, phis)
    ]


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
) -> RecoveryVerification:
    """Compare the recovered metric's projective class against the scenario's.

    The Levi-Civita connection of g * exp(2*phi) is that of g plus
    ``delta^i_j phi_k + delta^i_k phi_j - g^ip phi_p g_jk``, whose first two
    terms are a projective change, so its Thomas symbol differs from the
    scenario connection's by ``T - tracefree((g^-1 dphi) (x) g)``, T the
    trace-free part of Gamma_LC - Gamma: that is condition (A) at
    (T^i, T_i) = (g^ij d_j phi, d_i phi), since (g^-1 dphi) (x) g has trace
    dphi.  The sweep of ``check_compatibility`` draws the same points,
    evaluates g, g^-1 and T at order 0 and skips points by its rule (a
    degenerate metric, fatal at 1% of the samples); one quadrature then
    gives dphi at every kept sample, and the deviation is the largest entry.
    """
    factor = RecoveredFactor(scenario, base)

    def at(batch, _states):
        (g, ginv), _, T, *_ = batch.out
        return [g.value, ginv.value, T.value]

    count, _, points, (g, ginv, T), _ = _sweep(scenario, samples, seed, 0, at)
    dphi = _integrate(scenario, factor.base, points, 1)[:, 1:]
    deviation = _condition_a(T, (ginv @ dphi[..., None])[..., 0], dphi, g)
    max_deviation = float(np.max(np.abs(deviation), initial=0.0))
    return RecoveryVerification(
        max_deviation=max_deviation,
        passed=max_deviation <= scenario.tolerances.residual,
        samples=count,
    )
