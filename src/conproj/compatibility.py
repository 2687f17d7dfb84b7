"""Compatibility criterion for a conformal/projective structure pair.

At each sample point the pipeline builds the trace-free difference tensor
T^i_jk between the metric's Levi-Civita connection and the scenario
connection, contracts it to T^i and T_i, and evaluates two obstructions:

* condition (A): the algebraic residual
  ``T^i_jk - g_jk T^i + (delta^i_j T_k + delta^i_k T_j)/(n+1)``,
* condition (B): the closedness residual ``d_j T_i - d_i T_j``.

Both vanishing (within tolerance) over the sampling box is the verdict
``compatible``; the one-form T_i then integrates to the conformal factor
of the shared metric.  The null-geodesic (EPS) residual is also reported:
it is implied by compatibility but does not imply it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import jets
from .errors import ConprojError, DegenerateMetric
from .expressions import Batch, at_point
from .geometry import (
    DEFAULT_RANK_TOL,
    ConnectionValue,
    MetricValue,
    OneFormValue,
    VectorValue,
    ill_conditioned,
    invert_metric,
    levi_civita,
    tracefree,
)
from .jets import Jet
from .sampling import SplitMix64, uniform_draws
from .scenario import (
    Scenario,
    Tolerances,
    _check_point,
    _connection,
    _draw_samples,
    _geometry,
    _plan,
    metric_geometry,
)

__all__ = [
    "NullVector",
    "ObstructionData",
    "PointSummary",
    "CompatReport",
    "sample_null_vectors",
    "eps_residual",
    "obstruction_at",
    "check_compatibility",
]

NULL_TOL = 1e-10
# The verdict, indexed by (A fails) + 2 * (B fails).
_VERDICTS = ("compatible", "fails_A", "fails_B", "fails_A_and_B")
# Sample points evaluated together; bounds the memory of a large check.
CHUNK_POINTS = 1024


@dataclass(frozen=True)
class NullVector:
    """A nonzero vector annihilated by the metric at its point."""

    point: tuple | None
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1 or not u.any():
            raise ValueError("null vector must be a nonzero 1-d array")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class ObstructionData:
    """Tensors of the compatibility check at a point, or over a stack of
    points (then ``point`` is None and every array leads with the points).
    ``a`` and ``b`` are the raw condition residual arrays; ``scale`` is the
    normalization max(1, |Gamma|, |g|, |g^-1|) used for reporting.
    """

    point: tuple | None
    t_tensor: ConnectionValue
    t_up: VectorValue
    t_down: OneFormValue
    a: np.ndarray
    b: np.ndarray
    scale: float
    metric: MetricValue
    diff_values: np.ndarray

    @property
    def a_residual(self) -> float:
        return float(np.max(np.abs(self.a))) / self.scale

    @property
    def b_residual(self) -> float:
        return float(np.max(np.abs(self.b))) / self.scale


@dataclass(frozen=True)
class PointSummary:
    point: tuple
    a: float
    b: float
    eps: float | None
    scale: float


@dataclass(frozen=True)
class CompatReport:
    verdict: str
    eps_verdict: str
    max_a: float
    max_b: float
    max_eps: float | None
    samples: int
    seed: int
    tolerances: Tolerances
    null_vectors: int
    per_point: tuple
    worst: tuple
    skipped: tuple


def _trace_plan(scenario: Scenario, order: int):
    """The plan whose outputs are the metric (order ``order + 1``), its inverse (order
    ``order``), the connection and :func:`_trace_form`."""

    def build(plan):
        recipe = scenario.connection  # the scenario metric's errors come before the recipe's
        geometry = _geometry(plan, order, scenario.tolerances.rank, [scenario.metric], recipe)
        gamma = _connection(plan, recipe, order, geometry)
        view = metric_geometry(plan, scenario.metric, geometry)
        g, ginv = (plan.step(itemgetter(i), view) for i in (0, 1))
        return g, ginv, gamma, plan.step(lambda view, gamma: _trace_form(*view, gamma), view, gamma)

    return _plan(scenario, ("trace", order), build)


def _trace_form(g: Jet, ginv: Jet, base: Jet, gamma: Jet):
    """Difference Gamma_LC - Gamma of the Levi-Civita connection ``base`` of ``g`` and a
    connection, its trace-free part T and the traces T^i, T_i."""
    n = g.n
    diff = jets.sub(base, gamma, None)
    T = tracefree(diff)
    up = jets.matmul(jets.reshape(T, 3, (n, n * n)), jets.reshape(ginv, 2, (n * n, 1)))
    up = jets.mul(jets.reshape(up, 2, (n,)), (n + 1) / ((n + 2) * (n - 1)), None)
    return diff, T, up, jets.reshape(jets.matmul(g, jets.reshape(up, 1, (n, 1))), 2, (n,))


def _condition_a(t, up, down, g) -> np.ndarray:
    n = g.shape[-1]
    d = np.einsum("ij,...k->...ijk", np.eye(n), down / (n + 1))
    return (t - up[..., :, None, None] * g[..., None, :, :]) + (d + np.swapaxes(d, -1, -2))


def _condition_b(down: Jet) -> np.ndarray:
    # down.gradient[..., i, k] = d_k T_i; B_ki = d_k T_i - d_i T_k
    return np.swapaxes(down.gradient, -1, -2) - down.gradient


def _obstructions(batch: Batch):
    """The obstructions from the outputs of the order-1 :func:`_trace_plan`, and the
    max-abs of A and of B at each point."""
    g, ginv, gamma, (diff, T, up, down) = batch.out
    a = _condition_a(T.value, up.value, down.value, g.value)
    b = _condition_b(down)
    lead = len(batch.shape)
    scale = np.maximum.reduce(
        [np.ones(batch.shape)] + [_absmax(x, lead) for x in (gamma.value, g.value, ginv.value)]
    )
    maxima = [_absmax(a, lead), _absmax(b, lead)]
    batch.report(~np.isfinite([scale, *maxima]).all(0), jets._NON_FINITE)
    point = None if batch.shape else batch.point_at(0)
    return ObstructionData(
        point=point,
        t_tensor=ConnectionValue(T),
        t_up=VectorValue(up),
        t_down=OneFormValue(down),
        a=a,
        b=b,
        scale=scale,
        metric=MetricValue(g, point=point),
        diff_values=diff.value,
    ), maxima


def _absmax(x: np.ndarray, lead: int) -> np.ndarray:
    """Max-abs over every axis after the first ``lead`` (point) axes."""
    return np.max(np.abs(x), axis=tuple(range(lead, x.ndim)))


def sample_null_vectors(g: MetricValue, count: int, rng: SplitMix64) -> list:
    """Random vectors on the metric's null cone.

    The value matrix is diagonalized by ``np.linalg.eigh``; a draw combines a random
    direction from the positive eigenspace with one from the negative eigenspace, scaled
    so the quadratic form cancels.  It is the one-row case of the kernel that
    ``check_compatibility`` batches, so a definite metric draws nothing and gets an empty
    list.  Degeneracy (``ill_conditioned`` of max|lambda| / min|lambda|) and the null
    residual are relative to the largest eigenvalue, so neither depends on the scale of
    the metric.  ``rng`` skips the draws used; a raising call uses none.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ValueError("null vector count must be a non-negative integer")
    _, u, used, fails = _null_cone(
        g.values()[None], count, np.array([rng.state]), DEFAULT_RANK_TOL, lambda i: g.point
    )
    for error in fails.values():
        raise error
    rng.skip(int(np.sum(used)))
    return [NullVector(point=g.point, u=v) for row in u for v in row]


def _null_cone(values: np.ndarray, count: int, states: np.ndarray, rank_tol: float, point_at):
    """``count`` null vectors at each point of a metric stack ``(S, n, n)`` that has a cone,
    from the SplitMix64 streams in ``states`` as one point at a time would draw them.  After
    one ``eigh`` only the H rows with 0 < m < n negative eigenvalues that are not degenerate
    enter one ``(H, 2 * count, n)`` layout of legs plus, minus, plus, ..., drawing n - m and m
    per leg (eigenvectors ``[:, :m]``); a rejected leg is drawn again from the next positions,
    shifting every later leg.  Returns the H rows' indices, vectors and draws, and ``{index:
    error}``; an error names ``point_at(i)`` (a tuple or None), asked only at a failing point."""
    n = values.shape[-1]
    lam, vec = np.linalg.eigh(values)
    scale = np.max(np.abs(lam), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        degenerate = ill_conditioned(scale / np.min(np.abs(lam), axis=1), rank_tol)
    fails = {}
    for i in np.flatnonzero(degenerate).tolist():
        fails[i] = DegenerateMetric(np.prod(lam[i]), point_at(i))
    m = np.sum(lam < 0.0, axis=1)
    cone = np.flatnonzero((m > 0) & (m < n) & ~degenerate & (count > 0))
    if not cone.size:  # no leg layout, redraw test or tail
        return cone, np.zeros((0, count, n)), np.zeros(0, dtype=np.int64), fails
    values, vec, scale, m = values[cone], vec[cone], scale[cone], m[cone, None]
    plus = np.arange(2 * count) % 2 == 0
    k = np.where(plus, n - m, m)  # draws per leg
    slot = np.arange(n) - np.where(plus, m, 0)[..., None]  # stream offset, if taken
    take = (slot >= 0) & (slot < k[..., None])  # the coefficients a leg uses
    extra = np.zeros(k.shape, dtype=np.int64)  # rejected tries
    leg, q = np.zeros(k.shape + (n,)), np.zeros(k.shape)
    live, st = np.arange(len(cone)), states[cone, None, None]
    while live.size:
        begin = np.cumsum(k[live] * (extra[live] + 1), axis=1) - k[live]
        draws = uniform_draws(st[live], begin[..., None] + slot[live], -1.0, 1.0)
        c = np.where(take[live], draws, 0.0)
        leg[live] = np.einsum("gij,glj->gli", vec[live], c)
        q[live] = np.einsum("gli,gij,glj->gl", leg[live], values[live], leg[live])
        rejected = (np.einsum("glj,glj->gl", c, c) < 1e-4) | ~(np.abs(q[live]) > 0.0)
        again = rejected.any(axis=1)
        live, first = live[again], rejected[again].argmax(axis=1)
        extra[live, first] += 1
        live = live[extra[live, first] < 1000]
    capped = np.any(extra == 1000, axis=1)  # a leg ran out of tries
    with np.errstate(all="ignore"):  # legs past a cap
        w = leg / np.sqrt(np.abs(q))[..., None]
        w = w[:, 0::2] + w[:, 1::2]
        w /= np.max(np.abs(w), axis=-1, keepdims=True)
        residual = np.abs(np.einsum("sci,sij,scj->sc", w, values, w))
        lost = residual > NULL_TOL * scale[:, None] * np.einsum("sci,sci->sc", w, w)
    reasons = ("null-cone sampling lost precision", "failed to draw a usable cone direction")
    for j in np.flatnonzero(lost.any(axis=1) | capped).tolist():
        p = point_at(int(cone[j]))
        where = f" at point {p}" if p is not None else ""
        fails[int(cone[j])] = ConprojError(reasons[int(capped[j])] + where)
    return cone, w, np.sum(k * (extra + 1), axis=1), fails


def eps_residual(g: MetricValue, gamma: ConnectionValue, u) -> float:
    """Non-parallel part of (F(g) - Gamma) u u relative to u.

    Zero means the null direction ``u`` is geodesic for both structures.
    Parallelism is measured with the Euclidean chart inner product: ``u``
    is null for ``g``, so a metric projection would be undefined.
    """
    vec = np.asarray(u.u if isinstance(u, NullVector) else u, dtype=float)
    if not vec.any():
        raise ValueError("direction vector must be nonzero")
    if g.order < 1:
        raise ValueError("eps_residual requires metric jets of order >= 1")
    ginv = invert_metric(g).jet
    diff = _trace_form(g.jet, ginv, levi_civita(g.jet, ginv), gamma.jet)[0]
    return float(_eps_from_diff(diff.value, vec[None])[0])


def _eps_from_diff(diff_values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """EPS residual of each direction ``u[..., m, :]`` against the difference
    tensor ``diff_values[..., :, :, :]`` of its point."""
    d = np.einsum("...ijk,...mj,...mk->...mi", diff_values, u, u)
    uu = np.einsum("...i,...i->...", u, u)
    parallel = np.einsum("...i,...i->...", d, u) / uu
    return np.max(np.abs(d - parallel[..., None] * u), axis=-1) / uu


def _point_figures(scenario: Scenario, batch: Batch, states: np.ndarray) -> list:
    """A, B, scale and EPS over 2n null vectors drawn from ``states`` (NaN at a point
    without a cone) at each point of the batch; flags failed null cones."""
    obs, maxima = _obstructions(batch)
    n, eps = obs.metric.n, np.full(batch.shape, np.nan)
    values = np.where(batch.bad[:, None, None], np.eye(n), obs.metric.jet.value)
    cone, u, _, fails = _null_cone(values, 2 * n, states, scenario.tolerances.rank, batch.point_at)
    batch.flag(np.isin(np.arange(len(eps)), list(fails)), fails.get)
    eps[cone] = np.max(_eps_from_diff(obs.diff_values[cone], u), axis=-1)
    return [maxima[0] / obs.scale, maxima[1] / obs.scale, obs.scale, eps]


def _batched(points: np.ndarray, plan, at, *rows):
    """The arrays ``at(batch, *rows)`` over a stack of points, ``plan`` run on at most
    ``CHUNK_POINTS`` per batch (an empty stack still runs one, for the shapes) with the
    per-point ``rows`` sliced to match, and the index and error of each failing point in
    index order: the first error detected at it, which is the error of the point alone.
    The one chunked loop: :func:`_sweep` runs the sampled calls through it and
    recovery its quadrature nodes and query points."""
    parts, errors = [], []
    for start in range(0, max(len(points), 1), CHUNK_POINTS):
        chunk = slice(start, start + CHUNK_POINTS)
        with np.errstate(all="ignore"):
            batch = plan.run(points[chunk])
            parts.append(at(batch, *(row[chunk] for row in rows)))
        errors.extend((start + i, error) for i, error in sorted(batch.errors.items()))
    return [np.concatenate(column) for column in zip(*parts)], errors


def _strict(values: list, errors) -> list:
    """The values of :func:`_batched`, or its first error raised."""
    for _, error in errors:
        raise error
    return values


def _skipped(points: np.ndarray, errors):
    """The one rule for sample ``points`` that failed with the ``errors`` of
    :func:`_batched`, applied by :func:`_sweep` alone: a degenerate metric is skipped
    while the skipped points stay under 1% of the samples; beyond that, and on any
    other failure, the first failing point in sample order raises.
    Returns the mask of points kept and the skipped points with their dets."""
    keep, skipped = np.ones(len(points), dtype=bool), []
    for i, failure in errors:
        if not isinstance(failure, DegenerateMetric):
            raise failure
        point = tuple(points[i].tolist())
        skipped.append((point, failure.det))
        if len(skipped) * 100 >= len(points):
            detail = f"{len(skipped)} of {len(points)} sample points degenerate"
            raise DegenerateMetric(failure.det, point=point, detail=detail) from failure
        keep[i] = False
    return keep, tuple(skipped)


def _sweep(scenario: Scenario, samples, seed, order: int, at):
    """The one pass of every sampled call: the count and seed (the scenario's where
    None), the points and their streams, the arrays ``at(batch, states)`` of the
    order-``order`` :func:`_trace_plan` over them by :func:`_batched` and the rule of
    :func:`_skipped`.  Returns the count, the seed, the kept points, the kept rows of
    each array and the skipped points."""
    count, seed, points, states = _draw_samples(scenario, samples, seed)
    columns, errors = _batched(points, _trace_plan(scenario, order), at, states)
    keep, skipped = _skipped(points, errors)
    return count, seed, points[keep], [column[keep] for column in columns], skipped


def obstruction_at(scenario: Scenario, point) -> ObstructionData:
    """Full obstruction pipeline at one point of the sampling box."""
    plan = _trace_plan(scenario, 1)
    return at_point(plan, _check_point(scenario, point), lambda batch: _obstructions(batch)[0])


def check_compatibility(
    scenario: Scenario,
    *,
    samples: int | None = None,
    seed: int | None = None,
) -> CompatReport:
    """Sample the box and aggregate the obstruction and EPS residuals.

    One sweep (:func:`_sweep`, shared with ``verify_recovery``) draws the
    points, evaluates obstructions, null vectors and EPS in chunks and applies
    the skip rule; each point's own stream goes on into its null-vector draws.
    Each point keeps the first failure detected at it, the one that point
    alone raises, and the first failing point in sample order decides.  Points
    where the metric degenerates are skipped and reported while they stay
    under 1% of the samples; beyond that the degeneracy is fatal.  Per-point
    residuals are scale-normalized before aggregation, and ``worst`` lists
    the three largest max(A, B), ties in sample order.
    """
    count, seed, points, (a, b, scale, eps), skipped = _sweep(
        scenario, samples, seed, 1, lambda batch, states: _point_figures(scenario, batch, states)
    )
    has = ~np.isnan(eps)  # a kept point has EPS exactly when it has a cone
    kept = zip(points.tolist(), a.tolist(), b.tolist(), scale.tolist(), eps.tolist(), has.tolist())
    per_point = tuple(
        PointSummary(tuple(p), x, y, e if h else None, s) for p, x, y, s, e, h in kept
    )
    tol = scenario.tolerances.residual
    max_a, max_b = (float(np.max(x, initial=0.0)) for x in (a, b))
    max_eps = float(np.max(eps[has])) if has.any() else None
    worst = np.argsort(-np.maximum(a, b), kind="stable")[:3].tolist()
    return CompatReport(
        verdict=_VERDICTS[(max_a > tol) + 2 * (max_b > tol)],
        eps_verdict="vacuous" if max_eps is None else ("holds", "fails")[max_eps > tol],
        max_a=max_a,
        max_b=max_b,
        max_eps=max_eps,
        samples=count,
        seed=seed,
        tolerances=scenario.tolerances,
        null_vectors=2 * scenario.dimension * int(np.count_nonzero(has)),
        per_point=per_point,
        worst=tuple(per_point[i] for i in worst),
        skipped=skipped,
    )
