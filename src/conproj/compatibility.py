"""Compatibility criterion for a conformal/projective structure pair.

At each sample point the pipeline builds the trace-free difference tensor
T^i_jk between the metric's Levi-Civita connection and the scenario
connection, takes the one-form T_i (and T^i = g^ij T_j) from the traces of
the two connections, in which a projective shift psi cancels, and evaluates
two obstructions:

* condition (A): the algebraic residual
  ``T^i_jk - g_jk T^i + (delta^i_j T_k + delta^i_k T_j)/(n+1)``,
* condition (B): the closedness residual ``d_j T_i - d_i T_j``.

Both vanishing (within tolerance) over the sampling box is the verdict
``compatible``; the one-form T_i then integrates to the conformal factor
of the shared metric.  The null-geodesic (EPS) residual is also reported,
read off (A) at null vectors: it is implied by compatibility but does not
imply it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    christoffel,
    identity,
    ill_conditioned,
    tracefree,
)
from .jets import Jet
from .sampling import SplitMix64, as_floats, as_int, uniform_draws
from .scenario import (
    LeviCivitaRecipe,
    Scenario,
    Tolerances,
    _check_point,
    _connection,
    _draw_samples,
    _geometry,
    _plan,
    _traces,
    _unshifted,
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
        message = "null vector must be a finite, nonzero 1-d array"
        u = as_floats(self.u, message)
        if u.ndim != 1 or not (np.isfinite(u).all() and u.any()):
            raise ValueError(message)
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class ObstructionData:
    """Tensors of the compatibility check at a point (see :func:`obstruction_at`).
    ``t_tensor`` and ``t_up`` are order-0 jets, ``t_down`` has its gradient.
    ``a`` and ``b`` are the raw condition residual arrays, ``a_residual`` and
    ``b_residual`` their max-abs over ``scale``, the normalization max(1, |Gamma|,
    |g| |g^-1|) of max-abs entries used for reporting, Gamma the connection of the
    recipe's base (without its projective shifts).
    """

    point: tuple | None
    t_tensor: ConnectionValue
    t_up: VectorValue
    t_down: OneFormValue
    a: np.ndarray
    b: np.ndarray
    a_residual: float
    b_residual: float
    scale: float
    metric: MetricValue


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
    """The plan of the sampled calls, whose outputs are the :func:`metric_geometry` view (g at
    order ``order + 1``, g^-1 at ``order``), the connection Gamma of the recipe's base (so the
    scale max(1, |Gamma|, |g| |g^-1|) reads no psi) and the trace-free part T of Gamma_LC -
    Gamma at order 0, at order 1 the one-form T_i of :func:`_one_form`, then each projective
    shift's psi at order 0, for its errors alone."""

    def build(plan):
        base, shifts = _unshifted(scenario.connection)  # g's errors precede the recipe's
        geometry = _geometry(plan, order, scenario.tolerances.rank, [scenario.metric], base)
        gamma = _connection(plan, base, 0, geometry)
        psi = [plan.stack(entries, (plan.n,), 0) for entries in shifts]
        view = metric_geometry(plan, scenario.metric, geometry)
        lc = _connection(plan, LeviCivitaRecipe(scenario.metric), 0, geometry)
        form = [view, gamma, plan.step(lambda b, c: tracefree(jets.sub(b, c, None)), lc, gamma)]
        return form + ([_trace_one_form(plan, scenario, order, geometry)] if order else []) + psi

    return _plan(scenario, ("trace", order), build)


def _phi_plan(scenario: Scenario, order: int):
    """The plan of quadrature, whose one output is the one-form T_i at order ``order``."""

    def build(plan):
        recipe = scenario.connection
        geometry = _geometry(plan, order, scenario.tolerances.rank, [scenario.metric], recipe)
        return [_trace_one_form(plan, scenario, order, geometry)]

    return _plan(scenario, ("phi", order), build)


def _trace_one_form(plan, scenario: Scenario, order: int, geometry: dict) -> int:
    """Node of :func:`_one_form` at ``order`` from the :func:`_traces` of the two connections."""
    other = _traces(plan, scenario.connection, order, geometry, scenario.metric)
    own = _traces(plan, LeviCivitaRecipe(scenario.metric), order, geometry, scenario.metric)
    return plan.step(_one_form, own, other)


def _one_form(own: Jet, other: Jet) -> Jet:
    """T_i = c (g_ij g^kl D^j_kl - 2 D^p_pi / (n+1)), c = (n+1)/((n+2)(n-1)), of
    D = Gamma_LC - Gamma from the (2, n) traces ``own`` of Gamma_LC and ``other`` of Gamma."""
    n, d = own.n, own.data - other.data
    c = (n + 1) / ((n + 2) * (n - 1))
    return jets._wrap(n, own.order, c * (d[..., 0, :, :] - 2.0 / (n + 1) * d[..., 1, :, :]))


def _condition_a(t, up, down, g) -> np.ndarray:
    """T^i_jk - T^i g_jk + delta^i_j T_k/(n+1) + delta^i_k T_j/(n+1) from the values, by the
    operations of ``shift(drift(...))`` in their order."""
    n = g.shape[-1]
    d = identity(n)[:, :, None] * (down / (n + 1))[..., None, None, :]
    return t - up[..., :, None, None] * g[..., None, :, :] + (d + np.swapaxes(d, -2, -1))


def _condition_b(down: Jet) -> np.ndarray:
    # down.gradient[..., i, k] = d_k T_i; B_ki = d_k T_i - d_i T_k
    return np.swapaxes(down.gradient, -1, -2) - down.gradient


def _figures(batch: Batch) -> tuple:
    """T^i, A, B, the max-abs of A and of B over the scale, and the scale at each point from
    the outputs of the order-1 :func:`_trace_plan`; flags each point whose figures are not
    finite."""
    (g, ginv), gamma, T, down, *_ = batch.out
    up = (ginv.value @ down.value[..., None])[..., 0]
    a = _condition_a(T.value, up, down.value, g.value)
    b = _condition_b(down)
    lead = len(batch.shape)
    size = _absmax(g.value, lead) * _absmax(ginv.value, lead)  # no conformal factor moves it
    scale = np.maximum.reduce([np.ones(batch.shape), _absmax(gamma.value, lead), size])
    max_a, max_b = _absmax(a, lead), _absmax(b, lead)
    if not math.isfinite((scale + max_a + max_b).sum()):  # or an overflow, which flags none
        batch.report(~np.isfinite([scale, max_a, max_b]).all(0), jets._NON_FINITE)
    return up, a, b, max_a / scale, max_b / scale, scale


def _absmax(x: np.ndarray, lead: int) -> np.ndarray:
    """Max-abs over every axis after the first ``lead`` (point) axes."""
    return np.abs(x).max(axis=tuple(range(lead, x.ndim)))


def sample_null_vectors(g: MetricValue, count: int, rng: SplitMix64) -> list:
    """Random vectors on the metric's null cone.

    The value matrix is diagonalized by ``np.linalg.eigh``; a vector combines a random
    direction from the positive eigenspace with one from the negative eigenspace, one
    uniform draw per eigenvector, scaled so the quadratic form cancels.  It is the one-row
    case of the kernel that ``check_compatibility`` batches, so a definite metric draws
    nothing and gets an empty list.  The kernel works on the metric times an exact power of
    four, so the null residual and the vectors do not depend on the metric's scale.  Having
    no inverse, it judges degeneracy itself, by ``ill_conditioned`` of max|lambda| /
    min|lambda| over the kernel's eigenvalues, and raises that before any failure of the
    kernel.  ``rng`` skips ``count * n`` draws if the metric has a cone, none otherwise; a
    raising call uses none.
    """
    count = as_int(count, "null vector count must be a non-negative integer", 0)
    if np.ndim(g.jet.value) != 2:
        raise ValueError("sample_null_vectors takes a metric at one point")
    cone, u, fails, lam, power = _null_cone(
        g.jet.value[None], count, np.array([rng.state]), [True], lambda i: g.point
    )
    size = np.abs(lam[0])
    with np.errstate(all="ignore"):  # a huge metric's det overflows to inf
        if ill_conditioned(size.max() / size.min(), DEFAULT_RANK_TOL):
            raise DegenerateMetric(np.prod(np.ldexp(lam[0], power[0])), g.point)
    for error in fails.values():
        raise error
    rng.skip(count * g.n * cone.size)
    u = u.reshape(-1, g.n)
    # no __post_init__: a zero or non-finite row fails the kernel's precision test
    vectors = [NullVector.__new__(NullVector) for _ in u]
    for vector, row in zip(vectors, u):
        vector.__dict__.update(point=g.point, u=row)
    return vectors


def _null_cone(values: np.ndarray, count: int, states: np.ndarray, keep, point_at):
    """``count`` null vectors at each point of a metric stack ``(S, n, n)`` where the mask
    ``keep`` holds and the metric is indefinite, from the SplitMix64 streams in ``states``
    as one point at a time would draw them; degeneracy is the caller's to judge.  Each kept
    point is scaled by an even power of two near its largest entry, which is exact, before
    the one ``eigh`` (LAPACK would rescale a matrix of very small or large norm by a factor
    that is not a power of two), so no step depends on the metric's scale.  At a point with
    0 < m < n negative eigenvalues, vector v takes draws v n ... v n + n - 1 of its stream,
    one per coefficient, eigenvector j draw v n + (j - m) mod n: a plus leg on the n - m
    positive eigenvectors, then a minus leg on the m negative ones, each divided by
    sqrt|g(leg, leg)| before the two are added.  Returns those points' indices and vectors,
    ``{index: error}`` (an error names ``point_at(i)``, a tuple or None, asked only at a
    failing point), and the eigenvalues of each kept point's scaled metric with its power
    of two."""
    n, kept = values.shape[-1], np.flatnonzero(keep)
    values = values[kept]
    power = np.frexp(np.max(np.abs(values), axis=(1, 2)))[1] // 2 * 2
    unit = np.ldexp(values, -power[:, None, None])
    lam, vec = np.linalg.eigh(unit)
    scale = np.max(np.abs(lam), axis=1)
    m = np.sum(lam < 0.0, axis=1)
    on = (m > 0) & (m < n) & (count > 0)
    cone = kept[on]
    if not cone.size:  # no draws
        return cone, np.zeros((0, count, n)), {}, lam, power
    if cone.size < len(m):
        unit, vec, scale, m = unit[on], vec[on], scale[on], m[on]
    at = n * np.arange(count)[:, None] + (np.arange(n) - m[:, None, None]) % n
    c = uniform_draws(states[cone, None, None], at, -1.0, 1.0)[:, :, None]  # (point, v, 1, j)
    negative = np.arange(n) < m[:, None, None, None]
    c = np.where(negative == np.array([[False], [True]]), c, 0.0)  # legs plus, minus
    leg = np.einsum("gij,glj->gli", vec, c.reshape(len(m), 2 * count, n))
    q = np.einsum("gli,gij,glj->gl", leg, unit, leg)
    with np.errstate(all="ignore"):  # a leg of zero draws gives NaN, so lost
        w = leg / np.sqrt(np.abs(q))[..., None]
        w = w[:, 0::2] + w[:, 1::2]
        w /= np.max(np.abs(w), axis=-1, keepdims=True)
        residual = np.abs(np.einsum("sci,sij,scj->sc", w, unit, w))
        lost = ~(residual <= NULL_TOL * scale[:, None] * np.einsum("sci,sci->sc", w, w))
    fails = {}
    for i in cone[lost.any(axis=1)].tolist():
        p = point_at(i)
        where = f" at point {p}" if p is not None else ""
        fails[i] = ConprojError("null-cone sampling lost precision" + where)
    return cone, w, fails, lam, power


def eps_residual(g: MetricValue, gamma: ConnectionValue, u) -> float:
    """Non-parallel part of (F(g) - Gamma) u u relative to u.

    Zero means the null direction ``u`` is geodesic for both structures.
    Parallelism is measured with the Euclidean chart inner product: ``u``
    is null for ``g``, so a metric projection would be undefined.
    """
    message = "direction vector must be finite and nonzero"
    vec = as_floats(u.u if isinstance(u, NullVector) else u, message)
    if not (np.isfinite(vec).all() and vec.any()):
        raise ValueError(message)
    if g.order < 1:
        raise ValueError("eps_residual requires metric jets of order >= 1")
    if np.ndim(g.jet.value) != 2 or np.ndim(gamma.jet.value) != 3:
        raise ValueError("eps_residual takes a metric and a connection at one point")
    if gamma.n != g.n:
        raise ValueError("connection dimension mismatch")
    if vec.shape != (g.n,):
        raise ValueError(f"direction vector must have {g.n} components")
    return float(_eps_of(christoffel(g).jet.value - gamma.jet.value, vec[None])[0])


def _eps_of(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """EPS residual of each direction ``u[..., m, :]`` against ``t[..., :, :, :]`` of its point,
    D = Gamma_LC - Gamma or condition A: for null u, A(u, u) - D(u, u) = 2 (T_k - D^p_pk) u^k
    u / (n+1) - T^i g(u, u) is parallel to u up to the null residual g(u, u)."""
    d = np.einsum("...ijk,...mj,...mk->...mi", t, u, u)
    uu = np.einsum("...i,...i->...", u, u)
    parallel = np.einsum("...i,...i->...", d, u) / uu
    return np.abs(d - parallel[..., None] * u).max(-1) / uu


def _point_figures(batch: Batch, states: np.ndarray) -> list:
    """A, B, scale and EPS over 2n null vectors drawn from ``states`` (NaN at a point
    without a cone) at each point of the batch that has not failed; flags failed null
    cones."""
    _, a, _, *figures = _figures(batch)
    g, eps = batch.out[0][0].value, np.full(batch.shape, np.nan)
    cone, u, fails = _null_cone(g, 2 * g.shape[-1], states, ~batch.bad, batch.point_at)[:3]
    if fails:
        batch.flag(np.isin(np.arange(len(eps)), list(fails)), fails.get)
    eps[cone] = _eps_of(a[cone], u).max(-1)
    return [*figures, eps]


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
    if len(parts) == 1:
        return parts[0], errors
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
    if skipped:
        points, columns = points[keep], [column[keep] for column in columns]
    return count, seed, points, columns, skipped


def obstruction_at(scenario: Scenario, point) -> ObstructionData:
    """Full obstruction pipeline at one point of the sampling box: :func:`_figures` there."""

    def build(batch):
        (g, _), _, T, down, *_ = batch.out
        up, *figures = _figures(batch)
        point = batch.point_at(0)
        t_up = VectorValue(jets._wrap(g.n, 0, up[..., None]))
        return ObstructionData(point, ConnectionValue(T), t_up, OneFormValue(down), *figures,
                               MetricValue(g, point=point))

    return at_point(_trace_plan(scenario, 1), _check_point(scenario, point), build)


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
        scenario, samples, seed, 1, _point_figures
    )
    has = ~np.isnan(eps)  # a kept point has EPS exactly when it has a cone
    kept = zip(points.tolist(), a.tolist(), b.tolist(), scale.tolist(), eps.tolist(), has.tolist())
    per_point = tuple(
        PointSummary(tuple(p), x, y, e if h else None, s) for p, x, y, s, e, h in kept
    )
    tol = scenario.tolerances.residual
    max_a, max_b = (float(x.max(initial=0.0)) for x in (a, b))
    max_eps = float(eps[has].max()) if has.any() else None
    worst = (-np.maximum(a, b)).argsort(kind="stable")[:3].tolist()
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
