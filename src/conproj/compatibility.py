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

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ConprojError, DegenerateMetric, DomainError
from .expressions import Evaluator
from .geometry import (
    ConnectionValue,
    MetricValue,
    OneFormValue,
    VectorValue,
    invert_metric,
    levi_civita,
    tracefree,
)
from .jets import Jet
from .sampling import SplitMix64, draw_point, point_stream
from .scenario import (
    Scenario,
    Tolerances,
    _check_point,
    connection_jet,
    inverse_at,
    symmetric_jet,
)

__all__ = [
    "NullVector",
    "ObstructionData",
    "PointSummary",
    "CompatReport",
    "compat_tensor",
    "trace_vector",
    "condition_a_residual",
    "condition_b_residual",
    "sample_null_vectors",
    "eps_residual",
    "obstruction_at",
    "check_compatibility",
]

NULL_TOL = 1e-10
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
    T: tuple
    t_up: VectorValue
    t_down: OneFormValue
    a: np.ndarray
    b: np.ndarray
    scale: float
    metric: MetricValue
    connection: ConnectionValue
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


def _trace_form(scenario: Scenario, ev: Evaluator, order: int):
    """Metric (order ``order + 1``), inverse, connection, Levi-Civita
    connection, trace-free difference T and its traces T^i, T_i."""
    g = symmetric_jet(scenario.metric, ev, order + 1, 2)
    gamma = connection_jet(scenario, ev, order)
    ginv = inverse_at(ev, g, scenario.tolerances.rank)
    base = levi_civita(g, ginv)
    T = tracefree(jets.sub(base, gamma, False))
    up, down = _traces(g, ginv, T)
    return g, ginv, gamma, base, T, up, down


def _traces(g: Jet, ginv: Jet, T: Jet):
    n = g.n
    coefficient = (n + 1) / ((n + 2) * (n - 1))
    up = jets.mul(jets.einsum("jk,ijk->i", ginv, T), coefficient, False)
    return up, jets.einsum("ij,j->i", g, up)


def _condition_a(t, up, down, g) -> np.ndarray:
    n = g.shape[-1]
    d = np.einsum("ij,...k->...ijk", np.eye(n), down / (n + 1))
    return (t - up[..., :, None, None] * g[..., None, :, :]) + (d + np.swapaxes(d, -1, -2))


def _condition_b(down: Jet) -> np.ndarray:
    # down.gradient[..., i, k] = d_k T_i; B_ki = d_k T_i - d_i T_k
    return np.swapaxes(down.gradient, -1, -2) - down.gradient


def _obstructions(scenario: Scenario, ev: Evaluator) -> ObstructionData:
    g, ginv, gamma, base, T, up, down = _trace_form(scenario, ev, 1)
    a = _condition_a(T.value, up.value, down.value, g.value)
    b = _condition_b(down)
    lead = len(ev.shape)
    scale = np.maximum.reduce(
        [np.ones(ev.shape)] + [_absmax(x, lead) for x in (gamma.value, g.value, ginv.value)]
    )
    finite = np.isfinite(scale + _absmax(a, lead) + _absmax(b, lead))
    ev.flag(~finite, lambda: DomainError(jets._NON_FINITE, point=ev.point))
    return ObstructionData(
        point=ev.point,
        T=ConnectionValue(T).components,
        t_up=VectorValue(up),
        t_down=OneFormValue(down),
        a=a,
        b=b,
        scale=scale,
        metric=MetricValue(g, point=ev.point),
        connection=ConnectionValue(gamma, point=ev.point),
        diff_values=base.value - gamma.value,
    )


def _absmax(x: np.ndarray, lead: int) -> np.ndarray:
    """Max-abs over every axis after the first ``lead`` (point) axes."""
    return np.max(np.abs(x), axis=tuple(range(lead, x.ndim)))


def compat_tensor(g: MetricValue, gamma: ConnectionValue):
    """Trace-free difference tensor between the Levi-Civita connection of
    ``g`` and ``gamma``, as jets (order ``min(g.order - 1, gamma.order)``)."""
    if g.order < 1:
        raise ValueError("compat_tensor requires metric jets of order >= 1")
    base = levi_civita(g.jet, invert_metric(g).jet)
    return ConnectionValue(tracefree(jets.sub(base, gamma.jet)), point=g.point).components


def trace_vector(g: MetricValue, T):
    """Contractions T^i = (n+1)/((n+2)(n-1)) g^{jk} T^i_jk and T_i = g_ij T^j."""
    if g.n < 2:
        raise ValueError("trace coefficient requires dimension >= 2")
    up, down = _traces(g.jet, invert_metric(g).jet, ConnectionValue(T).jet)
    return VectorValue(up), OneFormValue(down)


def condition_a_residual(
    g: MetricValue, T, t_up: VectorValue, t_down: OneFormValue
) -> np.ndarray:
    """Value-level residual array of the algebraic condition."""
    t = ConnectionValue(T).jet.value
    return _condition_a(t, t_up.jet.value, t_down.jet.value, g.jet.value)


def condition_b_residual(t_down: OneFormValue) -> np.ndarray:
    """Closedness residual B_ji = d_j T_i - d_i T_j from the jets' gradients."""
    if t_down.order < 1:
        raise ValueError("condition (B) requires one-form jets of order >= 1")
    return _condition_b(t_down.jet)


def sample_null_vectors(
    g: MetricValue,
    count: int,
    rng: SplitMix64,
    *,
    rank_tol: float = 1e-10,
) -> list:
    """Random vectors on the metric's null cone.

    The value matrix is diagonalized by ``np.linalg.eigh``; a draw combines
    a random direction from the positive eigenspace with one from the
    negative eigenspace, scaled so the quadratic form cancels.  For a
    definite metric the cone is trivial and the list is empty.  The null
    residual is measured relative to the largest eigenvalue, so it does not
    depend on the overall scale of the metric.
    """
    values = g.values()
    eigenvalues, eigenvectors = np.linalg.eigh(values)
    scale = float(np.max(np.abs(eigenvalues)))
    if scale == 0.0 or np.min(np.abs(eigenvalues)) < rank_tol * scale:
        raise DegenerateMetric(float(np.prod(eigenvalues)), point=g.point)
    positive = [i for i, w in enumerate(eigenvalues) if w > 0.0]
    negative = [i for i, w in enumerate(eigenvalues) if w < 0.0]
    if not positive or not negative:
        return []
    out = []
    for _ in range(count):
        plus = _random_cone_leg(values, eigenvectors, positive, rng)
        minus = _random_cone_leg(values, eigenvectors, negative, rng)
        u = plus / math.sqrt(abs(float(plus @ values @ plus))) + minus / math.sqrt(
            abs(float(minus @ values @ minus))
        )
        u = u / np.max(np.abs(u))
        residual = abs(float(u @ values @ u))
        if residual > NULL_TOL * scale * float(u @ u):
            raise ConprojError("null-cone sampling lost precision")
        out.append(NullVector(point=g.point, u=u))
    return out


def _random_cone_leg(values, eigenvectors, subspace, rng: SplitMix64) -> np.ndarray:
    for _ in range(1000):
        coeffs = np.array([rng.uniform(-1.0, 1.0) for _ in subspace])
        if float(coeffs @ coeffs) < 1e-4:
            continue
        leg = eigenvectors[:, subspace] @ coeffs
        if abs(float(leg @ values @ leg)) > 0.0:
            return leg
    raise ConprojError("failed to draw a usable cone direction")


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
    base = levi_civita(g.jet, invert_metric(g).jet)
    return float(_eps_from_diff(base.value - gamma.jet.value, vec))


def _eps_from_diff(diff_values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """EPS residual of each direction in ``u`` (shape (n,) or (m, n))."""
    d = np.einsum("ijk,...j,...k->...i", diff_values, u, u)
    uu = np.einsum("...i,...i->...", u, u)
    parallel = np.einsum("...i,...i->...", d, u) / uu
    return np.max(np.abs(d - parallel[..., None] * u), axis=-1) / uu


def obstruction_at(scenario: Scenario, point) -> ObstructionData:
    """Full obstruction pipeline at one point of the sampling box."""
    return _obstructions(scenario, Evaluator(_check_point(scenario, point), strict=True))


def check_compatibility(
    scenario: Scenario,
    *,
    samples: int | None = None,
    seed: int | None = None,
) -> CompatReport:
    """Sample the box and aggregate the obstruction and EPS residuals.

    The obstructions of up to ``CHUNK_POINTS`` points are evaluated at once;
    each point's own stream then goes on into its null-vector draws.  A
    point whose evaluation fails is re-run alone, so the first failure in
    sample order raises as at that point alone.  Points where the metric
    degenerates are skipped and reported as long as they stay under 1% of
    the samples; beyond that the degeneracy is fatal.  Per-point residuals
    are scale-normalized before aggregation.
    """
    count = scenario.samples if samples is None else samples
    if count < 1:
        raise ValueError("sample count must be positive")
    seed_val = scenario.seed if seed is None else seed
    tol = scenario.tolerances.residual
    rank_tol = scenario.tolerances.rank
    nulls_per_point = 2 * scenario.dimension
    streams = [point_stream(seed_val, index) for index in range(count)]
    points = [draw_point(s, scenario.box_min, scenario.box_max) for s in streams]

    per_point = []
    skipped = []
    max_eps = None
    total_nulls = 0

    for start in range(0, count, CHUNK_POINTS):
        chunk = points[start : start + CHUNK_POINTS]
        ev = Evaluator(chunk, strict=False)
        with np.errstate(all="ignore"):
            batch = _obstructions(scenario, ev)
        for offset, point in enumerate(chunk):
            try:
                obs, at = batch, offset
                if ev.bad[offset]:
                    obs, at = obstruction_at(scenario, point), ()
                values = obs.metric.jet.value[at]
                g = MetricValue(Jet(len(values), 0, values), point=point)
                null_vectors = sample_null_vectors(
                    g, nulls_per_point, streams[start + offset], rank_tol=rank_tol
                )
            except DegenerateMetric as err:
                skipped.append((point, err.det))
                if len(skipped) * 100 >= count:
                    raise DegenerateMetric(
                        err.det,
                        point=err.point if err.point is not None else point,
                        detail=f"{len(skipped)} of {count} sample points degenerate",
                    ) from err
                continue
            scale = float(obs.scale[at])
            eps_val = None
            if null_vectors:
                total_nulls += len(null_vectors)
                directions = np.array([nv.u for nv in null_vectors])
                eps_val = float(np.max(_eps_from_diff(obs.diff_values[at], directions)))
                max_eps = eps_val if max_eps is None else max(max_eps, eps_val)
            per_point.append(
                PointSummary(
                    point=point,
                    a=float(np.max(np.abs(obs.a[at]))) / scale,
                    b=float(np.max(np.abs(obs.b[at]))) / scale,
                    eps=eps_val,
                    scale=scale,
                )
            )

    max_a = max((s.a for s in per_point), default=0.0)
    max_b = max((s.b for s in per_point), default=0.0)
    a_ok = max_a <= tol
    b_ok = max_b <= tol
    if a_ok and b_ok:
        verdict = "compatible"
    elif b_ok:
        verdict = "fails_A"
    elif a_ok:
        verdict = "fails_B"
    else:
        verdict = "fails_A_and_B"

    if max_eps is None:
        eps_verdict = "vacuous"
    elif max_eps <= tol:
        eps_verdict = "holds"
    else:
        eps_verdict = "fails"

    worst = tuple(
        sorted(per_point, key=lambda s: max(s.a, s.b), reverse=True)[:3]
    )
    return CompatReport(
        verdict=verdict,
        eps_verdict=eps_verdict,
        max_a=max_a,
        max_b=max_b,
        max_eps=max_eps,
        samples=count,
        seed=seed_val,
        tolerances=scenario.tolerances,
        null_vectors=total_nulls,
        per_point=tuple(per_point),
        worst=worst,
        skipped=tuple(skipped),
    )
