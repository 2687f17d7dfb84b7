"""Scenario documents: chart description, metric entries, connection recipe.

A scenario is a UTF-8 JSON object::

    {
      "dimension": 3,
      "coordinates": ["x1", "x2", "x3"],
      "box": {"min": [-1, -1, -1], "max": [1, 1, 1]},
      "metric": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      "connection": {"kind": "modified_s",
                     "metric": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     "s": ["0", "0", "x2"]},
      "tolerances": {"residual": 1e-8, "rank": 1e-10, "quadrature": 1e-10},
      "samples": 200,
      "seed": 42
    }

Metric rows may omit the lower triangle, either with ``null`` entries or
with shortened rows holding only the columns from the diagonal onward;
entries present on both sides of the diagonal must parse to identical
trees.  Connection kinds: ``levi_civita``, ``explicit``, ``modified_s``
(Levi-Civita of its metric minus S^i g_jk) and ``projective_transform``
of a base recipe by a one-form.  A ``modified_s`` recipe gives exactly one
of ``"s"``, the components S^i, and ``"potential"``, an expression f whose
gradient S^i = g^{ij} d_j f makes the recipe compatible in any dimension.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import partial, reduce
from numbers import Integral, Real
from operator import getitem
from typing import Mapping, Sequence, Union

import numpy as np

from . import expressions as ex
from . import jets
from .errors import DegenerateMetric, ExpressionError, ScenarioError
from .geometry import (
    DEFAULT_RANK_TOL, ConnectionValue, MetricValue, connection_traces, drift, drift_traces,
    inverse, levi_civita, levi_civita_traces, shift,
)
from .jets import Jet
from .sampling import as_int, draw_points

__all__ = [
    "Tolerances",
    "Scenario",
    "LeviCivitaRecipe",
    "ExplicitRecipe",
    "ModifiedSRecipe",
    "ProjectiveTransformRecipe",
    "load_scenario",
    "load_scenario_path",
    "metric_at",
    "connection_at",
    "sample_points",
    "with_conformal_factor",
    "with_projective_shift",
]

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 0


def _is_number(value) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    return abs(value) <= sys.float_info.max if isinstance(value, Integral) else math.isfinite(value)


@dataclass(frozen=True)
class Tolerances:
    """``residual`` bounds the A, B and EPS residuals and ``quadrature`` the error estimate
    |K15 - G7| per segment of recovery's adaptive Gauss-Kronrod 7-15; a metric is degenerate
    where its condition number max|g_ij| * max|g^ij| exceeds ``1 / rank``
    (``geometry.ill_conditioned``), judged once, by its inverse."""

    residual: float = 1e-8
    rank: float = DEFAULT_RANK_TOL
    quadrature: float = 1e-10

    def __post_init__(self):
        # The one rule for scenario files, command-line overrides and replace() alike.
        for field in fields(self):
            value = getattr(self, field.name)
            if not (_is_number(value) and value > 0):
                raise ScenarioError(f"'{field.name}' must be finite and positive", "$.tolerances")
            object.__setattr__(self, field.name, float(value))


@dataclass(frozen=True)
class LeviCivitaRecipe:
    metric: tuple


@dataclass(frozen=True)
class ExplicitRecipe:
    gamma: tuple


@dataclass(frozen=True)
class ModifiedSRecipe:
    """Drift components ``s``, or a ``potential`` f with S^i = g^{ij} d_j f."""

    metric: tuple
    s: tuple | None = None
    potential: ex.Expr | None = None


@dataclass(frozen=True)
class ProjectiveTransformRecipe:
    base: "ConnectionRecipe"
    psi: tuple


ConnectionRecipe = Union[
    LeviCivitaRecipe, ExplicitRecipe, ModifiedSRecipe, ProjectiveTransformRecipe
]


@dataclass(frozen=True)
class Scenario:
    dimension: int
    coordinates: tuple
    box_min: tuple
    box_max: tuple
    metric: tuple
    connection: ConnectionRecipe
    tolerances: Tolerances = Tolerances()
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    name: str | None = None
    description: str | None = None

    def __getstate__(self):  # the fields; the plans compiled on first use stay behind
        return {field.name: getattr(self, field.name) for field in fields(self)}


# -- loading ----------------------------------------------------------------


def _parse_entry(src, coords, path: str) -> ex.Expr:
    if not isinstance(src, str):
        raise ScenarioError("expected an expression string", path)
    try:
        return ex.parse_expression(src, coords)
    except ExpressionError as err:
        raise ScenarioError(str(err), path) from err


def _is_array(value) -> bool:
    """A JSON array: a sequence that is not a string."""
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def check_rows(rows, n: int, path: str) -> None:
    """The loader's first test of a matrix at ``path``: an array of ``n`` rows."""
    if not _is_array(rows):
        raise ScenarioError("expected an array of rows", path)
    if len(rows) != n:
        raise ScenarioError(f"expected {n} rows, got {len(rows)}", path)


def _load_symmetric_matrix(rows, coords, n: int, path: str) -> tuple:
    check_rows(rows, n, path)
    grid = [[None] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row_path = f"{path}[{i}]"
        if not _is_array(row):
            raise ScenarioError("expected an array of entries", row_path)
        if len(row) == n:
            start = 0
        elif len(row) == n - i:
            start = i
        else:
            raise ScenarioError(
                f"row must have {n} entries or the {n - i} upper-triangle entries",
                row_path,
            )
        for offset, cell in enumerate(row):
            j = start + offset
            cell_path = f"{row_path}[{j}]"
            if cell is None:
                if j >= i:
                    raise ScenarioError(
                        "only entries below the diagonal may be null", cell_path
                    )
                continue
            grid[i][j] = _parse_entry(cell, coords, cell_path)
    # Every row holds its diagonal and upper entries, so the lower triangle
    # only has to agree with the upper one where it is given.
    for i in range(n):
        for j in range(i + 1, n):
            if grid[j][i] is not None and grid[j][i] != grid[i][j]:
                raise ScenarioError(
                    "matrix is not symmetric (entries differ node-for-node)",
                    f"{path}[{j}][{i}]",
                )
            grid[j][i] = grid[i][j]
    return tuple(tuple(r) for r in grid)


def _load_vector(entries, coords, n: int, path: str) -> tuple:
    if not _is_array(entries):
        raise ScenarioError("expected an array of expression strings", path)
    if len(entries) != n:
        raise ScenarioError(f"expected {n} entries, got {len(entries)}", path)
    return tuple(
        _parse_entry(cell, coords, f"{path}[{i}]") for i, cell in enumerate(entries)
    )


def _integer(document: Mapping, key: str, message: str, least=-math.inf) -> int:
    """``document[key]`` (the :class:`Scenario` default if absent) by :func:`as_int`'s rule."""
    try:
        return as_int(document.get(key, getattr(Scenario, key, None)), message, least)
    except ValueError:
        raise ScenarioError(message, f"$.{key}") from None


def _check_keys(doc: Mapping, allowed: set, path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{key}'", path)


def _load_recipe(doc, coords, n: int, path: str) -> ConnectionRecipe:
    if not isinstance(doc, Mapping):
        raise ScenarioError("expected a connection object", path)
    kind = doc.get("kind")
    if kind == "levi_civita":
        _check_keys(doc, {"kind", "metric"}, path)
        if "metric" not in doc:
            raise ScenarioError("missing 'metric'", path)
        return LeviCivitaRecipe(
            _load_symmetric_matrix(doc["metric"], coords, n, f"{path}.metric")
        )
    if kind == "explicit":
        _check_keys(doc, {"kind", "gamma"}, path)
        gamma_doc = doc.get("gamma")
        if not _is_array(gamma_doc) or len(gamma_doc) != n:
            raise ScenarioError(f"'gamma' must be an array of {n} matrices", path)
        gamma = tuple(
            _load_symmetric_matrix(mat, coords, n, f"{path}.gamma[{i}]")
            for i, mat in enumerate(gamma_doc)
        )
        return ExplicitRecipe(gamma)
    if kind == "modified_s":
        _check_keys(doc, {"kind", "metric", "s", "potential"}, path)
        if "metric" not in doc or ("s" not in doc and "potential" not in doc):
            raise ScenarioError("missing 'metric', or 's' or 'potential'", path)
        if "s" in doc and "potential" in doc:
            raise ScenarioError("give either 's' or 'potential', not both", path)
        metric = _load_symmetric_matrix(doc["metric"], coords, n, f"{path}.metric")
        if "potential" in doc:
            potential = _parse_entry(doc["potential"], coords, f"{path}.potential")
            return ModifiedSRecipe(metric, potential=potential)
        return ModifiedSRecipe(metric, _load_vector(doc["s"], coords, n, f"{path}.s"))
    if kind == "projective_transform":
        _check_keys(doc, {"kind", "base", "psi"}, path)
        if "base" not in doc or "psi" not in doc:
            raise ScenarioError("missing 'base' or 'psi'", path)
        return ProjectiveTransformRecipe(
            _load_recipe(doc["base"], coords, n, f"{path}.base"),
            _load_vector(doc["psi"], coords, n, f"{path}.psi"),
        )
    raise ScenarioError(f"unknown connection kind {kind!r}", path)


def load_scenario(document) -> Scenario:
    """Load and validate a scenario from a mapping or JSON text."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, RecursionError) as err:  # RecursionError: nested too deep
            raise ScenarioError(f"invalid JSON: {err}") from err
    if not isinstance(document, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    keys = {"box" if f.name.startswith("box_") else f.name for f in fields(Scenario)}
    _check_keys(document, keys, "$")  # Scenario's fields, "box" for box_min and box_max

    n = _integer(document, "dimension", "'dimension' must be an integer")
    if n < 2:
        message = "dimension must be at least 2 (the trace coefficient divides by (n+2)(n-1))"
        raise ScenarioError(message, "$.dimension")

    coords_doc = document.get("coordinates")
    if not _is_array(coords_doc):
        raise ScenarioError("'coordinates' must be an array", "$.coordinates")
    if len(coords_doc) != n:
        raise ScenarioError(
            f"expected {n} coordinate names, got {len(coords_doc)}", "$.coordinates"
        )
    coords = {}  # a dict keeps the names in order and finds a duplicate at once
    for i, name in enumerate(coords_doc):
        path = f"$.coordinates[{i}]"
        if not isinstance(name, str) or not ex.IDENTIFIER.fullmatch(name):
            raise ScenarioError("coordinate names must be identifiers", path)
        if name in jets.FUNCTION_NAMES:
            raise ScenarioError(
                f"coordinate name '{name}' clashes with a function name", path
            )
        if name in coords:
            raise ScenarioError(f"duplicate coordinate name '{name}'", path)
        coords[name] = None
    coords = tuple(coords)

    box_doc = document.get("box")
    if not isinstance(box_doc, Mapping):
        raise ScenarioError("'box' must be an object with 'min' and 'max'", "$.box")
    _check_keys(box_doc, {"min", "max"}, "$.box")
    bounds = {}
    for key in ("min", "max"):
        arr = box_doc.get(key)
        if not _is_array(arr) or len(arr) != n or not all(_is_number(v) for v in arr):
            raise ScenarioError(f"'{key}' must be an array of {n} finite numbers", f"$.box.{key}")
        bounds[key] = tuple(float(v) for v in arr)
    widths = [hi - lo for lo, hi in zip(bounds["min"], bounds["max"])]
    if not all(0 < width <= sys.float_info.max for width in widths):
        raise ScenarioError("box must have min < max and a finite width on every axis", "$.box")

    if "metric" not in document:
        raise ScenarioError("missing 'metric'", "$")
    metric = _load_symmetric_matrix(document["metric"], coords, n, "$.metric")

    if "connection" not in document:
        raise ScenarioError("missing 'connection'", "$")
    connection = _load_recipe(document["connection"], coords, n, "$.connection")

    tol_doc = document.get("tolerances", {})
    if not isinstance(tol_doc, Mapping):
        raise ScenarioError("'tolerances' must be an object", "$.tolerances")
    _check_keys(tol_doc, {field.name for field in fields(Tolerances)}, "$.tolerances")
    tolerances = Tolerances(**tol_doc)

    samples = _integer(document, "samples", "'samples' must be a positive integer", 1)
    seed = _integer(document, "seed", "'seed' must be an integer")

    for key in ("name", "description"):
        if key in document and not isinstance(document[key], str):
            raise ScenarioError(f"'{key}' must be a string", f"$.{key}")

    return Scenario(
        dimension=n,
        coordinates=coords,
        box_min=bounds["min"],
        box_max=bounds["max"],
        metric=metric,
        connection=connection,
        tolerances=tolerances,
        samples=samples,
        seed=seed,
        name=document.get("name"),
        description=document.get("description"),
    )


def load_scenario_path(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return load_scenario(handle.read())


# -- evaluation ---------------------------------------------------------------


def _check_point(scenario: Scenario, point) -> tuple:
    p = tuple(float(c) for c in point)
    if len(p) != scenario.dimension:
        raise ValueError(
            f"point has {len(p)} coordinates, scenario has {scenario.dimension}"
        )
    return p


def _plan(scenario: Scenario, key, build) -> ex.Plan:
    """The plan whose outputs are the nodes ``build(plan)`` returns, compiled on first use
    and kept on the scenario under ``key``."""
    plans = scenario.__dict__.setdefault("_plans", {})
    if key not in plans:
        plan = ex.Plan(scenario.dimension)
        plans[key] = plan.finish(build(plan))
    return plans[key]


def _symmetric(plan: ex.Plan, entries, order: int, rank: int) -> int:
    """Node of the tensor jet of expression entries symmetric in the last two slots,
    added in row-major order; a mirrored entry is the same node."""
    shape = (plan.n,) * rank
    return plan.stack([reduce(getitem, i, entries) for i in np.ndindex(shape)], shape, order)


def _unshifted(recipe) -> tuple:
    """A recipe's base under its ``projective_transform`` wrappings, and their psi innermost
    first: where psi cancels, in T_i and the trace-free T, such a recipe reads as its base."""
    shifts = []
    while isinstance(recipe, ProjectiveTransformRecipe):
        recipe, shifts = recipe.base, [recipe.psi, *shifts]
    return recipe, shifts


def _geometry(plan: ex.Plan, order: int, rank_tol: float, metrics: list, recipe) -> dict:
    """One ``(M, n, n)`` stack at order ``order + 1`` of the distinct ``metrics`` and the one
    of ``recipe``'s base, if any (equal metrics once, in first order), and one step for all
    their inverses at ``order``.  Maps id(entries) -> (step, index)."""
    recipe = _unshifted(recipe)[0]
    if isinstance(recipe, (LeviCivitaRecipe, ModifiedSRecipe)):
        metrics = [*metrics, recipe.metric]
    index, found, shape = {}, {}, (plan.n, plan.n)
    for entries in metrics:
        trees = [reduce(getitem, i, entries) for i in np.ndindex(shape)]
        found[id(entries)] = index.setdefault(tuple(map(plan.expr, trees)), (len(index), trees))[0]
    if not index:
        return {}
    g = [e for _, trees in index.values() for e in trees]
    g = plan.stack(g, (len(index),) + shape, order + 1)
    step = plan.step(partial(_inverses, order, rank_tol), g)
    return {key: (step, m) for key, m in found.items()}


def _inverses(order: int, rank_tol: float, g: Jet) -> tuple:
    return (g, *inverse(jets.truncate(g, order), rank_tol))


def metric_geometry(plan: ex.Plan, entries, geometry: dict, fn=None, key="metric") -> int:
    """Node of the metric ``entries`` (order ``order + 1``) and its inverse (order ``order``)
    as a tuple of views of the :func:`_geometry` step or, given ``fn``, of its slot in
    ``fn(g, ginv)`` over the whole stack (one step under ``key`` for every metric); its
    degenerate points are flagged under this node's rank, the place of its inverse."""
    step, m = geometry[id(entries)]
    stacked = [] if fn is None else [plan.step(lambda parts: fn(*parts[:2]), step, key=(key, step))]

    def view(batch: ex.Batch, parts: tuple, *stacked) -> tuple:
        *jets_, det, degenerate = parts  # det is read only where a point is degenerate
        batch.flag(degenerate[..., m],
                   lambda i: DegenerateMetric(det[..., m].flat[i], point=batch.point_at(i)))
        at = (slice(None),) * len(batch.shape) + (m,)  # the metric axis follows the points'
        out = tuple(jets._wrap(x.n, x.order, x.data[at]) for x in stacked or jets_)
        return out[0] if stacked else out

    return plan.step(view, plan.BATCH, step, *stacked, key=(key, step, m))


def _drift_field(plan: ex.Plan, recipe: ModifiedSRecipe, order: int, geometry: dict) -> tuple:
    """Nodes of the view of a ``modified_s`` recipe's metric and of its S^i at ``order``."""
    view = metric_geometry(plan, recipe.metric, geometry)
    if recipe.potential is None:
        return view, plan.stack(recipe.s, (plan.n,), order)
    f = plan.stack([recipe.potential], (), order + 1)
    return view, plan.step(lambda v, f: jets.matvec(v[1], jets.derivative(f)), view, f)


def _connection(plan: ex.Plan, recipe, order: int, geometry: dict) -> int:
    """Node of a connection recipe as a tensor jet; recipes needing a metric derivative
    support orders 0 and 1, up to the order of ``geometry``."""
    if isinstance(recipe, LeviCivitaRecipe):
        def christoffel(g: Jet, ginv: Jet) -> Jet:
            return levi_civita(jets.truncate(g, order + 1), jets.truncate(ginv, order))

        return metric_geometry(plan, recipe.metric, geometry, christoffel, ("levi_civita", order))
    if isinstance(recipe, ExplicitRecipe):
        return _symmetric(plan, recipe.gamma, order, 3)
    if isinstance(recipe, ModifiedSRecipe):
        base = _connection(plan, LeviCivitaRecipe(recipe.metric), order, geometry)
        view, s = _drift_field(plan, recipe, order, geometry)
        return plan.step(lambda base, v, s: drift(base, s, v[0]), base, view, s)
    if isinstance(recipe, ProjectiveTransformRecipe):
        base = _connection(plan, recipe.base, order, geometry)
        psi = plan.stack(recipe.psi, (plan.n,), order)
        return plan.step(shift, base, psi)
    raise TypeError(f"unknown connection recipe: {recipe!r}")


def _traces(plan: ex.Plan, recipe, order: int, geometry: dict, metric) -> int:
    """Node of the traces (g_ij g^kl Gamma^j_kl, Gamma^p_pi) of a connection recipe at
    ``order`` as the rows of a (2, n) jet, g the first metric of ``geometry`` (entries
    ``metric``): those of ``levi_civita(h)`` from dh (:func:`levi_civita_traces`), of an
    ``explicit`` stack by contraction and of ``modified_s(h, s)`` less those of the drift
    (:func:`drift_traces`).  A ``projective_transform`` reads as its base: it adds (2 psi_i,
    (n + 1) psi_i), which the one-form T_i cancels, so psi is never evaluated here."""
    recipe = _unshifted(recipe)[0]
    if isinstance(recipe, LeviCivitaRecipe):
        return metric_geometry(plan, recipe.metric, geometry, levi_civita_traces, "traces")
    if isinstance(recipe, ExplicitRecipe):
        gamma = _symmetric(plan, recipe.gamma, order, 3)
        view = metric_geometry(plan, metric, geometry)
        return plan.step(lambda gamma, v: connection_traces(gamma, *v), gamma, view)
    if isinstance(recipe, ModifiedSRecipe):
        base = _traces(plan, LeviCivitaRecipe(recipe.metric), order, geometry, metric)
        view, s = _drift_field(plan, recipe, order, geometry)
        return plan.step(lambda t, v, g, s: jets.sub(t, drift_traces(s, v[0], *g), None),
                         base, view, metric_geometry(plan, metric, geometry), s)
    raise TypeError(f"unknown connection recipe: {recipe!r}")


def _metric_plan(scenario: Scenario, order: int) -> ex.Plan:
    return _plan(scenario, ("metric", order), lambda p: [_symmetric(p, scenario.metric, order, 2)])


def metric_at(scenario: Scenario, point, order: int = 2) -> MetricValue:
    """Scenario metric as jets of the requested order."""
    p = _check_point(scenario, point)
    return MetricValue(ex.at_point(_metric_plan(scenario, order), p)[0], p)


def connection_at(scenario: Scenario, point, order: int = 1) -> ConnectionValue:
    """Scenario connection as jets; recipes needing a metric derivative
    support orders 0 and 1."""
    if order not in (0, 1):
        raise ValueError("connection jets are available at order 0 or 1")
    p = _check_point(scenario, point)
    return ConnectionValue(ex.at_point(_connection_plan(scenario, order), p)[0], p)


def _connection_plan(scenario: Scenario, order: int) -> ex.Plan:
    recipe = scenario.connection
    return _plan(scenario, ("connection", order), lambda plan: [_connection(
        plan, recipe, order, _geometry(plan, order, scenario.tolerances.rank, [], recipe))])


def _draw_samples(scenario: Scenario, count=None, seed=None):
    """The sample count and seed of a call (the scenario's where None), its points
    as a ``(count, n)`` array and each point's stream state after its coordinates."""
    count = scenario.samples if count is None else count
    seed = scenario.seed if seed is None else seed
    points, states = draw_points(seed, count, scenario.box_min, scenario.box_max)
    return int(count), int(seed), points, states  # draw_points accepted both as integers


def sample_points(scenario: Scenario, count=None, seed=None) -> list:
    """The deterministic sample points a check over this scenario visits."""
    return [tuple(p) for p in _draw_samples(scenario, count, seed)[2].tolist()]


# -- representative changes ----------------------------------------------------


def _as_expr(e, coords) -> ex.Expr:
    return ex.parse_expression(e, coords) if isinstance(e, str) else e


def with_conformal_factor(scenario: Scenario, sigma) -> Scenario:
    """Scenario whose metric representative is rescaled by exp(2*sigma)."""
    sig = _as_expr(sigma, scenario.coordinates)
    factor = ex.Call("exp", ex.Binary("*", ex.Literal(2.0), sig))
    metric = tuple(tuple(ex.Binary("*", entry, factor) for entry in row) for row in scenario.metric)
    return replace(scenario, metric=metric)


def with_projective_shift(scenario: Scenario, psi) -> Scenario:
    """Scenario whose connection representative is shifted by a one-form."""
    entries = tuple(_as_expr(entry, scenario.coordinates) for entry in psi)
    if len(entries) != scenario.dimension:
        raise ValueError("one-form component count must match the dimension")
    return replace(
        scenario,
        connection=ProjectiveTransformRecipe(scenario.connection, entries),
    )
