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
of a base recipe by a one-form.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence, Union

import numpy as np

from . import expressions as ex
from . import jets
from .errors import DegenerateMetric, ExpressionError, ScenarioError
from .geometry import ConnectionValue, MetricValue, inverse, levi_civita, shift
from .jets import Jet
from .sampling import draw_point, point_stream

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
    "symmetric_jet",
    "connection_jet",
    "sigma_at",
    "sample_points",
    "with_conformal_factor",
    "with_projective_shift",
]

DEFAULT_SAMPLES = 200
DEFAULT_SEED = 0

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


@dataclass(frozen=True)
class Tolerances:
    residual: float = 1e-8
    rank: float = 1e-10
    quadrature: float = 1e-10

    def __post_init__(self):
        # One rule for scenario files and command-line overrides alike.
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0 < value <= sys.float_info.max:
                raise ScenarioError(
                    f"'{field.name}' must be finite and positive", "$.tolerances"
                )
            object.__setattr__(self, field.name, float(value))


@dataclass(frozen=True)
class LeviCivitaRecipe:
    metric: tuple


@dataclass(frozen=True)
class ExplicitRecipe:
    gamma: tuple


@dataclass(frozen=True)
class ModifiedSRecipe:
    metric: tuple
    s: tuple


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
    sigma: ex.Expr | None = None
    name: str | None = None
    description: str | None = None


# -- loading ----------------------------------------------------------------


def _parse_entry(src, coords, path: str) -> ex.Expr:
    if not isinstance(src, str):
        raise ScenarioError("expected an expression string", path)
    try:
        return ex.parse_expression(src, coords)
    except ExpressionError as err:
        raise ScenarioError(str(err), path) from err


def _load_symmetric_matrix(rows, coords, n: int, path: str) -> tuple:
    if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)):
        raise ScenarioError("expected an array of rows", path)
    if len(rows) != n:
        raise ScenarioError(f"expected {n} rows, got {len(rows)}", path)
    grid = [[None] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row_path = f"{path}[{i}]"
        if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
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
    final = [[None] * n for _ in range(n)]
    for i in range(n):
        if grid[i][i] is None:
            raise ScenarioError("missing diagonal entry", f"{path}[{i}][{i}]")
        final[i][i] = grid[i][i]
        for j in range(i + 1, n):
            upper, lower = grid[i][j], grid[j][i]
            if upper is None and lower is None:
                raise ScenarioError("missing entry", f"{path}[{i}][{j}]")
            if upper is not None and lower is not None and upper != lower:
                raise ScenarioError(
                    "matrix is not symmetric (entries differ node-for-node)",
                    f"{path}[{j}][{i}]",
                )
            final[i][j] = final[j][i] = upper if upper is not None else lower
    return tuple(tuple(r) for r in final)


def _load_vector(entries, coords, n: int, path: str) -> tuple:
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ScenarioError("expected an array of expression strings", path)
    if len(entries) != n:
        raise ScenarioError(f"expected {n} entries, got {len(entries)}", path)
    return tuple(
        _parse_entry(cell, coords, f"{path}[{i}]") for i, cell in enumerate(entries)
    )


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
        if not isinstance(gamma_doc, Sequence) or len(gamma_doc) != n:
            raise ScenarioError(f"'gamma' must be an array of {n} matrices", path)
        gamma = tuple(
            _load_symmetric_matrix(mat, coords, n, f"{path}.gamma[{i}]")
            for i, mat in enumerate(gamma_doc)
        )
        return ExplicitRecipe(gamma)
    if kind == "modified_s":
        _check_keys(doc, {"kind", "metric", "s"}, path)
        if "metric" not in doc or "s" not in doc:
            raise ScenarioError("missing 'metric' or 's'", path)
        return ModifiedSRecipe(
            _load_symmetric_matrix(doc["metric"], coords, n, f"{path}.metric"),
            _load_vector(doc["s"], coords, n, f"{path}.s"),
        )
    if kind == "projective_transform":
        _check_keys(doc, {"kind", "base", "psi"}, path)
        if "base" not in doc or "psi" not in doc:
            raise ScenarioError("missing 'base' or 'psi'", path)
        return ProjectiveTransformRecipe(
            _load_recipe(doc["base"], coords, n, f"{path}.base"),
            _load_vector(doc["psi"], coords, n, f"{path}.psi"),
        )
    raise ScenarioError(f"unknown connection kind {kind!r}", path)


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def load_scenario(document) -> Scenario:
    """Load and validate a scenario from a mapping or JSON text."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as err:
            raise ScenarioError(f"invalid JSON: {err}") from err
    if not isinstance(document, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    _check_keys(
        document,
        {
            "dimension",
            "coordinates",
            "box",
            "metric",
            "connection",
            "tolerances",
            "samples",
            "seed",
            "sigma",
            "name",
            "description",
        },
        "$",
    )

    n = document.get("dimension")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ScenarioError("'dimension' must be an integer", "$.dimension")
    if n < 2:
        raise ScenarioError(
            "dimension must be at least 2 (the trace coefficient divides by "
            "(n+2)(n-1))",
            "$.dimension",
        )

    coords_doc = document.get("coordinates")
    if not isinstance(coords_doc, Sequence) or isinstance(coords_doc, (str, bytes)):
        raise ScenarioError("'coordinates' must be an array", "$.coordinates")
    if len(coords_doc) != n:
        raise ScenarioError(
            f"expected {n} coordinate names, got {len(coords_doc)}", "$.coordinates"
        )
    coords = []
    for i, name in enumerate(coords_doc):
        path = f"$.coordinates[{i}]"
        if not isinstance(name, str) or not _IDENT_RE.match(name):
            raise ScenarioError("coordinate names must be identifiers", path)
        if name in jets.FUNCTION_NAMES:
            raise ScenarioError(
                f"coordinate name '{name}' clashes with a function name", path
            )
        if name in coords:
            raise ScenarioError(f"duplicate coordinate name '{name}'", path)
        coords.append(name)
    coords = tuple(coords)

    box_doc = document.get("box")
    if not isinstance(box_doc, Mapping):
        raise ScenarioError("'box' must be an object with 'min' and 'max'", "$.box")
    _check_keys(box_doc, {"min", "max"}, "$.box")
    bounds = {}
    for key in ("min", "max"):
        arr = box_doc.get(key)
        if (
            not isinstance(arr, Sequence)
            or isinstance(arr, (str, bytes))
            or len(arr) != n
            or not all(_is_number(v) for v in arr)
        ):
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
    _check_keys(tol_doc, {"residual", "rank", "quadrature"}, "$.tolerances")
    for key, value in tol_doc.items():
        if not _is_number(value):
            raise ScenarioError(f"'{key}' must be a finite number", "$.tolerances")
    tolerances = Tolerances(**tol_doc)

    samples = document.get("samples", DEFAULT_SAMPLES)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ScenarioError("'samples' must be a positive integer", "$.samples")
    seed = document.get("seed", DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("'seed' must be an integer", "$.seed")

    sigma = None
    if "sigma" in document and document["sigma"] is not None:
        sigma = _parse_entry(document["sigma"], coords, "$.sigma")

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
        sigma=sigma,
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


def symmetric_jet(entries, ev: ex.Evaluator, order: int, rank: int) -> Jet:
    """Tensor jet of expression entries symmetric in the last two slots.

    Only the entries whose last two indices ascend are evaluated, in
    row-major order; each mirrored entry shares the same jet.
    """
    cells, flat = {}, []
    for index in np.ndindex((ev.n,) * rank):
        key = index[:-2] + tuple(sorted(index[-2:]))
        if key not in cells:
            entry = entries
            for i in key:
                entry = entry[i]
            cells[key] = ev.jet(entry, order)
        flat.append(cells[key])
    return jets.stack(flat, (ev.n,) * rank)


def inverse_at(ev: ex.Evaluator, g: Jet, rank_tol: float) -> Jet:
    """Inverse of a metric jet; degenerate points are flagged on ``ev``."""
    ginv, det, degenerate = inverse(g, rank_tol)
    ev.flag(degenerate, lambda: DegenerateMetric(det, point=ev.point))
    return ginv


def connection_jet(scenario: Scenario, ev: ex.Evaluator, order: int) -> Jet:
    """Scenario connection as a tensor jet at the evaluator's points;
    recipes needing a metric derivative support orders 0 and 1."""
    return _eval_recipe(scenario.connection, ev, order, scenario.tolerances.rank)


def _eval_recipe(recipe, ev: ex.Evaluator, order: int, rank_tol: float) -> Jet:
    n = ev.n
    if isinstance(recipe, LeviCivitaRecipe):
        g = symmetric_jet(recipe.metric, ev, order + 1, 2)
        return levi_civita(g, inverse_at(ev, g, rank_tol))
    if isinstance(recipe, ExplicitRecipe):
        return symmetric_jet(recipe.gamma, ev, order, 3)
    if isinstance(recipe, ModifiedSRecipe):
        g = symmetric_jet(recipe.metric, ev, order + 1, 2)
        base = levi_civita(g, inverse_at(ev, g, rank_tol))
        s = jets.stack([ev.jet(entry, order) for entry in recipe.s], (n,))
        return jets.sub(base, jets.einsum("i,jk->ijk", s, g), False)
    if isinstance(recipe, ProjectiveTransformRecipe):
        base = _eval_recipe(recipe.base, ev, order, rank_tol)
        psi = jets.stack([ev.jet(entry, order) for entry in recipe.psi], (n,))
        return shift(base, psi)
    raise TypeError(f"unknown connection recipe: {recipe!r}")


def metric_at(scenario: Scenario, point, order: int = 2) -> MetricValue:
    """Scenario metric as jets of the requested order."""
    ev = ex.Evaluator(_check_point(scenario, point), strict=True)
    return MetricValue(symmetric_jet(scenario.metric, ev, order, 2), point=ev.point)


def connection_at(scenario: Scenario, point, order: int = 1) -> ConnectionValue:
    """Scenario connection as jets; recipes needing a metric derivative
    support orders 0 and 1."""
    if order not in (0, 1):
        raise ValueError("connection jets are available at order 0 or 1")
    ev = ex.Evaluator(_check_point(scenario, point), strict=True)
    return ConnectionValue(connection_jet(scenario, ev, order), point=ev.point)


def sigma_at(scenario: Scenario, point, order: int = 2):
    if scenario.sigma is None:
        return None
    return ex.eval_expr(scenario.sigma, _check_point(scenario, point), order)


def sample_points(scenario: Scenario, count=None, seed=None) -> list:
    """The deterministic sample points a check over this scenario visits."""
    total = scenario.samples if count is None else count
    seed_val = scenario.seed if seed is None else seed
    return [
        draw_point(point_stream(seed_val, i), scenario.box_min, scenario.box_max)
        for i in range(total)
    ]


# -- representative changes ----------------------------------------------------


def _as_expr(e, coords) -> ex.Expr:
    return ex.parse_expression(e, coords) if isinstance(e, str) else e


def with_conformal_factor(scenario: Scenario, sigma) -> Scenario:
    """Scenario whose metric representative is rescaled by exp(2*sigma)."""
    sig = _as_expr(sigma, scenario.coordinates)
    factor = ex.Call("exp", ex.Binary("*", ex.Literal(2.0), sig))
    n = scenario.dimension
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            scaled = ex.Binary("*", scenario.metric[i][j], factor)
            rows[i][j] = rows[j][i] = scaled
    return replace(scenario, metric=tuple(tuple(r) for r in rows))


def with_projective_shift(scenario: Scenario, psi) -> Scenario:
    """Scenario whose connection representative is shifted by a one-form."""
    entries = tuple(_as_expr(entry, scenario.coordinates) for entry in psi)
    if len(entries) != scenario.dimension:
        raise ValueError("one-form component count must match the dimension")
    return replace(
        scenario,
        connection=ProjectiveTransformRecipe(scenario.connection, entries),
    )
