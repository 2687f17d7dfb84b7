import json
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from conproj import (
    ScenarioError,
    Tolerances,
    connection_at,
    load_scenario,
    load_scenario_path,
    metric_at,
    sample_points,
    with_conformal_factor,
    with_projective_shift,
)
from conproj.scenario import (
    ExplicitRecipe,
    LeviCivitaRecipe,
    ModifiedSRecipe,
    ProjectiveTransformRecipe,
)
from helpers import drift_doc, flat_doc


def test_flat_scenario_loads_with_defaults():
    doc = {
        "dimension": 2,
        "coordinates": ["x", "y"],
        "box": {"min": [-1, -1], "max": [1, 1]},
        "metric": [["1", "0"], ["0", "1"]],
        "connection": {"kind": "levi_civita", "metric": [["1", "0"], ["0", "1"]]},
    }
    scn = load_scenario(doc)
    assert scn.dimension == 2
    assert scn.samples == 200 and scn.seed == 0
    assert scn.tolerances == Tolerances(residual=1e-8, rank=1e-10, quadrature=1e-10)
    assert isinstance(scn.connection, LeviCivitaRecipe)


def test_drift_scenario_loads():
    scn = load_scenario(drift_doc())
    assert isinstance(scn.connection, ModifiedSRecipe)
    g = metric_at(scn, (0.0, 0.0, 0.0), 0)
    assert g.values().tolist() == [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="point has 2 coordinates, scenario has 3"):
        metric_at(scn, (0.0, 0.0), 0)
    with pytest.raises(ValueError, match="jet order must be 0, 1 or 2"):
        metric_at(with_conformal_factor(scn, "0.1*x1"), (0.0, 0.0, 0.0), 3)


def test_dimension_one_rejected():
    doc = flat_doc(2)
    doc["dimension"] = 1
    doc["coordinates"] = ["x"]
    doc["box"] = {"min": [-1], "max": [1]}
    doc["metric"] = [["1"]]
    doc["connection"] = {"kind": "levi_civita", "metric": [["1"]]}
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_lower_triangle_mirroring_conventions():
    base = flat_doc(2)
    base["metric"] = [["1", "0.5*x1"], [None, "1"]]
    scn = load_scenario(base)
    assert scn.metric[1][0] is scn.metric[0][1]

    short_rows = flat_doc(3)
    short_rows["metric"] = [["1", "0", "x2"], ["2", "0"], ["4"]]
    scn = load_scenario(short_rows)
    assert scn.metric[2][0] is scn.metric[0][2]

    mismatched = flat_doc(2)
    mismatched["metric"] = [["1", "x1"], ["x2", "1"]]
    with pytest.raises(ScenarioError, match="not symmetric"):
        load_scenario(mismatched)


def test_explicit_gamma_symmetry_checked():
    doc = flat_doc(2)
    doc["connection"] = {
        "kind": "explicit",
        "gamma": [[["0", "x1"], ["x2", "0"]], [["0", "0"], [None, "0"]]],
    }
    with pytest.raises(ScenarioError, match="not symmetric"):
        load_scenario(doc)
    doc["connection"]["gamma"][0] = [["0", "x1"], [None, "0"]]
    scn = load_scenario(doc)
    assert isinstance(scn.connection, ExplicitRecipe)
    gamma = connection_at(scn, (0.3, 0.4), order=1)
    for part in (gamma.jet.value, gamma.jet.gradient):
        assert np.array_equal(part, np.swapaxes(part, 1, 2))
    assert gamma.values()[0, 0, 1] == 0.3


def test_schema_violations_have_paths():
    doc = flat_doc(2)
    doc["metric"] = [["1", "0"]]
    with pytest.raises(ScenarioError, match=r"\$\.metric"):
        load_scenario(doc)
    doc = flat_doc(2)
    doc["bogus"] = 1
    with pytest.raises(ScenarioError, match="bogus"):
        load_scenario(doc)
    doc = flat_doc(2)
    doc["box"] = {"min": [0, 0], "max": [0, 1]}
    with pytest.raises(ScenarioError, match="box"):
        load_scenario(doc)
    doc = flat_doc(2)
    doc["coordinates"] = ["x", "sin"]
    with pytest.raises(ScenarioError, match="sin"):
        load_scenario(doc)
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON: maximum recursion depth"):
        load_scenario("[" * 100_000 + "]" * 100_000)


_IDENTITY = [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize(
    "key, value, path, message",
    [
        ("$", [], "$", "must be a JSON object"),
        ("dimension", "2", "$.dimension", "must be an integer"),
        ("coordinates", "x1", "$.coordinates", "must be an array"),
        ("coordinates", ["x1"], "$.coordinates", "expected 2 coordinate names"),
        ("coordinates", ["x1", "2x"], "$.coordinates[1]", "must be identifiers"),
        ("coordinates", ["x1", "x1"], "$.coordinates[1]", "duplicate coordinate name"),
        ("box", [], "$.box", "must be an object"),
        ("metric", None, "$", "missing 'metric'"),
        ("metric", "1", "$.metric", "expected an array of rows"),
        ("metric", [5, ["0", "1"]], "$.metric[0]", "expected an array of entries"),
        ("metric", [["1", "0", "0"], ["0", "1"]], "$.metric[0]", "upper-triangle entries"),
        ("metric", [[None, "0"], ["0", "1"]], "$.metric[0][0]", "below the diagonal"),
        ("metric", [[1, "0"], ["0", "1"]], "$.metric[0][0]", "expected an expression"),
        ("metric", [["1 +", "0"], ["0", "1"]], "$.metric[0][0]", "byte offset"),
        ("connection", None, "$", "missing 'connection'"),
        ("connection", "levi_civita", "$.connection", "expected a connection object"),
        ("connection", {"kind": "levi_civita"}, "$.connection", "missing 'metric'"),
        ("connection", {"kind": "explicit", "gamma": []}, "$.connection", "'gamma' must be"),
        ("connection", {"kind": "modified_s", "metric": _IDENTITY}, "$.connection", "or 's'"),
        (
            "connection",
            {"kind": "modified_s", "metric": _IDENTITY, "s": "x1"},
            "$.connection.s",
            "expected an array of expression strings",
        ),
        (
            "connection",
            {"kind": "modified_s", "metric": _IDENTITY, "s": ["0"]},
            "$.connection.s",
            "expected 2 entries, got 1",
        ),
        (
            "connection",
            {"kind": "projective_transform", "psi": ["0", "0"]},
            "$.connection",
            "missing 'base' or 'psi'",
        ),
        ("connection", {"kind": "affine"}, "$.connection", "unknown connection kind"),
        ("connection", {"kind": "explicit", "gamma": "ab"}, "$.connection", "'gamma' must be"),
        ("tolerances", [], "$.tolerances", "must be an object"),
        ("samples", 0, "$.samples", "must be a positive integer"),
        ("seed", 1.5, "$.seed", "must be an integer"),
        # a boolean, Python's or numpy's, is no integer; a numpy integer is judged as an int
        ("dimension", np.int64(1), "$.dimension", "dimension must be at least 2"),
        ("dimension", True, "$.dimension", "'dimension' must be an integer"),
        ("samples", True, "$.samples", "'samples' must be a positive integer"),
        ("seed", np.bool_(True), "$.seed", "'seed' must be an integer"),
        ("name", 3, "$.name", "must be a string"),
        (
            "connection",
            {"kind": "modified_s", "metric": _IDENTITY, "s": ["0", "0"], "potential": "x1"},
            "$.connection",
            "not both",
        ),
        (
            "connection",
            {"kind": "modified_s", "metric": _IDENTITY, "potential": ["x1"]},
            "$.connection.potential",
            "expected an expression string",
        ),
        (
            "connection",
            {"kind": "modified_s", "metric": _IDENTITY, "potential": "x1 *"},
            "$.connection.potential",
            "byte offset",
        ),
        ("connection", {"kind": "modified_s", "metric": _IDENTITY}, "$.connection", "'potential'"),
    ],
)
def test_each_schema_violation_names_its_path(key, value, path, message):
    doc = flat_doc(2)
    if key == "$":
        doc = value
    elif value is None:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ScenarioError, match=re.escape(message)) as excinfo:
        load_scenario(doc)
    assert excinfo.value.path == path


def test_load_from_text_and_path(tmp_path):
    doc = flat_doc(2)
    text = json.dumps(doc)
    assert load_scenario(text).dimension == 2
    target = tmp_path / "scn.json"
    target.write_text(text, encoding="utf-8")
    assert load_scenario_path(target).dimension == 2


def test_sample_points_deterministic():
    scn = load_scenario(flat_doc(2, samples=6, seed=42))
    first = sample_points(scn)
    second = sample_points(scn)
    assert first == second
    assert len(first) == 6
    assert all(-1 <= c <= 1 for p in first for c in p)
    assert sample_points(scn, seed=43) != first


def test_connection_recipes_compose():
    doc = flat_doc(2)
    doc["connection"] = {
        "kind": "projective_transform",
        "base": {"kind": "levi_civita", "metric": [["1", "0"], ["0", "1"]]},
        "psi": ["1", "0"],
    }
    scn = load_scenario(doc)
    assert isinstance(scn.connection, ProjectiveTransformRecipe)
    gamma = connection_at(scn, (0.0, 0.0), order=1)
    vals = gamma.values()
    assert vals[0, 0, 0] == 2.0
    assert vals[1, 0, 1] == 1.0 and vals[1, 1, 0] == 1.0
    assert vals[0, 1, 1] == 0.0
    with pytest.raises(ValueError, match="order 0 or 1"):
        connection_at(scn, (0.0, 0.0), order=2)
    with pytest.raises(TypeError, match="unknown connection recipe"):
        connection_at(replace(scn, connection=object()), (0.0, 0.0))


def test_sigma_field_and_transforms():
    scn = load_scenario(flat_doc(2))
    rescaled = with_conformal_factor(scn, "0.5*x1")
    g = metric_at(rescaled, (1.0, 0.0), 0)
    assert np.allclose(g.values(), np.exp(1.0) * np.eye(2))

    shifted = with_projective_shift(scn, ["1", "0"])
    vals = connection_at(shifted, (0.0, 0.0), order=0).values()
    assert vals[0, 0, 0] == 2.0
    with pytest.raises(ValueError, match="component count must match"):
        with_projective_shift(scn, ["1"])


@pytest.mark.parametrize("key", ["residual", "rank", "quadrature"])
@pytest.mark.parametrize("value", ["Infinity", "NaN", "0"])
def test_tolerances_must_be_finite_and_positive(key, value):
    text = json.dumps(flat_doc(2))[:-1] + f', "tolerances": {{"{key}": {value}}}}}'
    with pytest.raises(ScenarioError, match=rf"\$\.tolerances.*'{key}'"):
        load_scenario(text)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Tolerances(residual=True),
        lambda: Tolerances(residual="1e-8"),
        lambda: replace(load_scenario(flat_doc(2)).tolerances, residual=True),
    ],
    ids=["bool", "string", "replace"],
)
def test_a_tolerance_from_python_keeps_the_files_rule(make):
    # a boolean or a string is no tolerance, whichever way it comes
    with pytest.raises(ScenarioError, match=r"'residual' must be finite and positive") as excinfo:
        make()
    assert excinfo.value.path == "$.tolerances"


@pytest.mark.parametrize(
    "section, values, path",
    [
        ("tolerances", '{"residual": 1' + "0" * 400 + "}", r"\$\.tolerances: 'residual'"),
        ("box", '{"min": [-1, -1], "max": [1' + "0" * 400 + ", 1]}", r"\$\.box\.max:"),
        ("box", '{"min": [-Infinity, -1], "max": [1, 1]}', r"\$\.box\.min:"),
        ("box", '{"min": [-1, NaN], "max": [1, 1]}', r"\$\.box\.min:"),
        ("box", '{"min": [-1e308, -1], "max": [1e308, 1]}', r"\$\.box:.*finite width"),
    ],
    ids=["huge-tolerance", "huge-box-bound", "infinite-box-bound", "nan-box-bound", "box-width"],
)
def test_scenario_numbers_must_be_finite_floats(section, values, path):
    doc = flat_doc(2)
    doc.pop(section, None)
    text = json.dumps(doc)[:-1] + f', "{section}": {values}}}'
    with pytest.raises(ScenarioError, match=path):
        load_scenario(text)


def test_numpy_integers_load_as_python_ints():
    # the library's keywords take numpy integers, and so does a mapping document
    doc = flat_doc(2)
    doc.update(dimension=np.int64(2), samples=np.int64(5), seed=np.int64(-3))
    scn = load_scenario(doc)
    assert (scn.dimension, scn.samples, scn.seed) == (2, 5, -3)
    assert all(type(x) is int for x in (scn.dimension, scn.samples, scn.seed))


def test_coordinate_names_are_checked_in_linear_time():
    # a duplicate is looked up in the names seen so far, not searched for in a list
    n = 100_000
    doc = {"dimension": n, "coordinates": [f"x{i}" for i in range(n)],
           "box": {"min": [-1.0] * n, "max": [1.0] * n}, "metric": []}
    start = time.perf_counter()
    with pytest.raises(ScenarioError, match=f"expected {n} rows, got 0") as excinfo:
        load_scenario(doc)
    assert time.perf_counter() - start < 2.0
    assert excinfo.value.path == "$.metric"
