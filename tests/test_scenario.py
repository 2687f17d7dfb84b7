import json

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
    sigma_at,
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
    assert gamma.components[0][0][1] is gamma.components[0][1][0]
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


def test_sigma_field_and_transforms():
    doc = flat_doc(2)
    doc["sigma"] = "0.5*x1"
    scn = load_scenario(doc)
    assert sigma_at(scn, (1.0, 0.0), 0).value == 0.5

    rescaled = with_conformal_factor(scn, scn.sigma)
    g = metric_at(rescaled, (1.0, 0.0), 0)
    assert np.allclose(g.values(), np.exp(1.0) * np.eye(2))

    shifted = with_projective_shift(scn, ["1", "0"])
    vals = connection_at(shifted, (0.0, 0.0), order=0).values()
    assert vals[0, 0, 0] == 2.0


@pytest.mark.parametrize("key", ["residual", "rank", "quadrature"])
@pytest.mark.parametrize("value", ["Infinity", "NaN", "0"])
def test_tolerances_must_be_finite_and_positive(key, value):
    text = json.dumps(flat_doc(2))[:-1] + f', "tolerances": {{"{key}": {value}}}}}'
    with pytest.raises(ScenarioError, match=rf"\$\.tolerances.*'{key}'"):
        load_scenario(text)


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
