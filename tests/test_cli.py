import json
import tracemalloc

import numpy as np
import pytest

from conproj.cli import main
from helpers import (
    drift_doc,
    flat_doc,
    one_degenerate_sample_doc,
    round_trip_doc,
    split_metric_file,
)


@pytest.fixture()
def drift_file(tmp_path):
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(drift_doc(samples=30)), encoding="utf-8")
    return path


@pytest.fixture()
def round_trip_file(tmp_path):
    rng = np.random.default_rng(103)
    doc, _ = round_trip_doc(rng, 2, samples=10)
    path = tmp_path / "round_trip.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_check_compatible_exit_zero(tmp_path, round_trip_file):
    out = tmp_path / "report.json"
    code = main(["check", str(round_trip_file), "--out", str(out), "--quiet"])
    assert code == 0
    report = read_json(out)
    assert report["verdict"] == "compatible"
    assert set(report["residuals"]) == {"A", "B", "eps"}
    assert report["residuals"]["A"] <= 1e-8
    assert report["residuals"]["eps"] == "vacuous"
    assert report["samples"] == 10
    assert isinstance(report["seed"], int)
    assert report["worst"] and {"point", "A", "B"} <= set(report["worst"][0])
    assert len(report["scenario_digest"]) == 64


def test_check_drift_exit_two(tmp_path, drift_file, capsys):
    out = tmp_path / "report.json"
    code = main(["check", str(drift_file), "--out", str(out)])
    assert code == 2
    report = read_json(out)
    assert report["verdict"] == "fails_B"
    assert report["eps"] == "holds"
    assert abs(report["residuals"]["B"] - 1.0) <= 1e-9
    assert "fails_B" in capsys.readouterr().err


def test_check_missing_file_exit_one(tmp_path, capsys):
    code = main(["check", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_check_schema_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 1}), encoding="utf-8")
    assert main(["check", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_check_report_deterministic(tmp_path, drift_file):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["check", str(drift_file), "--out", str(out1), "--quiet"])
    main(["check", str(drift_file), "--out", str(out2), "--quiet"])
    a = read_json(out1)
    b = read_json(out2)
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_recover_round_trip(tmp_path):
    doc = {
        "dimension": 2,
        "coordinates": ["x1", "x2"],
        "box": {"min": [-1, -1], "max": [1, 1]},
        "metric": [["1", "0"], ["0", "1"]],
        "connection": {
            "kind": "levi_civita",
            "metric": [["exp(2*x1)", "0"], [None, "exp(2*x1)"]],
        },
        "samples": 10,
        "seed": 4,
    }
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "recover.json"
    code = main(
        [
            "recover",
            str(scenario),
            "--base",
            "0,0",
            "--at",
            "0.5,0",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    report = read_json(out)
    assert abs(report["recovery"]["phi"] - 0.5) <= 1e-10
    assert report["recovery"]["deviation"] <= 1e-8
    expected = np.exp(1.0) * np.eye(2)
    assert np.allclose(report["recovery"]["metric"], expected, atol=1e-9)

    out2 = tmp_path / "recover0.json"
    code = main(
        ["recover", str(scenario), "--base", "0,0", "--at", "0,0", "--out", str(out2), "--quiet"]
    )
    assert code == 0
    assert read_json(out2)["recovery"]["phi"] == 0.0


def test_recover_a_scenario_with_a_skipped_sample_point(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(one_degenerate_sample_doc()[0]), encoding="utf-8")
    out = tmp_path / "recover.json"
    argv = ["recover", str(path), "--base", "0.5,0.5", "--at", "0.2,0.3"]
    assert main(argv + ["--out", str(out), "--quiet"]) == 0
    report = read_json(out)
    assert report["verdict"] == "compatible" and len(report["skipped_points"]) == 1
    assert report["recovery"]["deviation"] == 0.0


def test_recover_refuses_incompatible(tmp_path, drift_file, capsys):
    code = main(
        ["recover", str(drift_file), "--base", "0,0,0", "--at", "0.5,0,0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "no recovery attempted" in err


def test_recover_bad_point_exit_one(drift_file, capsys):
    assert main(["recover", str(drift_file), "--base", "0,0", "--at", "0,0,0"]) == 1
    assert "error" in capsys.readouterr().err


def test_cone_command(tmp_path):
    vec = tmp_path / "vectors.json"
    vec.write_text(
        json.dumps({"dimension": 2, "vectors": [[1, 1], [1, -1]]}), encoding="utf-8"
    )
    out = tmp_path / "cone.json"
    assert main(["cone", str(vec), "--out", str(out), "--quiet"]) == 0
    report = read_json(out)
    got = np.asarray(report["metric"])
    assert np.allclose(np.abs(got), np.eye(2))
    assert got[0, 0] * got[1, 1] < 0  # indefinite, up to the sign convention

    vec.write_text(
        json.dumps({"dimension": 2, "vectors": [[1, 1], [2, 2]]}), encoding="utf-8"
    )
    assert main(["cone", str(vec), "--quiet"]) == 2

    vec.write_text(json.dumps({"dimension": 3, "vectors": [[1, 1, 0]]}), encoding="utf-8")
    assert main(["cone", str(vec), "--quiet"]) == 1


def test_gen_example_drift_family(tmp_path):
    out = tmp_path / "gen.json"
    code = main(
        ["gen-example", "--metric", "minkowski3", "--s", "0,0,x2", "--out", str(out), "--quiet"]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["connection"]["kind"] == "modified_s"
    assert doc["connection"]["s"] == ["0", "0", "x2"]
    report = tmp_path / "r.json"
    assert main(["check", str(out), "--samples", "25", "--out", str(report), "--quiet"]) == 2
    assert read_json(report)["verdict"] == "fails_B"
    assert read_json(report)["eps"] == "holds"


def test_gen_example_gradient_drift_is_compatible(tmp_path):
    out = tmp_path / "gen.json"
    inputs = [
        ("euclidean2", "0.3*x1*x2"),
        (str(split_metric_file(tmp_path)), "0.3*x1*x2 - 0.2*x5^2 + sin(x3)*x4"),
    ]
    for metric, potential in inputs:
        code = main(
            ["gen-example", "--metric", metric, "--s-grad", potential, "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert read_json(out)["connection"]["potential"] == potential
        assert main(["check", str(out), "--samples", "20", "--quiet"]) == 0


def test_gen_example_zero_drift_trivially_compatible(tmp_path):
    out = tmp_path / "gen.json"
    assert (
        main(["gen-example", "--metric", "minkowski2", "--s", "0,0", "--out", str(out), "--quiet"])
        == 0
    )
    assert main(["check", str(out), "--samples", "10", "--quiet"]) == 0


@pytest.mark.parametrize(
    "name, rows",
    [
        ("euclidean2", [["1", "0"], ["0", "1"]]),
        ("euclidean3", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
        ("minkowski2", [["-1", "0"], ["0", "1"]]),
        ("minkowski3", [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
        (
            "minkowski4",
            [
                ["-1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["0", "0", "0", "1"],
            ],
        ),
    ],
)
def test_gen_example_builtin_metrics(tmp_path, name, rows):
    n = len(rows)
    out = tmp_path / "gen.json"
    drift = ",".join(["0"] * n)
    assert main(["gen-example", "--metric", name, "--s", drift, "--out", str(out), "--quiet"]) == 0
    doc = read_json(out)
    assert doc["dimension"] == n
    assert doc["coordinates"] == [f"x{i + 1}" for i in range(n)]
    assert doc["box"] == {"min": [-1.0] * n, "max": [1.0] * n}
    assert doc["metric"] == doc["connection"]["metric"] == rows


def test_gen_example_from_metric_file(tmp_path):
    metric_file = tmp_path / "metric.json"
    metric_file.write_text(
        json.dumps(
            {
                "dimension": 2,
                "coordinates": ["u", "v"],
                "metric": [["-1", "0"], ["0", "1 + 0.1*u^2"]],
                "box": {"min": [-2, -2], "max": [2, 2]},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "gen.json"
    code = main(
        ["gen-example", "--metric", str(metric_file), "--s", "0,0.5*u", "--out", str(out), "--quiet"]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["coordinates"] == ["u", "v"]
    assert doc["box"]["max"] == [2, 2]
    assert main(["check", str(out), "--samples", "15", "--quiet"]) in (0, 2)

    # the non-gradient twin of the 5-d gradient drift
    split = split_metric_file(tmp_path)
    code = main(
        ["gen-example", "--metric", str(split), "--s", "0,0,0,0,x2", "--out", str(out), "--quiet"]
    )
    assert code == 0
    report = tmp_path / "r.json"
    assert main(["check", str(out), "--samples", "15", "--out", str(report), "--quiet"]) == 2
    assert read_json(report)["verdict"] == "fails_B"
    assert read_json(report)["eps"] == "holds"


def test_gen_example_builds_no_default_for_a_dimension_its_metric_lacks(tmp_path, capsys):
    # the default coordinates and box of a million dimensions would take ~100 MB
    metric_file = tmp_path / "metric.json"
    metric_file.write_text(
        json.dumps({"dimension": 1_000_000, "metric": [["1", "0"], [None, "1"]]}), encoding="utf-8"
    )
    tracemalloc.start()
    try:
        code = main(["gen-example", "--metric", str(metric_file), "--s", "0,0", "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == "error: --s must provide 1000000 components\n"
    assert peak < 5e6
    # without a count to check first, the loader finds the default names one per metric row
    assert main(["gen-example", "--metric", str(metric_file), "--s-grad", "x1", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: $.coordinates: expected 1000000 coordinate names, got 2\n"


def test_cone_on_an_int_beyond_the_float_range_prints_one_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    huge = "1" + "0" * 400
    path.write_text(f'{{"dimension": 2, "vectors": [[1, {huge}], [1, 2]]}}', encoding="utf-8")
    assert main(["cone", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: vectors must be finite and nonzero\n"


def test_tolerance_flag_changes_verdict(tmp_path, drift_file):
    # a generous residual tolerance accepts the unit closedness defect
    out = tmp_path / "r.json"
    code = main(
        ["check", str(drift_file), "--tol-residual", "2.0", "--out", str(out), "--quiet"]
    )
    assert code == 0
    assert read_json(out)["verdict"] == "compatible"


def test_gen_example_bad_expression_exit_one(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert (
        main(["gen-example", "--metric", "minkowski3", "--s", "0,0,x9", "--out", str(out)])
        == 1
    )
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_one():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_one_parser_serves_every_call(tmp_path, drift_file, capsys):
    from conproj import cli

    assert cli._build_parser() is cli._build_parser()
    # a flag given to one call does not carry over to the next
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["check", str(drift_file), "--samples", "7", "--out", str(first), "--quiet"]) == 2
    assert main(["check", str(drift_file), "--out", str(second), "--quiet"]) == 2
    assert (read_json(first)["samples"], read_json(second)["samples"]) == (7, 30)
    assert main(["--help"]) == 0
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out[: len(out) // 2] == out[len(out) // 2 :]


def test_recover_integrates_the_query_point_once(tmp_path, monkeypatch):
    from conproj import recovery

    rng = np.random.default_rng(107)
    doc, _ = round_trip_doc(rng, 2, samples=6)
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    original = recovery._integrate

    def counting(scenario, starts, ends, order):
        calls.append((np.asarray(ends, dtype=float).reshape(-1, 2).tolist(), order))
        return original(scenario, starts, ends, order)

    monkeypatch.setattr(recovery, "_integrate", counting)
    out = tmp_path / "recover.json"
    argv = ["recover", str(scenario), "--base", "0,0", "--at", "0.4,-0.3"]
    assert main(argv + ["--out", str(out), "--quiet"]) == 0
    assert calls.count(([[0.4, -0.3]], 0)) == 1
    assert all(order == 1 or ends == [[0.4, -0.3]] for ends, order in calls)
    monkeypatch.undo()
    recovery = read_json(out)["recovery"]
    from conproj import integrate_phi, load_scenario, recover_metric

    scn = load_scenario(doc)
    assert recovery["phi"] == integrate_phi(scn, (0.0, 0.0), (0.4, -0.3))
    expected = recover_metric(scn, (0.0, 0.0), [(0.4, -0.3)])[0].values().tolist()
    assert recovery["metric"] == expected


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--tol-residual", "--tol-quadrature"])
def test_tolerance_flags_must_be_finite_and_positive(drift_file, capsys, flag, value):
    assert main(["check", str(drift_file), flag, value, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_infinite_tolerance_in_a_scenario_file_exit_one(tmp_path, capsys):
    doc = drift_doc(samples=5)
    path = tmp_path / "inf.json"
    text = json.dumps(doc)[:-1] + ', "tolerances": {"residual": Infinity}}'
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error:")


_NOT_AN_ARRAY = "error: $.coordinates: 'coordinates' must be an array"


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["check", "{scenario}", "--samples", "0"], ""),
        (["recover", "{scenario}", "--base", "5,5", "--at", "0,0"], ""),
        (["gen-example", "--metric", "{bad_json}", "--s", "0,0"], ""),
        (["check", "{domain}"], "in 'sqrt(x1)' at point ("),
        (["recover", "{scenario}", "--base", "0,x", "--at", "0,0"], "could not parse point"),
        (["cone", "{bad_json}"], "invalid JSON"),
        (["cone", "{array}"], "cone input must be"),
        (["cone", "{dimension_one}"], "'dimension' must be an integer >= 2"),
        (["gen-example", "--metric", "{array}", "--s", "0,0"], "must be a JSON object"),
        (["gen-example", "--metric", "{dimension_one}", "--s", "0"], "integer 'dimension' >= 2"),
        (["gen-example", "--metric", "{no_metric}", "--s", "0,0"], "needs a 'metric' array"),
        (["gen-example", "--s", "0,0"], "--s must provide 3 components"),
        (["cone", "{vectors_int}"], "vectors must be an array of 2-component vectors"),
        (["cone", "{vectors_null}"], "vectors must be an array of 2-component vectors"),
        (["gen-example", "--metric", "{coords_str}", "--s", "0,0"], _NOT_AN_ARRAY),
        (["gen-example", "--metric", "{coords_obj}", "--s", "0,0"], _NOT_AN_ARRAY),
        (["gen-example", "--metric", "{coords_int}", "--s", "0,0"], _NOT_AN_ARRAY),
        (["check", "{deep}"], "invalid JSON"),
        (["recover", "{deep}", "--base", "0,0", "--at", "0,0"], "invalid JSON"),
        (["cone", "{deep}"], "invalid JSON"),
        (["gen-example", "--metric", "{deep}", "--s", "0,0"], "invalid JSON"),
        (["gen-example", "--metric", "minkowski3", "--s", "0,0,x9"],
         "error: $.connection.s[2]: unknown identifier 'x9'"),
        (["gen-example", "--metric", "minkowski3", "--s-grad", "x9"],
         "error: $.connection.potential: unknown identifier 'x9'"),
        (["gen-example", "--metric", "{bad_entry}", "--s-grad", "x9"], "error: $.metric[0][0]: "),
        (["gen-example", "--metric", "{bad_entry}", "--s", "x9"], "--s must provide 2 components"),
    ],
    ids=[
        "zero-samples",
        "base-outside-box",
        "invalid-metric-json",
        "domain-error",
        "unparsable-base",
        "invalid-cone-json",
        "cone-input-not-an-object",
        "cone-dimension-one",
        "metric-file-not-an-object",
        "metric-file-dimension-one",
        "metric-file-without-metric",
        "drift-component-count",
        "cone-vectors-a-number",
        "cone-vectors-null",
        "metric-file-coordinates-a-string",
        "metric-file-coordinates-an-object",
        "metric-file-coordinates-a-number",
        "check-100000-deep-json",
        "recover-100000-deep-json",
        "cone-100000-deep-json",
        "metric-file-100000-deep-json",
        "drift-entry-unknown-name",
        "potential-unknown-name",
        "metric-entry-error-before-the-drift",
        "drift-component-count-before-the-metric",
    ],
)
def test_user_errors_print_one_line_and_exit_one(
    tmp_path, round_trip_file, capsys, argv, detail
):
    files = {
        "bad_json": "{not json",
        "array": "[]",
        "dimension_one": '{"dimension": 1, "vectors": [], "metric": [["1"]]}',
        "no_metric": '{"dimension": 2}',
        "vectors_int": '{"dimension": 2, "vectors": 5}',
        "vectors_null": '{"dimension": 2, "vectors": null}',
        "deep": "[" * 100_000 + "]" * 100_000,
        "bad_entry": '{"dimension": 2, "metric": [["1 +", "0"], [null, "1"]]}',
    }
    metric = [["1", "0"], [None, "1"]]
    for name, coords in (("coords_str", "ab"), ("coords_obj", {"a": 1, "b": 2}),
                         ("coords_int", 7)):
        files[name] = json.dumps({"dimension": 2, "coordinates": coords, "metric": metric})
    paths = {"scenario": round_trip_file}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    doc = flat_doc(2, samples=40, seed=3)
    doc["metric"] = [["exp(sqrt(x1))", "0"], [None, "1"]]
    doc["connection"] = {"kind": "explicit", "gamma": [[["0", "0"], [None, "0"]]] * 2}
    paths["domain"] = tmp_path / "domain.json"
    paths["domain"].write_text(json.dumps(doc), encoding="utf-8")
    assert main([arg.format(**paths) for arg in argv] + ["--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert detail in err


@pytest.mark.parametrize(
    "section, values",
    [
        ("tolerances", '{"residual": 1' + "0" * 400 + "}"),
        ("box", '{"min": [-1, -1, -1], "max": [1' + "0" * 400 + ", 1, 1]}"),
        ("box", '{"min": [NaN, -1, -1], "max": [1, 1, 1]}'),
        ("box", '{"min": [-1e308, -1, -1], "max": [1e308, 1, 1]}'),
    ],
    ids=["huge-tolerance", "huge-box-bound", "nan-box-bound", "box-width"],
)
def test_non_float_scenario_numbers_exit_one(tmp_path, capsys, section, values):
    doc = drift_doc(samples=5)
    doc.pop(section, None)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc)[:-1] + f', "{section}": {values}}}', encoding="utf-8")
    assert main(["check", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: $.{section}") and "Traceback" not in err


@pytest.mark.parametrize(
    "entry, offset",
    [("(" * 1000 + "x1" + ")" * 1000, 256), ("2" + "+0*x1" * 999, 1276)],
    ids=["1000-brackets", "1000-operand-sum"],
)
def test_deep_expression_exit_one_without_traceback(tmp_path, capsys, entry, offset):
    doc = flat_doc(2, samples=5)
    doc["metric"] = [[entry, "0"], [None, "1"]]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: $.metric[0][0]: expression nests deeper than 256 levels "
        f"(byte offset {offset})\n"
    )
