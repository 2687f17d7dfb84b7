"""Print a byte-compare corpus of conproj's outputs, one ``name<TAB>value`` line
per record.

Run it on two commits and diff the outputs to see which records a change moves:

    PYTHONPATH=src python tests/corpus.py > after.tsv

The records cover the CLI reports of the bundled scenarios (without
``timestamp``), report reprs in every signature for n = 2-5, null-vector
draws, recovery values and the messages of failing inputs.  Pytest does not
collect this file; it pins no data.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from conproj import (
    Jet,
    MetricValue,
    check_compatibility,
    integrate_phi,
    integrate_phi_path,
    load_scenario,
    load_scenario_path,
    recover_metric,
    sample_null_vectors,
    verify_recovery,
)
from conproj.cli import main
from conproj.sampling import SplitMix64
from helpers import (
    flat_doc,
    one_degenerate_sample_doc,
    rank_one_doc,
    rescaled_flat_doc,
    round_trip_doc,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SIGNATURES = [(n, q) for n in range(2, 6) for q in range(n + 1)]
PATH = [
    (-0.354, -0.314), (0.296, -0.046), (-0.398, 0.218), (-0.175, -0.044), (0.354, 0.229),
    (0.875, -0.313), (0.183, 0.577), (-0.316, -0.261), (0.034, 0.781), (-0.795, 0.238),
]


def emit(name: str, value) -> None:
    sys.stdout.write(f"{name}\t{value}\n")


def outcome(call) -> str:
    """``repr`` of the call's value, or the type and message of its error."""
    try:
        return repr(call())
    except Exception as err:  # the error is the record
        return f"{type(err).__name__}: {err}"


def cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    document = json.loads(out.getvalue()) if out.getvalue() else None
    if document is not None:
        del document["timestamp"]
    return json.dumps({"code": code, "report": document, "stderr": err.getvalue()})


def cli_records() -> None:
    for path in sorted(SCENARIOS.glob("*.json")):
        n = load_scenario_path(path).dimension
        base, at = ",".join(["0"] * n), ",".join(["0.5", "0.25", "-0.3"][:n])
        for label, extra in (("own", []), ("1500", ["--samples", "1500", "--seed", "5"])):
            emit(f"cli.check.{path.stem}.{label}", cli(["check", str(path), *extra]))
            recover = ["recover", str(path), "--base", base, "--at", at, *extra]
            emit(f"cli.recover.{path.stem}.{label}", cli(recover))


def report_records() -> None:
    for n, q in SIGNATURES:
        doc, _ = round_trip_doc(np.random.default_rng(100 * n + q), n, samples=20, negative=q)
        emit(f"check.round_trip.n{n}q{q}", outcome(lambda: check_compatibility(load_scenario(doc))))
    doc, _ = one_degenerate_sample_doc()
    emit("check.one_degenerate_sample", outcome(lambda: check_compatibility(load_scenario(doc))))
    mixed = flat_doc(2, samples=3000, seed=3)
    mixed["metric"] = [["x1", "0"], [None, "1"]]
    mixed["connection"] = {
        "kind": "explicit",
        "gamma": [[["0.3*x2", "0.5"], [None, "x1"]], [["0.2", "-0.4*x1"], [None, "0.7"]]],
    }
    emit("check.mixed_signature_box", outcome(lambda: check_compatibility(load_scenario(mixed))))


def null_vector_records() -> None:
    for n, q in SIGNATURES:
        rng = np.random.default_rng(7 * n + q)
        rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
        signs = np.where(np.arange(n) < q, -1.0, 1.0)
        values = rotation @ np.diag(signs * rng.uniform(0.5, 2.0, n)) @ rotation.T
        g = MetricValue(Jet(n, 0, 0.5 * (values + values.T)))
        for count in (0, 1, 4, 9):
            stream = SplitMix64(1000 * n + 10 * q + count)
            drawn = outcome(lambda: [v.u.tolist() for v in sample_null_vectors(g, count, stream)])
            emit(f"null_vectors.n{n}q{q}.count{count}", f"{drawn} state={stream.state}")


def recovery_records() -> None:
    scn = load_scenario_path(SCENARIOS / "rescaled_shift_2d.json")
    emit("path.ten_waypoints", outcome(lambda: integrate_phi_path(scn, PATH)))
    repeated = PATH[:5] + PATH[4:]
    emit("path.ten_waypoints_one_repeated", outcome(lambda: integrate_phi_path(scn, repeated)))
    doc, _ = round_trip_doc(np.random.default_rng(83), 3, samples=8)
    trip, base = load_scenario(doc), (0.0, 0.0, 0.0)
    points = [(0.2, 0.3, -0.1), (-0.5, 0.4, 0.6)]
    metrics = outcome(lambda: [m.values().tolist() for m in recover_metric(trip, base, points)])
    emit("recover_metric.round_trip_n3", metrics)
    emit("verify_recovery.round_trip_n3", outcome(lambda: verify_recovery(trip, base, samples=20)))


def message_records() -> None:
    zero = [[["0", "0"], [None, "0"]]] * 2
    for label, entry in (
        ("sqrt", "exp(sqrt(x1))"),
        ("log", "2 + log(x1)"),
        ("division", "1 + 1/(x1 - x1)"),
        ("power", "1 + x1^100000"),
        ("constant", "1e400"),
    ):
        doc = flat_doc(2, samples=40, seed=3)
        doc["metric"] = [[entry, "0"], [None, "1"]]
        doc["connection"] = {"kind": "explicit", "gamma": zero}
        emit(f"error.check.{label}", outcome(lambda: check_compatibility(load_scenario(doc))))
    rank_one = load_scenario(rank_one_doc())
    emit("error.check.degenerate", outcome(lambda: check_compatibility(rank_one)))
    doc = rescaled_flat_doc()
    steep = [["exp(2*sin(500*x1))", "0"], [None, "1"]]
    doc["connection"] = {"kind": "levi_civita", "metric": steep}
    doc["tolerances"] = {"quadrature": 1e-300}
    steep = load_scenario(doc)
    emit("error.nonconvergence", outcome(lambda: integrate_phi(steep, (-1.0, 0.0), (1.0, 0.5))))
    for label, values in (
        ("degenerate", np.ones((2, 2))),
        ("subnormal", np.diag([-1e-318, 1e-318])),
    ):
        g = MetricValue(Jet(2, 0, values))
        drawn = outcome(lambda: sample_null_vectors(g, 4, SplitMix64(1)))
        emit(f"error.null_vectors.{label}", drawn)


if __name__ == "__main__":
    cli_records()
    report_records()
    null_vector_records()
    recovery_records()
    message_records()
