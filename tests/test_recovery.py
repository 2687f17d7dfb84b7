import math

import numpy as np
import pytest

from conproj import (
    NonConvergence,
    RecoveredFactor,
    eval_expr,
    integrate_phi,
    integrate_phi_path,
    load_scenario,
    metric_at,
    parse_expression,
    recover_metric,
    verify_recovery,
)
from helpers import (
    assert_componentwise_close,
    drift_doc,
    fd_gradient,
    flat_doc,
    round_trip_doc,
)


def rescaled_flat_doc(phi="x1", samples=12, seed=2):
    """Flat 2-d metric whose connection comes from exp(2*phi)-rescaled flat
    space: the trace one-form is exactly the gradient of phi."""
    conn_metric = [[f"exp(2*({phi}))", "0"], [None, f"exp(2*({phi}))"]]
    return {
        "dimension": 2,
        "coordinates": ["x1", "x2"],
        "box": {"min": [-1, -1], "max": [1, 1]},
        "metric": [["1", "0"], ["0", "1"]],
        "connection": {"kind": "levi_civita", "metric": conn_metric},
        "samples": samples,
        "seed": seed,
    }


def phi_value(phi_src, coords, point):
    return eval_expr(parse_expression(phi_src, coords), point, 0).value


def test_integrate_phi_closed_form():
    scn = load_scenario(rescaled_flat_doc("x1"))
    # T = (1, 0), so the line integral from the origin is just the first
    # coordinate of the target
    assert math.isclose(integrate_phi(scn, (0, 0), (0.5, 0.25)), 0.5, abs_tol=1e-12)
    assert integrate_phi(scn, (0.3, -0.4), (0.3, -0.4)) == 0.0


def test_integrate_phi_round_trip_against_known_factor():
    rng = np.random.default_rng(61)
    doc, phi_src = round_trip_doc(rng, 3, samples=10)
    scn = load_scenario(doc)
    base = (0.0, 0.0, 0.0)
    for target in [(0.4, -0.3, 0.2), (-0.7, 0.5, -0.1)]:
        got = integrate_phi(scn, base, target)
        want = phi_value(phi_src, scn.coordinates, target) - phi_value(
            phi_src, scn.coordinates, base
        )
        assert abs(got - want) <= 1e-8


def test_integrate_phi_rejects_points_outside_box():
    scn = load_scenario(rescaled_flat_doc())
    with pytest.raises(ValueError):
        integrate_phi(scn, (0, 0), (2.0, 0.0))
    with pytest.raises(ValueError):
        RecoveredFactor(scn, (1.5, 0.0))


def test_gradient_by_finite_differences():
    rng = np.random.default_rng(67)
    doc, _ = round_trip_doc(rng, 2, samples=8)
    scn = load_scenario(doc)
    factor = RecoveredFactor(scn, (0.0, 0.0))
    for point in [(0.3, 0.1), (-0.4, -0.2)]:
        fd = fd_gradient(lambda q: factor.phi(tuple(q)), np.asarray(point))
        _, grad = factor.phi_and_gradient(point)
        assert_componentwise_close(grad, fd, 1e-5)


def test_path_independence_when_closed():
    rng = np.random.default_rng(71)
    doc, _ = round_trip_doc(rng, 2, samples=8)
    scn = load_scenario(doc)
    base = (-0.5, -0.5)
    target = (0.6, 0.4)
    straight = integrate_phi(scn, base, target)
    corner = (target[0], base[1])
    polyline = integrate_phi_path(scn, [base, corner, target])
    assert abs(straight - polyline) <= 1e-9


def test_base_change_shifts_by_constant():
    rng = np.random.default_rng(73)
    doc, _ = round_trip_doc(rng, 2, samples=8)
    scn = load_scenario(doc)
    f1 = RecoveredFactor(scn, (0.0, 0.0))
    f2 = RecoveredFactor(scn, (0.5, -0.5))
    probes = [(0.2, 0.3), (-0.6, 0.1), (0.7, -0.7), (0.0, 0.9)]
    offsets = [f1.phi(p) - f2.phi(p) for p in probes]
    assert max(offsets) - min(offsets) <= 1e-8


def test_recover_metric_round_trip():
    rng = np.random.default_rng(79)
    doc, phi_src = round_trip_doc(rng, 2, samples=8)
    scn = load_scenario(doc)
    base = (0.0, 0.0)
    points = [(0.4, 0.2), (-0.3, 0.6)]
    recovered = recover_metric(scn, base, points)
    phi_base = phi_value(phi_src, scn.coordinates, base)
    for point, rec in zip(points, recovered):
        factor = math.exp(2.0 * (phi_value(phi_src, scn.coordinates, point) - phi_base))
        expected = metric_at(scn, point, 0).values() * factor
        assert_componentwise_close(rec.values(), expected, 1e-8)


def test_recover_metric_without_rescaling_returns_metric():
    scn = load_scenario(flat_doc(2))
    rec = recover_metric(scn, (0.0, 0.0), [(0.5, -0.5)])[0]
    assert np.allclose(rec.values(), np.eye(2))


def test_recovered_factor_ratio_is_constant_between_bases():
    rng = np.random.default_rng(83)
    doc, _ = round_trip_doc(rng, 2, samples=8)
    scn = load_scenario(doc)
    points = [(0.2, 0.3), (-0.5, 0.4), (0.6, -0.6)]
    rec_a = recover_metric(scn, (0.0, 0.0), points)
    rec_b = recover_metric(scn, (0.4, 0.4), points)
    ratios = [a.values()[0, 0] / b.values()[0, 0] for a, b in zip(rec_a, rec_b)]
    assert max(ratios) - min(ratios) <= 1e-8 * max(ratios)


def test_verify_recovery_passes_on_compatible():
    rng = np.random.default_rng(89)
    doc, _ = round_trip_doc(rng, 3, samples=6)
    scn = load_scenario(doc)
    result = verify_recovery(scn, (0.0, 0.0, 0.0), samples=5)
    assert result.passed
    assert result.max_deviation <= 1e-8

    flat = load_scenario(flat_doc(2, samples=6))
    result = verify_recovery(flat, (0.0, 0.0), samples=5)
    assert result.passed and result.max_deviation <= 1e-12


def test_verify_recovery_fails_on_drift_scenario():
    scn = load_scenario(drift_doc(samples=12))
    result = verify_recovery(scn, (0.0, 0.0, 0.0), samples=12)
    assert not result.passed
    assert result.max_deviation > 0.05


def test_quadrature_nonconvergence_is_reported():
    # a pole inside the integration segment cannot settle
    doc = rescaled_flat_doc()
    doc["metric"] = [["1 + 0.999999*sin(500*x1)^2", "0"], [None, "1"]]
    doc["connection"] = {
        "kind": "levi_civita",
        "metric": [["exp(2*sin(500*x1))", "0"], [None, "1"]],
    }
    scn = load_scenario(doc)
    with pytest.raises(NonConvergence):
        integrate_phi(scn, (-1.0, 0.0), (1.0, 0.0), quadrature_tol=1e-300)


def test_nonconvergence_names_the_integral():
    doc = rescaled_flat_doc()
    doc["connection"] = {
        "kind": "levi_civita",
        "metric": [["exp(2*sin(500*x1))", "0"], [None, "1"]],
    }
    scn = load_scenario(doc)
    message = (
        r"quadrature from \(-1\.0, 0\.0\) to \(1\.0, 0\.5\) did not settle in \d+ "
        r"of at most 1024 segments \(error estimate \d\.\d{3}e[+-]\d+\)"
    )
    with pytest.raises(NonConvergence, match=message):
        integrate_phi(scn, (-1.0, 0.0), (1.0, 0.5), quadrature_tol=1e-300)


def test_recover_metric_batch_matches_one_point_calls():
    rng = np.random.default_rng(97)
    doc, _ = round_trip_doc(rng, 3, samples=6)
    scn = load_scenario(doc)
    base = (0.1, -0.2, 0.0)
    points = [tuple(rng.uniform(-0.9, 0.9, 3)) for _ in range(29)] + [base]
    batch = recover_metric(scn, base, points)
    for point, got in zip(points, batch):
        alone = recover_metric(scn, base, [point])[0].values()
        assert np.allclose(got.values(), alone, rtol=1e-15, atol=0.0)


def test_recovery_batches_its_evaluations(monkeypatch):
    import conproj.recovery as recovery

    built = []

    class Counting(recovery.Evaluator):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(recovery, "Evaluator", Counting)
    scn = load_scenario(rescaled_flat_doc("0.3*tanh(8*x1)", samples=20, seed=3))
    phi = integrate_phi(scn, (-0.9, -0.2), (0.8, 0.3))
    assert abs(phi - 0.3 * (math.tanh(6.4) - math.tanh(-7.2))) <= 1e-10
    assert len(built) <= 8
    built.clear()
    assert verify_recovery(scn, (-0.9, -0.2)).passed
    assert len(built) <= 10
