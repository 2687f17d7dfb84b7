import math
from pathlib import Path

import numpy as np
import pytest

from conproj import (
    DegenerateMetric,
    DomainError,
    NonConvergence,
    RecoveredFactor,
    check_compatibility,
    eval_expr,
    integrate_phi,
    integrate_phi_path,
    load_scenario,
    load_scenario_path,
    metric_at,
    parse_expression,
    recover_metric,
    sample_points,
    verify_recovery,
)
from helpers import (
    assert_componentwise_close,
    drift_doc,
    fd_gradient,
    flat_doc,
    one_degenerate_sample_doc,
    rank_one_doc,
    rescaled_flat_doc,
    round_trip_doc,
)


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
    with pytest.raises(ValueError, match="dimension mismatch"):
        RecoveredFactor(scn, (0.0, 0.0, 0.0))


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
    with pytest.raises(ValueError, match="at least two waypoints"):
        integrate_phi_path(scn, [base])


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


_PROBES = [(0.2, -0.3, 0.4, -0.5, 0.6), (-0.6, 0.5, -0.1, 0.3, -0.2), (0.7, 0.1, -0.7, 0.2, 0.45)]


@pytest.mark.parametrize("n, q", [(n, q) for n in range(2, 6) for q in range(n + 1)])
def test_the_recovered_metric_is_unique_up_to_one_constant_factor(n, q):
    # On a round trip built as exp(2 phi) g, recovery from base b gives
    # exp(2 (phi(x) - phi(b))) g(x); two bases differ by exp(2 phi_b1(b2)).
    doc, phi_src = round_trip_doc(np.random.default_rng(600 + 10 * n + q), n, samples=2, negative=q)
    scn = load_scenario(doc)
    b1, b2 = (0.0,) * n, (0.5, -0.25, 0.35, -0.45, 0.15)[:n]
    probes = [p[:n] for p in _PROBES]
    from_b1, from_b2 = recover_metric(scn, b1, probes), recover_metric(scn, b2, probes)
    between = math.exp(2.0 * integrate_phi(scn, b1, b2))
    phi_b1 = phi_value(phi_src, doc["coordinates"], b1)
    for x, g1, g2 in zip(probes, from_b1, from_b2):
        rescaled = math.exp(2.0 * (phi_value(phi_src, doc["coordinates"], x) - phi_b1))
        for expected in (between * g2.values(), rescaled * metric_at(scn, x, 0).values()):
            deviation = np.abs(g1.values() - expected)
            assert np.all(deviation <= 1e-12 * np.abs(expected)), ((n, q), x, deviation)


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


@pytest.mark.parametrize("samples", [0, -3, True])
def test_verify_recovery_rejects_a_sample_count_that_is_not_a_positive_int(samples):
    scn = load_scenario(flat_doc(2, samples=6))
    with pytest.raises(ValueError, match="sample count must be positive"):
        verify_recovery(scn, (0.0, 0.0), samples=samples)


def test_verify_recovery_skips_a_degenerate_sample_as_check_does():
    scn = load_scenario(one_degenerate_sample_doc()[0])
    assert check_compatibility(scn).verdict == "compatible"
    result = verify_recovery(scn, (0.5, 0.5))
    assert result.passed and result.max_deviation == 0.0 and result.samples == 150


def test_verify_recovery_is_fatal_on_degenerate_samples_as_check_is():
    scn = load_scenario(rank_one_doc())
    for call in (lambda: check_compatibility(scn), lambda: verify_recovery(scn, (0.5, 0.5))):
        with pytest.raises(DegenerateMetric, match="; 1 of 30 sample points degenerate"):
            call()


def test_quadrature_nonconvergence_is_reported():
    # a pole inside the integration segment cannot settle
    doc = rescaled_flat_doc()
    doc["metric"] = [["1 + 0.999999*sin(500*x1)^2", "0"], [None, "1"]]
    doc["connection"] = {
        "kind": "levi_civita",
        "metric": [["exp(2*sin(500*x1))", "0"], [None, "1"]],
    }
    doc["tolerances"] = {"quadrature": 1e-300}
    scn = load_scenario(doc)
    with pytest.raises(NonConvergence):
        integrate_phi(scn, (-1.0, 0.0), (1.0, 0.0))


def test_nonconvergence_names_the_integral():
    doc = rescaled_flat_doc()
    doc["connection"] = {
        "kind": "levi_civita",
        "metric": [["exp(2*sin(500*x1))", "0"], [None, "1"]],
    }
    doc["tolerances"] = {"quadrature": 1e-300}
    scn = load_scenario(doc)
    message = (
        r"quadrature from \(-1\.0, 0\.0\) to \(1\.0, 0\.5\) did not settle in \d+ "
        r"of at most 1024 segments \(error estimate \d\.\d{3}e[+-]\d+\)"
    )
    with pytest.raises(NonConvergence, match=message):
        integrate_phi(scn, (-1.0, 0.0), (1.0, 0.5))


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
    from conproj.expressions import Plan

    built, run = [], Plan.run

    def counting(plan, points):
        built.append(1)
        return run(plan, points)

    monkeypatch.setattr(Plan, "run", counting)
    scn = load_scenario(rescaled_flat_doc("0.3*tanh(8*x1)", samples=20, seed=3))
    phi = integrate_phi(scn, (-0.9, -0.2), (0.8, 0.3))
    assert abs(phi - 0.3 * (math.tanh(6.4) - math.tanh(-7.2))) <= 1e-10
    assert len(built) <= 8
    built.clear()
    assert verify_recovery(scn, (-0.9, -0.2)).passed
    assert len(built) <= 10


def _on_segment(p, start, end):
    p, start, end = (np.asarray(x, dtype=float) for x in (p, start, end))
    w, d = end - start, p - start
    t = float(d @ w) / float(w @ w)
    return 0.0 <= t <= 1.0 and np.allclose(d, t * w, rtol=0.0, atol=1e-12)


def test_a_bad_quadrature_node_is_rerun_alone_and_raises_its_error():
    doc = flat_doc(2, samples=12, seed=2)
    doc["metric"] = [["exp(sqrt(x1))", "0"], [None, "1"]]
    doc["connection"] = {"kind": "explicit", "gamma": [[["0", "0"], [None, "0"]]] * 2}
    scn = load_scenario(doc)
    base, end = (0.5, 0.2), (-0.5, -0.1)
    with pytest.raises(DomainError) as excinfo:
        integrate_phi(scn, base, end)
    assert excinfo.value.path == "sqrt(x1)"
    assert excinfo.value.point[0] <= 0.0 and _on_segment(excinfo.value.point, base, end)
    with pytest.raises(DomainError) as excinfo:
        verify_recovery(scn, base)
    assert excinfo.value.path == "sqrt(x1)" and excinfo.value.point[0] <= 0.0
    ends = [p for p in sample_points(scn) if p[0] <= 0.0]
    assert any(_on_segment(excinfo.value.point, base, p) for p in ends)


@pytest.mark.parametrize("entry", ["1 + x1^100000", "x1^(1e400)"])
def test_an_error_at_every_node_names_a_point_on_the_segment(entry):
    doc = flat_doc(2)
    doc["metric"] = [[entry, "0"], [None, "1"]]
    base, end = (0.1, 0.2), (0.5, -0.3)
    with pytest.raises(DomainError) as excinfo:
        integrate_phi(load_scenario(doc), base, end)
    assert _on_segment(excinfo.value.point, base, end)


def test_an_order_0_integral_over_a_zero_length_segment_evaluates_nothing():
    # sqrt(x1) fails at every node of a segment in x1 < 0, but a segment of
    # length 0 reads no node
    doc = flat_doc(2)
    doc["connection"] = {
        "kind": "explicit",
        "gamma": [[["sqrt(x1)", "0"], [None, "0"]], [["0", "0"], [None, "0"]]],
    }
    scn, base = load_scenario(doc), (-0.5, 0.25)
    assert integrate_phi(scn, base, base) == 0.0
    assert integrate_phi_path(scn, [base, base, base]) == 0.0
    (metric,) = recover_metric(scn, base, [base])
    assert metric.values().tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DomainError) as excinfo:
        integrate_phi(scn, base, (-0.4, 0.25))
    assert excinfo.value.path == "sqrt(x1)"


def test_a_repeated_waypoint_leaves_a_path_integral_unchanged():
    # a pairwise sum of the legs once read -0.12390959999999998 here, and
    # -0.1239096 with the fifth waypoint repeated; the exact sum is -0.1239096
    path = Path(__file__).resolve().parents[1] / "scenarios" / "rescaled_shift_2d.json"
    scn = load_scenario_path(path)
    waypoints = [
        (-0.354, -0.314), (0.296, -0.046), (-0.398, 0.218), (-0.175, -0.044), (0.354, 0.229),
        (0.875, -0.313), (0.183, 0.577), (-0.316, -0.261), (0.034, 0.781), (-0.795, 0.238),
    ]
    repeated = waypoints[:5] + waypoints[4:]
    assert integrate_phi_path(scn, waypoints) == integrate_phi_path(scn, repeated) == (
        -0.1239096000000001
    )


def test_the_g7_rule_is_every_second_node_of_the_k15_table():
    from conproj.recovery import _NODES, _WEIGHTS

    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(_NODES[1::2] - nodes)) <= 1e-15
    assert np.max(np.abs(_WEIGHTS[1, 1::2] - weights)) <= 1e-15
    assert not _WEIGHTS[1, 0::2].any()


def test_k15_integrates_polynomials_of_degree_22_exactly():
    from conproj.recovery import _NODES, _WEIGHTS

    def error(d):
        return abs(_WEIGHTS[0] @ _NODES**d - (1 + (-1) ** d) / (d + 1))

    assert max(error(d) for d in range(23)) <= 1e-15
    assert error(24) > 1e-10  # the degree is 3 * 7 + 1, no more


def _counting_batches(monkeypatch) -> list:
    import conproj.recovery as recovery

    batched, nodes = recovery._batched, []

    def counting(points, *args):
        nodes.append(len(points))
        return batched(points, *args)

    monkeypatch.setattr(recovery, "_batched", counting)
    return nodes


def test_a_smooth_integral_settles_in_one_batch_of_15_nodes(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scenarios" / "rescaled_shift_2d.json"
    scn = load_scenario_path(path)
    nodes = _counting_batches(monkeypatch)
    assert abs(integrate_phi(scn, (0.0, 0.0), (0.5, -0.3)) - (0.15 - 0.018)) <= 1e-12
    assert nodes == [15]
    value, gradient = RecoveredFactor(scn, (0.0, 0.0)).phi_and_gradient((0.5, -0.3))
    assert abs(value - 0.132) <= 1e-12 and np.allclose(gradient, [0.3, 0.12], atol=1e-12)
    assert nodes == [15, 15]


def test_a_nonconvergent_integral_evaluates_at_most_max_segments_rules(monkeypatch):
    from conproj.recovery import MAX_SEGMENTS

    doc = rescaled_flat_doc()
    doc["connection"] = {
        "kind": "levi_civita",
        "metric": [["exp(2*sin(500*x1))", "0"], [None, "1"]],
    }
    doc["tolerances"] = {"quadrature": 1e-300}
    scn = load_scenario(doc)
    nodes = _counting_batches(monkeypatch)
    with pytest.raises(NonConvergence, match="did not settle in 1023 of at most 1024 segments"):
        integrate_phi(scn, (-1.0, 0.0), (1.0, 0.5))
    assert sum(nodes) == 15 * 1023 <= 15 * MAX_SEGMENTS
