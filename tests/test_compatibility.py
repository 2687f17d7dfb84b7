import math
import sys

import numpy as np
import pytest

from conproj import (
    DegenerateMetric,
    DomainError,
    MetricValue,
    check_compatibility,
    compat_tensor,
    condition_a_residual,
    condition_b_residual,
    connection_at,
    constant,
    coordinate,
    christoffel,
    eps_residual,
    invert_metric,
    load_scenario,
    metric_at,
    obstruction_at,
    rescaled_connection,
    sample_null_vectors,
    sample_points,
    trace_vector,
)
from conproj.compatibility import NullVector
from conproj.sampling import SplitMix64
from helpers import drift_doc, flat_doc, round_trip_doc


def identity_metric(n, order=2):
    return MetricValue(
        [
            [constant(1.0 if i == j else 0.0, n, order) for j in range(n)]
            for i in range(n)
        ]
    )


def flat_phi_setup():
    """Flat 2-d metric with the connection of exp(2*x1)-rescaled flat space."""
    g = identity_metric(2)
    phi = coordinate(0, (0.0, 0.0))
    gamma = rescaled_connection(g, phi)
    return g, gamma


def test_compat_tensor_vanishes_for_own_connection():
    scn = load_scenario(flat_doc(2))
    g = metric_at(scn, (0.3, -0.2), 2)
    T = compat_tensor(g, connection_at(scn, (0.3, -0.2), 1))
    assert all(abs(T[i][j][k].value) == 0.0 for i in range(2) for j in range(2) for k in range(2))


def test_compat_tensor_hand_values():
    g, gamma = flat_phi_setup()
    T = compat_tensor(g, gamma)
    tv = np.array([[[T[i][j][k].value for k in range(2)] for j in range(2)] for i in range(2)])
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0 / 3.0
    expected[0, 1, 1] = 1.0
    expected[1, 0, 1] = expected[1, 1, 0] = -1.0 / 3.0
    assert np.allclose(tv, expected, atol=1e-15)
    # trace inherited from the trace-free projection
    assert abs(sum(T[p][p][0].value for p in range(2))) <= 1e-12
    assert abs(sum(T[p][p][1].value for p in range(2))) <= 1e-12


def test_trace_vector_hand_values():
    g, gamma = flat_phi_setup()
    T = compat_tensor(g, gamma)
    t_up, t_down = trace_vector(g, T)
    # coefficient (n+1)/((n+2)(n-1)) = 3/4 and (3/4)(1/3 + 1) = 1
    assert np.allclose(t_up.values(), [1.0, 0.0])
    assert np.allclose(t_down.values(), [1.0, 0.0])

    zero_T = [[[constant(0.0, 2, 1)] * 2 for _ in range(2)] for _ in range(2)]
    up, down = trace_vector(g, zero_T)
    assert not up.values().any() and not down.values().any()


def test_condition_a_hand_values():
    g, gamma = flat_phi_setup()
    T = compat_tensor(g, gamma)
    t_up, t_down = trace_vector(g, T)
    a = condition_a_residual(g, T, t_up, t_down)
    # spot slot (0,0,0): 1/3 - 1 + 1/3 + 1/3 = 0, and every other slot too
    assert np.max(np.abs(a)) < 1e-15

    zero_T = [[[constant(0.0, 2, 1)] * 2 for _ in range(2)] for _ in range(2)]
    up, down = trace_vector(g, zero_T)
    assert not condition_a_residual(g, zero_T, up, down).any()


def test_condition_b_hand_values():
    g, gamma = flat_phi_setup()
    T = compat_tensor(g, gamma)
    _, t_down = trace_vector(g, T)
    b = condition_b_residual(t_down)
    assert not b.any()  # T_i constant here

    with pytest.raises(ValueError):
        condition_b_residual(
            type(t_down)([constant(1.0, 2, 0), constant(0.0, 2, 0)])
        )


def test_drift_scenario_obstruction_values():
    scn = load_scenario(drift_doc())
    point = (0.3, 0.7, -0.2)
    obs = obstruction_at(scn, point)
    # T equals the trace-free projection of S^i g_jk for this family
    s = np.array([0.0, 0.0, point[1]])
    gv = np.diag([-1.0, 1.0, 1.0])
    outer = np.einsum("i,jk->ijk", s, gv)
    s_down = gv @ s
    expected = outer.copy()
    idx = np.arange(3)
    expected[idx, idx, :] -= s_down / 4.0
    expected[idx, :, idx] -= s_down / 4.0
    tv = np.array(
        [[[obs.T[i][j][k].value for k in range(3)] for j in range(3)] for i in range(3)]
    )
    assert np.allclose(tv, expected, atol=1e-14)
    # the drift field reappears as the trace vector
    assert np.allclose(obs.t_up.values(), [0.0, 0.0, 0.7], atol=1e-14)
    assert np.allclose(obs.t_down.values(), [0.0, 0.0, 0.7], atol=1e-14)
    # algebraic condition holds exactly, closedness fails with unit defect
    assert np.max(np.abs(obs.a)) <= 1e-14
    assert math.isclose(obs.b[1, 2], 1.0)
    assert math.isclose(obs.b[2, 1], -1.0)
    assert np.max(np.abs(obs.b)) == 1.0
    assert obs.scale == 1.0
    # B is exactly antisymmetric
    assert (obs.b == -obs.b.T).all()


def test_condition_a_trace_consistency():
    # substituting the defining trace vector back into (A) leaves a
    # g^{jk}-traceless array
    rng = np.random.default_rng(41)
    doc, _ = round_trip_doc(rng, 3)
    scn = load_scenario(doc)
    for point in [(0.1, 0.2, -0.3), (-0.6, 0.4, 0.5)]:
        obs = obstruction_at(scn, point)
        ginv = invert_metric(obs.metric).values()
        trace = np.einsum("jk,ijk->i", ginv, obs.a)
        assert np.max(np.abs(trace)) <= 1e-10
        # A is symmetric in its two lower slots
        assert np.max(np.abs(obs.a - obs.a.transpose(0, 2, 1))) == 0.0


def test_sample_null_vectors_definite_is_empty():
    g = identity_metric(2)
    assert sample_null_vectors(g, 4, SplitMix64(1)) == []


def test_sample_null_vectors_minkowski_two_d():
    g = MetricValue(
        [
            [constant(-1.0, 2), constant(0.0, 2)],
            [constant(0.0, 2), constant(1.0, 2)],
        ]
    )
    vectors = sample_null_vectors(g, 6, SplitMix64(5))
    assert len(vectors) == 6
    for nv in vectors:
        u = nv.u / np.max(np.abs(nv.u))
        # the 2-d cone is the pair of lines u2 = +/- u1
        assert math.isclose(abs(u[0]), abs(u[1]), rel_tol=1e-12)
        quad = float(u @ g.values() @ u)
        assert abs(quad) <= 1e-10 * float(u @ u)


def test_sample_null_vectors_degenerate():
    g = MetricValue(
        [
            [constant(1.0, 2), constant(1.0, 2)],
            [constant(1.0, 2), constant(1.0, 2)],
        ]
    )
    with pytest.raises(DegenerateMetric):
        sample_null_vectors(g, 2, SplitMix64(1))


def test_eps_residual_cases():
    scn = load_scenario(drift_doc())
    point = (0.2, -0.5, 0.8)
    g = metric_at(scn, point, 2)
    gamma = connection_at(scn, point, 1)
    nulls = sample_null_vectors(g, 6, SplitMix64(3))
    assert nulls
    for nv in nulls:
        assert eps_residual(g, gamma, nv) <= 1e-12

    assert eps_residual(g, christoffel(g), nulls[0]) == 0.0

    # hand case: flat Minkowski, Gamma with only G^1_22 = 1, u = (1, 1):
    # d = (-1, 0); removing the u-parallel part leaves (-1/2, 1/2)
    g2 = MetricValue(
        [
            [constant(-1.0, 2), constant(0.0, 2)],
            [constant(0.0, 2), constant(1.0, 2)],
        ]
    )
    comps = [[[constant(0.0, 2, 1)] * 2 for _ in range(2)] for _ in range(2)]
    comps[0][1][1] = constant(1.0, 2, 1)
    from conproj import ConnectionValue

    gamma2 = ConnectionValue(comps)
    u = NullVector(point=None, u=np.array([1.0, 1.0]))
    residual = eps_residual(g2, gamma2, u)
    assert math.isclose(residual, 0.25)
    assert residual > 0.0

    with pytest.raises(ValueError):
        eps_residual(g2, gamma2, np.zeros(2))


def test_check_round_trip_scenario_compatible():
    rng = np.random.default_rng(47)
    doc, _ = round_trip_doc(rng, 2, samples=15)
    report = check_compatibility(load_scenario(doc))
    assert report.verdict == "compatible"
    assert report.max_a <= 1e-9 and report.max_b <= 1e-9
    assert report.eps_verdict == "vacuous"  # Riemannian box


def test_check_drift_scenario_fails_b():
    report = check_compatibility(load_scenario(drift_doc(samples=40)))
    assert report.verdict == "fails_B"
    assert report.eps_verdict == "holds"
    assert report.max_a <= 1e-10
    assert abs(report.max_b - 1.0) <= 1e-9
    assert report.null_vectors >= 100
    assert report.worst and report.worst[0].b == report.max_b


def test_check_levi_civita_scenario_trivially_compatible():
    report = check_compatibility(load_scenario(flat_doc(2, samples=10)))
    assert report.verdict == "compatible"
    assert report.max_a <= 1e-12 and report.max_b <= 1e-12


def test_check_compatible_lorentzian_scenario_satisfies_eps():
    rng = np.random.default_rng(53)
    doc, _ = round_trip_doc(rng, 3, samples=12, lorentzian=True)
    report = check_compatibility(load_scenario(doc))
    assert report.verdict == "compatible"
    assert report.eps_verdict == "holds"
    assert report.null_vectors > 0


def test_degenerate_sampling_is_fatal_when_frequent():
    doc = flat_doc(2, samples=30)
    doc["metric"] = [["1", "x1"], [None, "x1^2"]]  # rank one everywhere
    doc["connection"] = {"kind": "explicit", "gamma": [[["0", "0"], [None, "0"]]] * 2}
    scn = load_scenario(doc)
    with pytest.raises(DegenerateMetric):
        check_compatibility(scn)


def test_report_is_deterministic():
    scn = load_scenario(drift_doc(samples=15))
    first = check_compatibility(scn)
    second = check_compatibility(scn)
    assert first == second


def test_domain_error_names_first_bad_point_in_sample_order():
    doc = flat_doc(2, samples=40, seed=3)
    doc["metric"] = [["exp(sqrt(x1))", "0"], [None, "1"]]
    doc["connection"] = {"kind": "explicit", "gamma": [[["0", "0"], [None, "0"]]] * 2}
    scn = load_scenario(doc)
    with pytest.raises(DomainError) as excinfo:
        check_compatibility(scn)
    first_bad = next(p for p in sample_points(scn) if p[0] <= 0.0)
    assert excinfo.value.path == "sqrt(x1)"
    assert excinfo.value.point == first_bad


def test_single_degenerate_point_is_skipped_with_its_det():
    doc = flat_doc(2, samples=150, seed=11)
    probe = sample_points(load_scenario(doc))
    bad_index = 37
    # the metric degenerates exactly at one sample point
    cut = f"(x1 - {probe[bad_index][0]!r})^2"
    doc["metric"] = [["1", "0"], [None, cut]]
    doc["connection"] = {"kind": "levi_civita", "metric": doc["metric"]}
    report = check_compatibility(load_scenario(doc))
    assert report.skipped == ((probe[bad_index], 0.0),)
    assert len(report.per_point) == 149
    assert probe[bad_index] not in [s.point for s in report.per_point]
    assert report.verdict == "compatible"
    assert report.max_a == max(s.a for s in report.per_point)
    assert report.max_b == max(s.b for s in report.per_point)


def test_per_point_summaries_do_not_depend_on_sample_count():
    rng = np.random.default_rng(59)
    doc, _ = round_trip_doc(rng, 3, samples=40, lorentzian=True)
    scn = load_scenario(doc)
    full = check_compatibility(scn).per_point
    for k in (1, 7):
        part = check_compatibility(scn, samples=k).per_point
        for small, large in zip(part, full[:k]):
            assert small.point == large.point
            for name in ("a", "b", "eps", "scale"):
                x, y = getattr(small, name), getattr(large, name)
                assert abs(x - y) <= 1e-14 * max(1.0, abs(y)), (name, x, y)


def test_overflowing_metric_raises_domain_error_at_first_overflow():
    doc = flat_doc(2, samples=40, seed=3)
    doc["metric"] = [["1 + exp(800*x1)", "0"], [None, "1 + exp(800*x1)"]]
    doc["connection"] = {"kind": "explicit", "gamma": [[["0", "0"], [None, "0"]]] * 2}
    scn = load_scenario(doc)
    with pytest.raises(DomainError) as excinfo:
        check_compatibility(scn)
    threshold = math.log(sys.float_info.max) / 800.0
    assert excinfo.value.path == "exp(800.0*x1)"
    assert excinfo.value.point == next(p for p in sample_points(scn) if p[0] > threshold)
