import math

import numpy as np
import pytest

from conproj import (
    ConnectionValue,
    DegenerateMetric,
    Jet,
    MetricValue,
    ObstructionData,
    OneFormValue,
    ThomasValue,
    christoffel,
    conformal_rescale_metric,
    connection_at,
    constant,
    coordinate,
    eval_expr,
    invert_metric,
    load_scenario,
    metric_at,
    parse_expression,
    projective_transform,
    rescaled_connection,
    thomas_symbol,
)
from conproj import jets
from conproj.geometry import connection_traces, drift, drift_traces
from helpers import (
    assert_componentwise_close,
    flat_doc,
    polynomial,
    product_rule,
    round_trip_doc,
    stack,
)


def metric_from_exprs(entries, coords, point, order=2):
    n = len(entries)
    cells = [
        eval_expr(parse_expression(entries[i][j], coords), point, order)
        for i in range(n)
        for j in range(n)
    ]
    return MetricValue(stack(cells, (n, n)), point=point)


def jet_matrix(values, n, order=2):
    return Jet(n, order, np.array(values, dtype=float))


def assert_symmetric_in_the_lower_slots(gamma):
    for part in (gamma.jet.value, gamma.jet.gradient):
        assert np.array_equal(part, np.swapaxes(part, 1, 2))


def test_value_classes_wrap_one_tensor_jet():
    nested = [[constant(1.0, 2), constant(0.0, 2)], [constant(0.0, 2), constant(1.0, 2)]]
    with pytest.raises(TypeError):
        MetricValue(nested)
    with pytest.raises(ValueError, match="2 axes of length n = 2"):
        MetricValue(Jet(2, 2, np.eye(3)))
    with pytest.raises(ValueError):
        ConnectionValue(Jet(2, 1, np.zeros((2, 2))))
    with pytest.raises(ValueError):
        OneFormValue(Jet(2, 1, 1.0))
    # leading axes index points
    g = MetricValue(Jet(2, 1, np.broadcast_to(np.eye(2), (5, 2, 2))))
    assert g.n == 2 and g.order == 1 and g.values().shape == (5, 2, 2)
    assert not hasattr(ObstructionData, "T")


def test_invert_diagonal_involution():
    g = MetricValue(jet_matrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], 3))
    inv = invert_metric(g)
    assert np.allclose(inv.values(), np.diag([-1.0, 1.0, 1.0]))


def test_invert_two_by_two_closed_form():
    # [[1, x], [x, 1]] at x = 0.5 inverts to [[1, -x], [-x, 1]]/(1 - x^2),
    # including the derivative of every entry.
    coords = ("x", "y")
    point = (0.5, 0.0)
    g = metric_from_exprs([["1", "x"], ["x", "1"]], coords, point)
    inv = invert_metric(g)
    d = 1.0 - 0.25
    assert_componentwise_close(
        inv.values(), np.array([[1.0, -0.5], [-0.5, 1.0]]) / d, 1e-14
    )
    # d/dx of the closed form at x = 0.5
    x = 0.5
    dd = 2.0 * x / d**2  # d/dx (1/(1-x^2))
    expected_00 = dd
    expected_01 = -(d + x * 2.0 * x) / d**2
    assert math.isclose(inv.jet.gradient[0, 0, 0], expected_00, rel_tol=1e-12)
    assert math.isclose(inv.jet.gradient[0, 1, 0], expected_01, rel_tol=1e-12)


def test_invert_degenerate():
    for values in ([[1, 1], [1, 1]], [[-1e12, 0], [0, 1]]):
        g = MetricValue(jet_matrix(values, 2))
        with pytest.raises(DegenerateMetric):
            invert_metric(g)


def test_invert_reads_degeneracy_off_the_condition_number():
    # condition numbers 1e4 and 1e6, far under 1 / DEFAULT_RANK_TOL, though
    # |det| falls under DEFAULT_RANK_TOL * max|g_ij|^n
    for diag in ([-1e4, 1, 1, 1], [-1e6, 1, 1]):
        inv = invert_metric(MetricValue(jet_matrix(np.diag(diag), len(diag))))
        assert np.array_equal(inv.values(), np.diag(1.0 / np.array(diag)))
    for scale in (8e-309, 1e-200, 1e200):
        inv = invert_metric(MetricValue(jet_matrix(scale * np.diag([-1.0, 1, 1, 1]), 4)))
        assert np.allclose(inv.values() * scale, np.diag([-1.0, 1, 1, 1]), rtol=1e-15)
    # a representable inverse and derivative, though the sum of a part and its
    # transpose overflows
    inv = invert_metric(MetricValue(Jet(2, 0, np.diag([8e-309, 8e-309]))))
    assert inv.values().tolist() == [[1 / 8e-309, 0.0], [0.0, 1 / 8e-309]]
    gradient = np.zeros((2, 2, 2))
    gradient[0, 0, 0] = 1.5e308
    inv = invert_metric(MetricValue(Jet(2, 1, np.eye(2), gradient)))
    assert inv.jet.gradient.tolist() == (-gradient).tolist()


def stacked(values):
    """One value class over the stack of the same class's values at single points."""
    return type(values[0])(jets._wrap(values[0].n, values[0].order,
                                      np.stack([v.jet.data for v in values])))


def test_geometry_calls_on_a_stack_of_points_match_the_calls_at_each_point():
    coords = ("x", "y")
    entries = [["2 + x*y", "0.3*x"], ["0.3*x", "-1 + y*y"]]
    points = [(0.1, 0.2), (-0.4, 0.5), (0.7, -0.3)]
    gs = [metric_from_exprs(entries, coords, p) for p in points]
    phis = [eval_expr(parse_expression("0.2*x*y + y", coords), p, 2) for p in points]
    g, phi = stacked(gs), jets._wrap(2, 2, np.stack([f.data for f in phis]))
    inv = invert_metric(g)
    for i, gi in enumerate(gs):
        assert np.array_equal(inv.jet.data[i], invert_metric(gi).jet.data)
    for many, each in ((christoffel(g), [christoffel(gi) for gi in gs]),
                       (rescaled_connection(g, phi),
                        [rescaled_connection(gi, fi) for gi, fi in zip(gs, phis)])):
        assert many.jet.data.shape == (3,) + each[0].jet.data.shape
        assert np.allclose(many.jet.data, stacked(each).jet.data, rtol=0.0, atol=1e-15)


def test_invert_metric_on_a_stack_raises_with_the_first_degenerate_point():
    # the det of the first degenerate point, as that point alone raises it
    for values, first in (([np.eye(2), [[-1e12, 0], [0, 1]], [[1e12, 0], [0, 1]]], 1),
                          ([[[1e12, 0], [0, 1]], np.eye(2), [[-1e12, 0], [0, 1]]], 0),
                          ([np.eye(2), np.eye(2), [[1, 1], [1, 1]]], 2)):
        values = np.array(values, dtype=float)
        with pytest.raises(DegenerateMetric) as alone:
            invert_metric(MetricValue(Jet(2, 1, values[first])))
        with pytest.raises(DegenerateMetric) as caught:
            invert_metric(MetricValue(Jet(2, 1, values)))
        assert caught.value.det == alone.value.det and str(caught.value) == str(alone.value)


def test_drift_is_the_connection_less_the_outer_product_rule():
    # Gamma^i_jk - s^i g_jk over 4 points against one point, at orders 0-2, bit for bit
    rng = np.random.default_rng(26)
    n = 3
    for order in (0, 1, 2):
        k = jets._width(n, order)
        gamma = jets._wrap(n, order, rng.normal(size=(4, n, n, n, k)))
        s = jets._wrap(n, order, rng.normal(size=(4, n, k)))
        g = jets._wrap(n, 2, rng.normal(size=(n, n, jets._width(n, 2))))
        out = drift(gamma, s, g)
        assert out.order == order
        assert np.array_equal(out.data, gamma.data - product_rule("i,jk->ijk", s, g).data)


def test_drift_traces_are_the_traces_of_the_drift_tensor():
    # the identities (g_ij s^j g^kl h_kl, h_ij s^j) against connection_traces of s (x) h
    rng = np.random.default_rng(36)
    n = 3
    for order in (0, 1):
        k, k1 = jets._width(n, order), jets._width(n, order + 1)
        h = rng.normal(size=(4, n, n, k1))
        h = jets._wrap(n, order + 1, h + h.swapaxes(-3, -2))  # h_jk symmetric
        s = jets._wrap(n, order, rng.normal(size=(4, n, k)))
        g = jets._wrap(n, order + 1, rng.normal(size=(4, n, n, k1)))
        ginv = jets._wrap(n, order, rng.normal(size=(4, n, n, k)))
        zero = jets._wrap(n, order, np.zeros((4, n, n, n, k)))
        expected = connection_traces(drift(zero, s, h), g, ginv).data
        out = drift_traces(s, h, g, ginv)
        assert out.order == order
        np.testing.assert_allclose(out.data, -expected, rtol=1e-12, atol=1e-12)


def test_jet_inverse_is_two_sided_identity():
    rng = np.random.default_rng(3)
    coords = ("u", "v", "w")
    for _ in range(5):
        entries = [
            [
                ("1 + " if i == j else "") + polynomial(rng, coords, scale=0.1, max_terms=3)
                for j in range(3)
            ]
            for i in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                entries[j][i] = entries[i][j]
        point = tuple(rng.uniform(-1, 1, size=3))
        g = metric_from_exprs(entries, coords, point)
        inv = invert_metric(g)
        product = product_rule("ip,pj->ij", g.jet, inv.jet)
        assert np.max(np.abs(product.value - np.eye(3))) < 1e-12
        assert np.max(np.abs(product.gradient)) < 1e-11
        assert np.max(np.abs(product.hessian)) < 1e-10


def test_christoffel_flat():
    g = MetricValue(jet_matrix([[1, 0], [0, 1]], 2))
    gamma = christoffel(g)
    assert gamma.order == 1
    assert not gamma.values().any()
    with pytest.raises(ValueError, match="order >= 1"):
        christoffel(MetricValue(jet_matrix([[1, 0], [0, 1]], 2, order=0)))


def test_christoffel_round_sphere():
    # Metric diag(1, sin(t)^2) in coordinates (t, p): the nonzero symbols
    # are G^1_22 = -sin t cos t and G^2_12 = cos t / sin t.
    coords = ("t", "p")
    point = (1.0, 0.3)
    g = metric_from_exprs([["1", "0"], ["0", "sin(t)^2"]], coords, point)
    gamma = christoffel(g)
    vals = gamma.values()
    s, c = math.sin(1.0), math.cos(1.0)
    assert math.isclose(vals[0, 1, 1], -s * c, rel_tol=1e-13)
    assert math.isclose(vals[1, 0, 1], c / s, rel_tol=1e-13)
    assert abs(vals[0, 1, 1] - (-0.45465)) < 1e-5
    assert abs(vals[1, 0, 1] - 0.64209) < 1e-5
    assert vals[1, 0, 1] == vals[1, 1, 0]
    # exact lower-slot symmetry by construction
    assert_symmetric_in_the_lower_slots(gamma)


def test_christoffel_preserves_metric():
    # d_k g_ij - G^p_ki g_pj - G^p_kj g_ip = 0 for random polynomial metrics
    rng = np.random.default_rng(17)
    coords = ("u", "v")
    for _ in range(8):
        entries = [["", ""], ["", ""]]
        entries[0][0] = "1 + " + polynomial(rng, coords, scale=0.15, max_terms=3)
        entries[1][1] = "1 + " + polynomial(rng, coords, scale=0.15, max_terms=3)
        entries[0][1] = entries[1][0] = polynomial(rng, coords, scale=0.1, max_terms=2)
        point = tuple(rng.uniform(-1, 1, size=2))
        g = metric_from_exprs(entries, coords, point)
        gamma = christoffel(g)
        gv = g.values()
        cv = gamma.values()
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    dkg = g.jet.gradient[i, j, k]
                    correction = sum(
                        cv[p, k, i] * gv[p, j] + cv[p, k, j] * gv[i, p] for p in range(2)
                    )
                    assert abs(dkg - correction) < 1e-10


def test_conformal_rescale_identity_and_gradient():
    g = MetricValue(jet_matrix([[1, 0], [0, 1]], 2))
    phi0 = constant(0.0, 2)
    assert np.allclose(conformal_rescale_metric(g, phi0).values(), np.eye(2))

    phi = coordinate(0, (0.0, 0.0))
    scaled = conformal_rescale_metric(g, phi)
    assert np.allclose(scaled.values(), np.eye(2))
    assert scaled.jet.gradient[0, 0, 0] == 2.0  # d/dx exp(2x) at 0

    back = conformal_rescale_metric(scaled, -phi)
    assert_componentwise_close(back.values(), np.eye(2), 1e-14)
    with pytest.raises(ValueError, match="dimension mismatch"):
        conformal_rescale_metric(g, constant(0.0, 3))


def test_rescaled_connection_flat_example():
    g = MetricValue(jet_matrix([[1, 0], [0, 1]], 2))
    phi = coordinate(0, (0.0, 0.0))
    gamma = rescaled_connection(g, phi)
    vals = gamma.values()
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[0, 1, 1] = -1.0
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0
    assert np.allclose(vals, expected)

    const = rescaled_connection(g, constant(3.0, 2))
    assert not const.values().any()
    with pytest.raises(ValueError, match="order >= 1"):
        rescaled_connection(g, constant(3.0, 2, order=0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        rescaled_connection(g, constant(3.0, 3))


def test_rescaled_connection_cross_validates_with_rescale_then_christoffel():
    rng = np.random.default_rng(23)
    coords = ("u", "v", "w")
    for _ in range(6):
        entries = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                pert = polynomial(rng, coords, scale=0.08, max_terms=2)
                entries[i][j] = entries[j][i] = (f"1 + {pert}" if i == j else pert)
        point = tuple(rng.uniform(-1, 1, size=3))
        g = metric_from_exprs(entries, coords, point)
        phi = eval_expr(
            parse_expression(polynomial(rng, coords, scale=0.3, max_terms=3), coords),
            point,
        )
        direct = rescaled_connection(g, phi)
        via_metric = christoffel(conformal_rescale_metric(g, phi))
        assert_componentwise_close(direct.values(), via_metric.values(), 1e-9)


def test_projective_transform_values_and_symmetry():
    zero = ConnectionValue(Jet(2, 1, np.zeros((2, 2, 2))))
    psi = OneFormValue(Jet(2, 1, [1.0, 0.0]))
    out = projective_transform(zero, psi)
    vals = out.values()
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 2.0
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0
    assert np.allclose(vals, expected)
    assert_symmetric_in_the_lower_slots(out)

    unchanged = projective_transform(zero, OneFormValue(Jet(2, 1, np.zeros(2))))
    assert not unchanged.values().any()
    with pytest.raises(ValueError, match="dimension mismatch"):
        projective_transform(zero, OneFormValue(Jet(3, 1, np.zeros(3))))


def test_thomas_symbol_laws():
    zero = ConnectionValue(Jet(2, 1, np.zeros((2, 2, 2))))
    assert not thomas_symbol(zero).components.any()
    with pytest.raises(ValueError, match=r"n\*n\*n array"):
        ThomasValue(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="trace-free invariant violated"):
        ThomasValue(np.ones((2, 2, 2)))

    psi = OneFormValue(Jet(2, 1, [1.0, 0.0]))
    shifted = projective_transform(zero, psi)
    assert np.max(np.abs(thomas_symbol(shifted).components)) < 1e-15

    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        gamma = _random_connection(rng, n)
        psi = OneFormValue(Jet(n, 1, [float(rng.uniform(-2, 2)) for _ in range(n)]))
        pi = thomas_symbol(gamma).components
        assert np.max(np.abs(np.einsum("ppk->k", pi))) <= 1e-12
        assert np.max(np.abs(np.einsum("pjp->j", pi))) <= 1e-12
        pi_shifted = thomas_symbol(projective_transform(gamma, psi)).components
        assert np.max(np.abs(pi - pi_shifted)) <= 1e-12


def _random_connection(rng, n):
    values = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                values[i, j, k] = values[i, k, j] = float(rng.uniform(-2, 2))
    return ConnectionValue(Jet(n, 1, values))


def test_thomas_symbol_compares_projective_classes():
    scn = load_scenario(flat_doc(2))
    doc = flat_doc(2)
    doc["connection"] = {
        "kind": "projective_transform",
        "base": {"kind": "levi_civita", "metric": [["1", "0"], ["0", "1"]]},
        "psi": ["0.3*x1", "x2 - 0.5"],
    }
    shifted = load_scenario(doc)
    for point in [(0.1, 0.2), (-0.5, 0.7), (0.9, -0.3)]:
        pi_base = thomas_symbol(connection_at(scn, point, 0)).components
        pi_shifted = thomas_symbol(connection_at(shifted, point, 0)).components
        assert np.max(np.abs(pi_base - pi_shifted)) < 1e-12

    bent_values = np.zeros((2, 2, 2))
    bent_values[0, 1, 1] = 1.0
    bent = ConnectionValue(Jet(2, 0, bent_values))
    flat = ConnectionValue(Jet(2, 0, np.zeros((2, 2, 2))))
    deviation = np.max(np.abs(thomas_symbol(flat).components - thomas_symbol(bent).components))
    assert math.isclose(deviation, 1.0)


def test_e_dig_identity_holds_for_scenario_metrics():
    rng = np.random.default_rng(31)
    doc, _ = round_trip_doc(rng, 3)
    scn = load_scenario(doc)
    point = (0.2, -0.4, 0.6)
    g = metric_at(scn, point, 2)
    phi = eval_expr(parse_expression("0.2*x1 - 0.3*x2*x3", scn.coordinates), point)
    assert_componentwise_close(
        rescaled_connection(g, phi).values(),
        christoffel(conformal_rescale_metric(g, phi)).values(),
        1e-9,
    )
