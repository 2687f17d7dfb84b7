import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conproj import (
    DomainError,
    Jet,
    apply_function,
    constant,
    coordinate,
    eval_expr,
    parse_expression,
    partial_derivative,
)
from conproj import jets
from helpers import assert_componentwise_close, fd_gradient, fd_hessian, random_expression

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def test_constant_components():
    j = constant(5.0, 2, 2)
    assert j.value == 5.0
    assert not j.gradient.any()
    assert not j.hessian.any()
    z = constant(0.0, 3, 1)
    assert z.value == 0.0 and z.hessian is None
    j0 = constant(-1.5, 2, 0)
    assert j0.value == -1.5 and j0.gradient is None


def test_constant_rejects_non_finite():
    with pytest.raises(DomainError):
        constant(float("inf"), 2, 2)


def test_coordinate_seed():
    j = coordinate(0, (2.0, 3.0), 2)
    assert j.value == 2.0
    assert j.gradient.tolist() == [1.0, 0.0]
    assert not j.hessian.any()
    k = coordinate(1, (2.0, 3.0), 1)
    assert k.value == 3.0 and k.gradient.tolist() == [0.0, 1.0]
    with pytest.raises(IndexError):
        coordinate(2, (0.0, 0.0), 2)
    for order in (3, -1):
        with pytest.raises(ValueError, match="jet order must be 0, 1 or 2"):
            coordinate(0, (1.0,), order)


def test_product_rule_hand_expansion():
    # x*y at (2, 3): value 6, gradient (3, 2), Hessian off-diagonal 1.
    x = coordinate(0, (2.0, 3.0))
    y = coordinate(1, (2.0, 3.0))
    p = x * y
    assert p.value == 6.0
    assert p.gradient.tolist() == [3.0, 2.0]
    assert p.hessian.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_additive_identity_and_pole():
    x = coordinate(0, (1.5, 0.0))
    s = x + 0
    assert s.value == x.value and s.gradient.tolist() == x.gradient.tolist()
    with pytest.raises(DomainError):
        1.0 / coordinate(0, (0.0,))


def test_mixed_order_takes_minimum():
    a = coordinate(0, (1.0, 2.0), 2)
    b = coordinate(1, (1.0, 2.0), 1)
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        coordinate(0, (1.0,)) + coordinate(0, (1.0, 2.0))


def test_exp_at_zero():
    j = apply_function(coordinate(0, (0.0,)), "exp")
    assert j.value == 1.0
    assert j.gradient.tolist() == [1.0]
    assert j.hessian.tolist() == [[1.0]]


def test_sin_cos_chain_rule_hand_expansion():
    x = coordinate(0, (0.0, 0.0))
    y = coordinate(1, (0.0, 0.0))
    j = apply_function(x, "sin") * apply_function(y, "cos")
    assert j.value == 0.0
    assert j.gradient.tolist() == [1.0, 0.0]
    assert not j.hessian.any()


def test_log_domain():
    with pytest.raises(DomainError):
        apply_function(constant(-1.0, 1), "log")
    with pytest.raises(DomainError):
        apply_function(constant(0.0, 1), "sqrt")


def test_partial_derivative_of_square():
    x = coordinate(0, (3.0,))
    sq = x * x
    d = partial_derivative(sq, 0)
    assert d.order == 1
    assert d.value == 6.0
    assert d.gradient.tolist() == [2.0]
    z = partial_derivative(constant(4.0, 2, 1), 0)
    assert z.order == 0 and z.value == 0.0
    with pytest.raises(ValueError):
        partial_derivative(constant(1.0, 2, 0), 0)


def test_integer_power_lowering():
    x = coordinate(0, (-2.0,))
    assert (x**2).value == 4.0
    assert (x**3).value == -8.0
    assert (x**-1).value == -0.5
    assert (x**0).value == 1.0
    # fractional power of a negative base has no real branch
    with pytest.raises(DomainError):
        x**0.5
    y = coordinate(0, (2.0,))
    assert math.isclose((y**0.5).value, math.sqrt(2.0))
    with pytest.raises(DomainError):
        y ** 10**6


def test_integer_power_squares_repeatedly(monkeypatch):
    from conproj import jets

    mul, calls = jets.mul, []

    def counting_mul(*args, **kwargs):
        calls.append(1)
        return mul(*args, **kwargs)

    x1, k = 0.3, 9999
    base = coordinate(0, (x1, 0.2)) * 1e-4 + 1.0
    monkeypatch.setattr(jets, "mul", counting_mul)
    j = jets.power(base, k)
    assert len(calls) <= 28
    calls.clear()
    jets.power(base, 2)
    assert len(calls) == 1
    b = 1.0 + 1e-4 * x1
    expected = [b**k, k * b ** (k - 1) * 1e-4, k * (k - 1) * b ** (k - 2) * 1e-8]
    for got, want in zip((j.value, j.gradient[0], j.hessian[0, 0]), expected):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert not j.gradient[1] and not j.hessian[1].any()


def test_jet_exponent():
    x = coordinate(0, (2.0, 1.0))
    y = coordinate(1, (2.0, 1.0))
    j = x**y
    assert math.isclose(j.value, 2.0)
    # d/dy x^y = x^y log x
    assert math.isclose(j.gradient[1], 2.0 * math.log(2.0))


def test_jet_difference_quotient_and_power_of_a_number():
    # x - y, 1 - x, x / y and 2^x at (2, 3) against their closed forms
    x = coordinate(0, (2.0, 3.0))
    y = coordinate(1, (2.0, 3.0))
    d = x - y
    assert d.value == -1.0 and d.gradient.tolist() == [1.0, -1.0] and not d.hessian.any()
    assert (1.0 - x).gradient.tolist() == [-1.0, 0.0]
    q = x / y  # gradient (1/y, -x/y^2), Hessian [[0, -1/y^2], [-1/y^2, 2x/y^3]]
    assert_componentwise_close(q.value, 2.0 / 3.0, 1e-15)
    assert_componentwise_close(q.gradient, [1.0 / 3.0, -2.0 / 9.0], 1e-15)
    assert_componentwise_close(q.hessian, [[0.0, -1.0 / 9.0], [-1.0 / 9.0, 4.0 / 27.0]], 1e-15)
    e = 2.0**x  # d/dx 2^x = 2^x log 2
    log2 = math.log(2.0)
    assert_componentwise_close(e.value, 4.0, 1e-15)
    assert_componentwise_close(e.gradient, [4.0 * log2, 0.0], 1e-15)
    assert_componentwise_close(e.hessian, [[4.0 * log2**2, 0.0], [0.0, 0.0]], 1e-15)


def test_jet_repr_lists_its_components():
    assert repr(constant(1.5, 2, 0)) == "Jet(n=2, order=0, value=1.5)"
    assert repr(coordinate(1, (2.0, 3.0), 2)) == (
        "Jet(n=2, order=2, value=3.0, gradient=[0.0, 1.0], hessian=[[0.0, 0.0], [0.0, 0.0]])"
    )
    assert repr(Jet(2, 1, [1.0, 2.0])) == (
        "Jet(n=2, order=1, value=[1.0, 2.0], gradient=[[0.0, 0.0], [0.0, 0.0]])"
    )


def test_jet_copies_its_inputs():
    value, gradient, hessian = np.array([1.0, 2.0]), np.ones((2, 2)), np.zeros((2, 2, 2))
    j = Jet(2, 2, value, gradient, hessian)
    value[0] = gradient[0, 0] = hessian[0, 0, 1] = 7.0
    assert j.value.tolist() == [1.0, 2.0]
    assert j.gradient.tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert not j.hessian.any()


def test_components_are_views_of_one_packed_array():
    j = coordinate(1, [(2.0, 3.0), (4.0, 5.0)], 2) * 2.0 + 1.0
    assert j.data.shape == (2, 1 + 2 + 4)
    assert j.data[:, 0].tolist() == j.value.tolist() == [7.0, 11.0]
    assert j.data[:, 1:3].tolist() == j.gradient.tolist() == [[0.0, 2.0], [0.0, 2.0]]
    for part in (j.value, j.gradient, j.hessian):
        assert np.shares_memory(part, j.data)
    t = jets.truncate(j, 1)
    assert t.hessian is None and np.shares_memory(t.data, j.data) and t.data.shape == (2, 3)


def test_hessian_symmetrized_on_write():
    j = Jet(2, 2, 1.0, [1.0, 2.0], [[0.0, 2.0], [0.0, 0.0]])
    assert j.hessian.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_overflow_is_domain_error():
    big = constant(1e308, 1)
    with pytest.raises(DomainError):
        big * big
    with pytest.raises(DomainError):
        apply_function(constant(1000.0, 1), "exp")
    with pytest.raises(DomainError, match="exp overflow"):
        apply_function(Jet(1, 1, 710.0, [1.0]), "exp")
    # Finite parts whose sum overflows are no overflow, and leak no warning.
    jet = eval_expr(parse_expression("1e308*x1 - 1e308*x2", ["x1", "x2"]), (1.0, 1.0), 1)
    assert jet.value == 0.0 and jet.gradient.tolist() == [1e308, -1e308]
    assert Jet(1, 1, 1e308, [1e308]).gradient.tolist() == [1e308]
    assert Jet(1, 2, 1.0, [0.0], [[1.5e308]]).hessian.tolist() == [[1.5e308]]
    jet = apply_function(Jet(1, 1, 709.7, [1.0]), "exp")
    assert jet.value == np.exp(709.7) and jet.gradient.tolist() == [jet.value]


@settings(max_examples=80, deadline=None)
@given(a=finite, b=finite, c=finite)
def test_ring_laws(a, b, c):
    p = (0.7, -0.4)
    x = coordinate(0, p)
    y = coordinate(1, p)
    ja = x * a + y
    jb = y * b + constant(1.5, 2)
    jc = x + y * c

    add_ab = ja + jb
    add_ba = jb + ja
    assert add_ab.value == add_ba.value
    assert (add_ab.gradient == add_ba.gradient).all()
    assert (add_ab.hessian == add_ba.hessian).all()

    left = (ja * jb) * jc
    right = ja * (jb * jc)
    assert_componentwise_close(left.value, right.value, 1e-12, floor=1e-6)
    assert_componentwise_close(left.gradient, right.gradient, 1e-9)
    assert_componentwise_close(left.hessian, right.hessian, 1e-9)

    dist_l = ja * (jb + jc)
    dist_r = ja * jb + ja * jc
    assert_componentwise_close(dist_l.value, dist_r.value, 1e-12, floor=1e-6)
    assert_componentwise_close(dist_l.gradient, dist_r.gradient, 1e-9)
    assert_componentwise_close(dist_l.hessian, dist_r.hessian, 1e-9)

    # bitwise reproducibility for a fixed evaluation order
    again = (ja * jb) * jc
    assert again.value == left.value
    assert (again.gradient == left.gradient).all()
    assert (again.hessian == left.hessian).all()


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(20240811)
    coords = ("u", "v")
    checked = 0
    for _ in range(60):
        src = random_expression(rng, coords)
        tree = parse_expression(src, coords)
        point = rng.uniform(-1.0, 1.0, size=2)

        def value_at(q, tree=tree):
            return eval_expr(tree, q, order=0).value

        jet = eval_expr(tree, point, order=2)
        if max(abs(jet.value), np.max(np.abs(jet.gradient)), np.max(np.abs(jet.hessian))) > 1e3:
            continue  # keep the finite-difference oracle in its accurate regime
        assert_componentwise_close(jet.gradient, fd_gradient(value_at, point), 1e-6)
        assert_componentwise_close(jet.hessian, fd_hessian(value_at, point), 1e-6)
        checked += 1
    assert checked >= 40


def test_partial_derivative_commutes_with_evaluation():
    rng = np.random.default_rng(7)
    coords = ("u", "v")
    for _ in range(20):
        src = random_expression(rng, coords)
        tree = parse_expression(src, coords)
        point = rng.uniform(-1.0, 1.0, size=2)
        jet2 = eval_expr(tree, point, order=2)
        if max(abs(jet2.value), np.max(np.abs(jet2.gradient)), np.max(np.abs(jet2.hessian))) > 1e3:
            continue
        for axis in range(2):
            d = partial_derivative(jet2, axis)

            def partial_value(q, tree=tree, axis=axis):
                return eval_expr(tree, q, order=1).gradient[axis]

            assert_componentwise_close(
                d.value,
                fd_gradient(lambda q: eval_expr(tree, q, order=0).value, point)[axis],
                1e-6,
            )
            assert_componentwise_close(d.gradient, fd_gradient(partial_value, point), 1e-5)


def test_matmul_is_the_product_rule_of_einsum_up_to_roundoff():
    # (I, m) by (m, J) jets over 5 points at orders 0 and 1, broadcast against one point; an
    # order-2 operand gives the order-1 product
    rng = np.random.default_rng(23)
    n = 3
    for order in (0, 1, 2):
        a = jets._wrap(n, order, rng.normal(size=(5, 2, 4, jets._width(n, order))))
        b = jets._wrap(n, 2, rng.normal(size=(4, 3, jets._width(n, 2))))
        product = jets.matmul(a, b)
        expected = jets.einsum("im,mj->ij", jets.truncate(a, 1), jets.truncate(b, 1))
        k = jets._width(n, min(order, 1))
        assert product.order == min(order, 1) and product.data.shape == (5, 2, 3, k)
        assert np.allclose(product.data, expected.data[..., :k], atol=1e-13)
    vector = jets.reshape(jets._wrap(n, 1, rng.normal(size=(5, 4, 1 + n))), 1, (4, 1))
    assert vector.data.shape == (5, 4, 1, 1 + n)
