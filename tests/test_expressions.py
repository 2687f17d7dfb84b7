import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conproj import (
    DegenerateMetric,
    DomainError,
    check_compatibility,
    connection_at,
    load_scenario,
    load_scenario_path,
    metric_at,
    obstruction_at,
    sample_points,
    with_conformal_factor,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownFunctionError,
    UnknownIdentifierError,
    eval_expr,
    parse_expression,
    print_expression,
)
from conproj import expressions, jets
from conproj.compatibility import _trace_plan
from conproj.expressions import Binary, Call, Literal, Neg, Variable
from conproj.scenario import _connection_plan
from helpers import (
    drift_doc,
    random_drift_incompatible_doc,
    random_explicit_incompatible_doc,
    random_expression,
    round_trip_doc,
    walk_connection,
    walk_tensor,
)

COORDS = ("x", "y")


def test_parse_call_shape():
    tree = parse_expression("exp(2*x)", COORDS)
    assert tree == Call("exp", Binary("*", Literal(2.0), Variable(0, "x")))


def test_parse_pole_is_lazy():
    tree = parse_expression("1/(1 - x^2)", COORDS)
    with pytest.raises(DomainError) as excinfo:
        eval_expr(tree, (1.0, 0.0))
    assert excinfo.value.point == (1.0, 0.0)
    assert excinfo.value.path is not None
    assert eval_expr(tree, (0.0, 0.0)).value == 1.0


def test_syntax_error_offset():
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("x + * y", COORDS)
    assert excinfo.value.offset == 4
    # an unclosed call fails at the end of its source
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("exp(x", COORDS)
    assert str(excinfo.value) == "expected ')' (byte offset 5)"


def test_unknown_names():
    with pytest.raises(UnknownIdentifierError):
        parse_expression("x + z", COORDS)
    with pytest.raises(UnknownFunctionError):
        parse_expression("foo(x)", COORDS)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("", COORDS)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x + ", COORDS)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(x", COORDS)


def test_precedence_and_associativity():
    assert parse_expression("1 + 2*x", COORDS) == Binary(
        "+", Literal(1.0), Binary("*", Literal(2.0), Variable(0, "x"))
    )
    # '^' is right-associative
    assert parse_expression("x^2^3", COORDS) == Binary(
        "^", Variable(0, "x"), Binary("^", Literal(2.0), Literal(3.0))
    )
    # unary minus binds tighter than the '^' base
    assert parse_expression("-x^2", COORDS) == Binary(
        "^", Neg(Variable(0, "x")), Literal(2.0)
    )
    assert eval_expr(parse_expression("-x^2", COORDS), (3.0, 0.0), 0).value == 9.0
    # subtraction chains left-associatively
    assert eval_expr(parse_expression("8 - 4 - 2", COORDS), (0, 0), 0).value == 2.0
    # so does division
    assert parse_expression("8/4/2", COORDS) == Binary(
        "/", Binary("/", Literal(8.0), Literal(4.0)), Literal(2.0)
    )
    # '^' binds tighter than '*' on either side
    assert parse_expression("2*x^3", COORDS) == Binary(
        "*", Literal(2.0), Binary("^", Variable(0, "x"), Literal(3.0))
    )
    assert parse_expression("2^3*x", COORDS) == Binary(
        "*", Binary("^", Literal(2.0), Literal(3.0)), Variable(0, "x")
    )
    # a leading minus is an exponent's base
    assert parse_expression("x^-2", COORDS) == Binary(
        "^", Variable(0, "x"), Neg(Literal(2.0))
    )


def test_eval_matches_jet_examples():
    j = eval_expr(parse_expression("x*y", COORDS), (2.0, 3.0))
    assert j.value == 6.0
    assert j.gradient.tolist() == [3.0, 2.0]
    assert j.hessian.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    k = eval_expr(parse_expression("exp(2*x)", COORDS), (0.0, 0.0), order=1)
    assert k.value == 1.0 and k.gradient.tolist() == [2.0, 0.0]
    c = eval_expr(parse_expression("7", COORDS), (0.4, -0.9))
    assert c.value == 7.0 and not c.gradient.any()


def _tan(x, y):
    sec2 = 1 / math.cos(x) ** 2
    return math.tan(x), [sec2, 0.0], [[2 * math.tan(x) * sec2, 0.0], [0.0, 0.0]]


def _inverse_square(x, y):
    return x**-2, [-2 * x**-3, 0.0], [[6 * x**-4, 0.0], [0.0, 0.0]]


def _power(x, y):
    v, lx = x**y, math.log(x)
    mixed = x ** (y - 1) * (1 + y * lx)
    return v, [y * x ** (y - 1), v * lx], [[y * (y - 1) * x ** (y - 2), mixed], [mixed, v * lx**2]]


@pytest.mark.parametrize(
    "src, closed_form", [("tan(x1)", _tan), ("x1^-2", _inverse_square), ("x1^x2", _power)]
)
def test_eval_matches_closed_forms(src, closed_form):
    j = eval_expr(parse_expression(src, ("x1", "x2")), (0.7, 1.3))
    value, gradient, hessian = closed_form(0.7, 1.3)
    assert math.isclose(j.value, value, rel_tol=1e-14)
    assert np.allclose(j.gradient, gradient, rtol=1e-14, atol=1e-14)
    assert np.allclose(j.hessian, hessian, rtol=1e-14, atol=1e-14)


def test_order_zero_value_equals_order_two_value():
    rng = np.random.default_rng(5)
    for _ in range(30):
        src = random_expression(rng, COORDS)
        tree = parse_expression(src, COORDS)
        p = rng.uniform(-1, 1, size=2)
        assert eval_expr(tree, p, 0).value == eval_expr(tree, p, 2).value
    with pytest.raises(ValueError, match="jet order must be 0, 1 or 2"):
        eval_expr(tree, p, 3)


def test_print_round_trip_on_sources():
    rng = np.random.default_rng(11)
    for _ in range(200):
        src = random_expression(rng, COORDS)
        tree = parse_expression(src, COORDS)
        assert parse_expression(print_expression(tree), COORDS) == tree
    # a negative literal, which no source parses to, reparses as a negation of one meaning
    printed = print_expression(Binary("^", Literal(-2.0), Literal(2.0)))
    assert printed == "-2.0^2.0"
    assert parse_expression(printed, COORDS) == Binary("^", Neg(Literal(2.0)), Literal(2.0))
    assert eval_expr(parse_expression(printed, COORDS), (0.0, 0.0), 0).value == 4.0


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Literal),
    st.sampled_from([Variable(0, "x"), Variable(1, "y")]),
)


def _trees(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        st.tuples(
            st.sampled_from(["exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh", "sqrt"]),
            children,
        ).map(lambda t: Call(t[0], t[1])),
    )


@settings(max_examples=300, deadline=None)
@given(tree=st.recursive(_leaf, _trees, max_leaves=25))
def test_print_round_trip_on_arbitrary_trees(tree):
    assert parse_expression(print_expression(tree), COORDS) == tree


_signed_leaf = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(Literal),
    st.sampled_from([Variable(0, "x"), Variable(1, "y")]),
)


@settings(max_examples=40, deadline=None)
@given(tree=st.recursive(_signed_leaf, _trees, max_leaves=6))
def test_printing_is_a_fixed_point_of_reparsing_under_every_operator_pair(tree):
    # every operator inside every other, on either side, around trees of every node kind
    for outer, inner in itertools.product("+-*/^", repeat=2):
        nested = Binary(inner, tree, tree)
        for t in (Binary(outer, nested, tree), Binary(outer, tree, nested)):
            text = print_expression(t)
            reparsed = parse_expression(text, COORDS)
            assert print_expression(reparsed) == text
            if "value=-" not in repr(t):  # a negative literal reparses as a negation
                assert reparsed == t


@settings(max_examples=300, deadline=None)
@given(src=st.text(max_size=40))
def test_parser_fuzz_only_structured_errors(src):
    try:
        parse_expression(src, COORDS)
    except ExpressionError:
        pass


@settings(max_examples=150, deadline=None)
@given(
    src=st.text(
        alphabet="xy0123456789+-*/^(). esinlogqrtapch", max_size=30
    )
)
def test_parser_fuzz_grammar_alphabet(src):
    try:
        tree = parse_expression(src, COORDS)
    except ExpressionError:
        return
    try:
        eval_expr(tree, (0.5, -0.5))
    except DomainError:
        pass


@pytest.mark.parametrize(
    "src, base, exponent",
    [
        ("x1^2", "x1", 2.0),
        ("x1^(-3)", "x1", -3.0),
        ("x1^-2", "x1", -2.0),
        ("x1^(2*3)", "x1", 6.0),
        ("x1^0", "x1", 0.0),
        ("2^0", "2", 0.0),
        ("x1^0.5", "x1", 0.5),
        ("(1 + x1)^x2", "1 + x1", "x2"),
    ],
)
def test_power_evaluates_its_operands_as_any_operator_does(src, base, exponent):
    # a constant exponent reaches jets.power as a number, any other as a jet
    coords, point = ["x1", "x2"], (0.3, -0.2)
    operand = lambda s: eval_expr(parse_expression(s, coords), point, 2)
    exponent = operand(exponent) if isinstance(exponent, str) else exponent
    expected = jets.power(operand(base), exponent)
    actual = eval_expr(parse_expression(src, coords), point, 2)
    assert actual.value == expected.value
    assert np.array_equal(actual.gradient, expected.gradient)
    assert np.array_equal(actual.hessian, expected.hessian)


@pytest.mark.parametrize(
    "src, message",
    [
        ("x1^(1e400)", "non-finite exponent in 'x1^inf'"),
        ("x1^100000", "integer exponent magnitude exceeds 9999 in 'x1^100000.0'"),
        # folded when the plan is built, and raised by each run
        ("x1 + 2^100000", "integer exponent magnitude exceeds 9999 in '2.0^100000.0'"),
    ],
)
def test_an_exponent_that_fails_every_point_raises_at_once(src, message):
    with pytest.raises(DomainError) as excinfo:
        eval_expr(parse_expression(src, ["x1", "x2"]), (0.3, -0.2), 2)
    assert str(excinfo.value) == f"{message} at point (0.3, -0.2)"


@pytest.mark.parametrize("point", [(math.nan, 0.2), (0.3, math.inf)])
def test_a_non_finite_coordinate_fails_the_point(point):
    with pytest.raises(DomainError) as excinfo:
        eval_expr(parse_expression("x1*x2", ["x1", "x2"]), point, 2)
    assert str(excinfo.value) == f"non-finite component in jet arithmetic at point {point}"


def _metric_doc(a, b, connection=None):
    """A 2-d scenario with metric diag(a, b) and, unless given, a zero explicit connection."""
    zero = [[["0", "0"], [None, "0"]]] * 2
    return {
        "dimension": 2,
        "coordinates": ["x1", "x2"],
        "box": {"min": [-1, -1], "max": [1, 1]},
        "metric": [[a, "0"], [None, b]],
        "connection": connection or {"kind": "explicit", "gamma": zero},
        "samples": 20,
    }


def _first_error(scn, point):
    with pytest.raises((DomainError, DegenerateMetric)) as excinfo:
        obstruction_at(scn, point)
    return excinfo.value


_DEEP_LOG, _SHALLOW_SQRT = "log(-(x1*x1) - 1)", "sqrt(x1)"


@pytest.mark.parametrize("first, second", [(_DEEP_LOG, _SHALLOW_SQRT), (_SHALLOW_SQRT, _DEEP_LOG)])
def test_the_first_failing_subexpression_in_post_order_names_the_error(first, second):
    # Both operands fail at x1 < 0; the one whose subtree comes first is named, however
    # deep it is.
    expected = print_expression(parse_expression(first, ["x1", "x2"]))
    point = (-0.5, 0.2)
    with pytest.raises(DomainError) as excinfo:
        eval_expr(parse_expression(f"{first} + {second}", ["x1", "x2"]), point)
    assert (excinfo.value.path, excinfo.value.point) == (expected, point)
    # across entries: the metric's upper triangle in row-major order
    scn = load_scenario(_metric_doc(f"2 + {first}", f"2 + {second}"))
    error = _first_error(scn, point)
    assert (error.path, error.point) == (expected, point)


def test_a_degenerate_base_metric_precedes_a_later_psi_error_at_the_same_point():
    # The base metric of the shifted connection degenerates at x1 = 0, where psi's sqrt
    # fails too; the base's geometry comes first.
    levi_civita = {"kind": "levi_civita", "metric": [["x1", "0"], [None, "1"]]}
    shifted = {"kind": "projective_transform", "base": levi_civita, "psi": ["sqrt(x1)", "0"]}
    point = (0.0, 0.3)
    error = _first_error(load_scenario(_metric_doc("1", "1", shifted)), point)
    assert isinstance(error, DegenerateMetric) and error.point == point
    # a failing metric entry comes before both
    error = _first_error(load_scenario(_metric_doc("1 + sqrt(-x1 - 1)", "1", shifted)), point)
    assert isinstance(error, DomainError) and error.path == "sqrt(-x1 - 1.0)"


@pytest.mark.parametrize("swap", [False, True])
def test_the_first_over_range_exponent_in_post_order_raises(swap):
    deep, shallow = "(x1*x2 + 1)^100000", "x1^100000"
    a, b = (shallow, deep) if swap else (deep, shallow)
    scn = load_scenario(_metric_doc(f"1 + {a}", f"1 + {b}"))
    expected = print_expression(parse_expression(a, ["x1", "x2"]))
    for run in (lambda: obstruction_at(scn, (0.3, -0.2)), lambda: check_compatibility(scn)):
        with pytest.raises(DomainError) as excinfo:
            run()
        assert excinfo.value.message == "integer exponent magnitude exceeds 9999"
        assert excinfo.value.path == expected


# Each form nests one level per repeat: brackets, leading minus signs, chained '^' and a
# left-associative sum of k operands.  One past the bound fails at the offset given.
_DEEP_FORMS = {
    "brackets": (lambda k: "(" * k + "x" + ")" * k, lambda k: k - 1),
    "minus": (lambda k: "-" * k + "x", lambda k: k - 1),
    "power": (lambda k: "x" + "^y" * k, lambda k: 2 * k - 1),
    "sum": (lambda k: "2" + "+0*x" * (k - 1), lambda k: 4 * k - 7),
}


@pytest.mark.parametrize("form", _DEEP_FORMS)
def test_nesting_past_the_bound_is_a_syntax_error(form):
    source, offset = _DEEP_FORMS[form]
    for k in (257, 1000):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse_expression(source(k), COORDS)
        assert str(excinfo.value) == (
            f"expression nests deeper than 256 levels (byte offset {offset(257)})"
        )


@pytest.mark.parametrize("form", _DEEP_FORMS)
def test_nesting_at_the_bound_parses_prints_hashes_and_evaluates(form):
    tree = parse_expression(_DEEP_FORMS[form][0](256), COORDS)
    reparsed = parse_expression(print_expression(tree), COORDS)
    assert reparsed == tree and hash(reparsed) == hash(tree)
    assert math.isfinite(eval_expr(tree, (0.5, 0.5)).value)


def _subtrees(trees):
    """Every subtree of ``trees``, walked without recursion."""
    todo = list(trees)
    while todo:
        e = todo.pop()
        yield e
        todo.extend(getattr(e, f) for f in ("left", "right", "operand", "arg") if hasattr(e, f))


def test_each_distinct_subtree_runs_once_per_batch(monkeypatch):
    doc, _ = round_trip_doc(np.random.default_rng(3), 3, lorentzian=True)
    # The conformal factor wraps every metric entry anew, so the mirrored entries
    # become distinct, equal trees.
    scn = with_conformal_factor(load_scenario(doc), "0.1*x1*x2 - 2*0.1")
    assert scn.metric[0][1] is not scn.metric[1][0] and scn.metric[0][1] == scn.metric[1][0]
    rows = []  # the rows each operator call computes: a group's, or one of constants
    for op, (prec, right, fn) in list(expressions._OPERATORS.items()):
        def counting(a, b, check, fn=fn):
            rows.append(next((len(x.data) for x in (a, b) if isinstance(x, jets.Jet)), 1))
            return fn(a, b, check)

        monkeypatch.setitem(expressions._OPERATORS, op, (prec, right, counting))
    connection = scn.connection
    trees = [e for row in scn.metric + connection.base.metric for e in row] + list(connection.psi)
    distinct = {print_expression(e) for e in _subtrees(trees) if isinstance(e, Binary)}
    literal = {
        print_expression(e) for e in _subtrees(trees)
        if isinstance(e, Binary) and not any(isinstance(x, Variable) for x in _subtrees([e]))
    }
    assert check_compatibility(scn, samples=20).verdict == "compatible"
    assert sum(rows) == len(distinct)  # each once; the literal ones when folded
    rows.clear()
    check_compatibility(scn, samples=20)
    assert sum(rows) == len(distinct - literal)
    assert len(rows) < sum(rows)  # grouped: fewer calls than rows


def test_a_constant_operand_of_plus_and_times_groups_on_the_right():
    # c*x and x*c at one depth form one group, as do c + x and x + c: jets.mul and
    # jets.add put the constant on the right themselves, bit for bit.
    def plan_of(sources):
        plan = expressions.Plan(2)
        trees = [parse_expression(src, COORDS) for src in sources]
        return plan.finish([plan.stack(trees, (len(trees),), 2)])

    mixed = plan_of(["2*x", "x*3", "x + 1", "4 + y", "0.5*(x*y)"])
    right = plan_of(["x*2", "x*3", "x + 1", "y + 4", "x*y*0.5"])
    for plan in (mixed, right):
        groups = sum(fn.func is expressions._group for fn, *_ in plan._steps)
        assert groups == 4  # x*c, x*y and x + c at depth 1, (x*y)*c at depth 2
    points = np.array([[0.3, -0.7], [1.5, 2.0], [-1.25, 0.5]])
    assert mixed.run(points).out[0].data.tobytes() == right.run(points).out[0].data.tobytes()
    # c*x and x*c share a node; an error names the tree as written, the first in post-order
    for src, path in [("1e308*x + x*1e308", "1e+308*x"), ("x*1e308 + 1e308*x", "x*1e+308")]:
        with pytest.raises(DomainError) as excinfo:
            eval_expr(parse_expression(src, COORDS), (10.0, 0.0))
        assert excinfo.value.path == path


def test_literal_entries_build_no_constant_jets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("jets.constant called")

    monkeypatch.setattr(jets, "constant", refuse)
    path = Path(__file__).resolve().parents[1] / "scenarios" / "flat_euclidean_2d.json"
    for scn in (load_scenario_path(path), load_scenario(drift_doc())):
        point = tuple([0.25] * scn.dimension)
        assert check_compatibility(scn, samples=30).samples == 30
        assert obstruction_at(scn, point).a_residual >= 0.0
        assert metric_at(scn, point, 2).order == 2
    assert eval_expr(parse_expression("7 - 2*3", COORDS), (0.4, -0.9)).value == 1.0


def test_a_lorentzian_round_trip_plan_frees_its_slots():
    doc, _ = round_trip_doc(np.random.default_rng(5), 4, lorentzian=True)
    scn = load_scenario(doc)
    assert check_compatibility(scn).verdict == "compatible"
    plan = _trace_plan(scn, 1)
    live = peak = 0
    made, gone = {plan.BATCH}, []
    for _, _, out, freed in plan._steps:  # a step makes one slot: a group's rows or a tensor
        live += 1
        peak = max(peak, live)
        live -= len(freed)
        made.add(out)
        gone.extend(freed)
    assert peak < plan.nodes // 4
    assert sorted(gone) == sorted(made - set(plan._outputs))  # the rest, each once


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_grouped_plan_matches_a_recursive_walk_bit_for_bit(n):
    # Round-trip, drift and explicit scenarios in every signature (n, q); the three kinds
    # take 1, 7 and 300 points in turn as q runs, so that each kind meets each count.  A
    # single point runs as an (n,) array, the others as stacks.
    rng = np.random.default_rng(2022 + n)
    for q in range(n + 1):
        drift = random_drift_incompatible_doc(rng, n)
        for i in range(q):  # the drift's metric is its connection's too
            drift["metric"][i][i] = "-1"
        docs = [round_trip_doc(rng, n, negative=q)[0], drift,
                random_explicit_incompatible_doc(rng, n, negative=q)]
        for kind, doc in enumerate(docs):
            scn = load_scenario(doc)
            count = (1, 7, 300)[(kind + q) % 3]
            points = np.array(sample_points(scn, count))
            points = points[0] if count == 1 else points
            for order in (0, 1):
                # the trace plan reads the connection at order 0, connection_at's at order
                with np.errstate(all="ignore"):
                    (g, _), gamma, *_ = _trace_plan(scn, order).run(points).out
                    (connection,) = _connection_plan(scn, order).run(points).out
                    expected_g = walk_tensor(scn.metric, (n, n), points, order + 1)
                    expected = [walk_connection(scn.connection, points, k, scn.tolerances.rank)
                                for k in (0, order)]
                assert g.data.tobytes() == expected_g.data.tobytes(), (q, kind, order)
                assert gamma.data.tobytes() == expected[0].data.tobytes(), (q, kind, order)
                assert connection.data.tobytes() == expected[1].data.tobytes(), (q, kind, order)


def test_a_consumer_asking_a_lower_order_reads_a_truncation():
    # 1e-220*x1^2 is a metric entry, computed to order 2; psi reads sqrt of it at order 1,
    # where the Hessian of sqrt overflows and its value and gradient do not.
    doc = {
        "dimension": 2,
        "coordinates": ["x1", "x2"],
        "box": {"min": [0.5, -1], "max": [1, 1]},
        "metric": [["1", "0"], [None, "1"]],
        "connection": {
            "kind": "projective_transform",
            "base": {"kind": "levi_civita", "metric": [["1 + 1e-220*x1^2", "0"], [None, "1"]]},
            "psi": ["sqrt(1e-220*x1^2)", "0"],
        },
    }
    scn = load_scenario(doc)
    assert np.all(np.isfinite(connection_at(scn, (0.5, 0.0), 1).jet.gradient))
    assert check_compatibility(scn, samples=20).verdict == "compatible"


def test_eval_expr_keeps_a_bounded_set_of_plans():
    trees = [parse_expression(f"{k}*x + y", COORDS) for k in range(100)]
    for k, tree in enumerate(trees):
        assert eval_expr(tree, (1.0, 2.0), 1).value == k + 2.0
    assert len(expressions._EVAL_PLANS) <= 64
    # a kept plan gives the fresh plan's jet, bit for bit
    tree = trees[-1]
    first, again = eval_expr(tree, (0.3, -0.7)), eval_expr(tree, (0.3, -0.7))
    assert first.data.tobytes() == again.data.tobytes()
    assert eval_expr(tree, (0.3, -0.7), 0).order == 0  # another order, another plan


def test_eval_expr_evaluates_a_deep_tree_twice():
    # 1,000 conformal wraps nest the entry 1,000 levels deep: hashing or comparing it
    # would recurse past Python's limit.
    path = Path(__file__).resolve().parents[1] / "scenarios" / "flat_euclidean_2d.json"
    scn = load_scenario_path(path)
    for _ in range(1000):
        scn = with_conformal_factor(scn, "0.001*x1")
    tree = scn.metric[0][0]
    first, again = (eval_expr(tree, (0.5, 0.25), 1) for _ in range(2))
    assert math.isclose(first.value, math.exp(2.0 * 0.5), rel_tol=1e-12)
    assert first.data.tobytes() == again.data.tobytes()
