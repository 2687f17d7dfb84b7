"""Exact symbolic oracle for the obstructions (A) and (B).

The scenario's expression trees are converted to sympy, and the
Christoffel symbols, the trace-free difference tensor T^i_jk, its traces
and both obstructions are built symbolically.  Compatible scenarios must
give A = B = 0 identically; the drift family must give B != 0; and at
sample points the numeric pipeline must agree with the exact expressions.
"""

import json
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from conproj import load_scenario, load_scenario_path, obstruction_at, sample_points  # noqa: E402
from conproj.cli import main  # noqa: E402
from conproj.expressions import Binary, Call, Literal, Neg, Variable  # noqa: E402
from conproj.scenario import (  # noqa: E402
    ExplicitRecipe,
    LeviCivitaRecipe,
    ModifiedSRecipe,
    ProjectiveTransformRecipe,
)
from helpers import split_metric_file  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a**b,
}


def to_sympy(e, xs):
    if isinstance(e, Literal):
        return sympy.Rational(repr(e.value))
    if isinstance(e, Variable):
        return xs[e.index]
    if isinstance(e, Neg):
        return -to_sympy(e.operand, xs)
    if isinstance(e, Binary):
        return _OPS[e.op](to_sympy(e.left, xs), to_sympy(e.right, xs))
    if isinstance(e, Call):
        return getattr(sympy, e.func)(to_sympy(e.arg, xs))
    raise TypeError(e)


def matrix(entries, xs):
    n = len(xs)
    return sympy.Matrix(n, n, lambda i, j: to_sympy(entries[i][j], xs))


def inverse(g):
    # the adjugate formula skips the simplification inside Matrix.inv
    return g.adjugate(method="berkowitz") / g.det(method="berkowitz")


def tensor(n, entry):
    """Nested lists t[i][j][k] = entry(i, j, k)."""
    return [[[entry(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]


def levi_civita(g, xs):
    n = len(xs)
    ginv = inverse(g)

    def d(a, b, c):
        return sympy.diff(g[a, b], xs[c])

    return tensor(
        n, lambda i, j, k: sum(ginv[i, p] * (d(p, j, k) + d(p, k, j) - d(j, k, p)) for p in range(n)) / 2
    )


def connection(recipe, xs):
    n = len(xs)
    delta = sympy.eye(n)
    if isinstance(recipe, LeviCivitaRecipe):
        return levi_civita(matrix(recipe.metric, xs), xs)
    if isinstance(recipe, ExplicitRecipe):
        return tensor(n, lambda i, j, k: to_sympy(recipe.gamma[i][j][k], xs))
    if isinstance(recipe, ModifiedSRecipe):
        g = matrix(recipe.metric, xs)
        base = levi_civita(g, xs)
        if recipe.potential is None:
            s = [to_sympy(e, xs) for e in recipe.s]
        else:
            f = to_sympy(recipe.potential, xs)
            s = list(inverse(g) * sympy.Matrix([sympy.diff(f, x) for x in xs]))
        return tensor(n, lambda i, j, k: base[i][j][k] - s[i] * g[j, k])
    if isinstance(recipe, ProjectiveTransformRecipe):
        base = connection(recipe.base, xs)
        psi = [to_sympy(e, xs) for e in recipe.psi]
        return tensor(n, lambda i, j, k: base[i][j][k] + delta[i, j] * psi[k] + delta[i, k] * psi[j])
    raise TypeError(recipe)


def obstructions(scenario):
    """Exact A^i_jk and B_ji of a scenario, as nested lists of sympy expressions."""
    n = scenario.dimension
    xs = sympy.symbols(" ".join(scenario.coordinates), real=True)
    g = matrix(scenario.metric, xs)
    ginv = inverse(g)
    base = levi_civita(g, xs)
    gamma = connection(scenario.connection, xs)
    delta = sympy.eye(n)
    diff = tensor(n, lambda i, j, k: base[i][j][k] - gamma[i][j][k])
    trace = [sum(diff[p][p][k] for p in range(n)) for k in range(n)]
    T = tensor(
        n, lambda i, j, k: diff[i][j][k] - (delta[i, j] * trace[k] + delta[i, k] * trace[j]) / (n + 1)
    )
    c = sympy.Rational(n + 1, (n + 2) * (n - 1))
    up = [c * sum(ginv[j, k] * T[i][j][k] for j in range(n) for k in range(n)) for i in range(n)]
    # cancelling T_i first keeps its derivatives, and so B, small
    down = [sympy.cancel(sum(g[i, j] * up[j] for j in range(n))) for i in range(n)]
    A = tensor(
        n,
        lambda i, j, k: T[i][j][k]
        - g[j, k] * up[i]
        + (delta[i, j] * down[k] + delta[i, k] * down[j]) / (n + 1),
    )
    B = [[sympy.diff(down[i], xs[j]) - sympy.diff(down[j], xs[i]) for i in range(n)] for j in range(n)]
    return xs, A, B


def flat(nested):
    return [x for row in nested for x in (flat(row) if isinstance(row, list) else [row])]


def gradient_drift_scenario(tmp_path, metric, potential):
    out = tmp_path / "grad.json"
    argv = ["gen-example", "--metric", metric, "--s-grad", potential]
    assert main(argv + ["--samples", "5", "--out", str(out), "--quiet"]) == 0
    return load_scenario(json.loads(out.read_text(encoding="utf-8")))


def vanishes(expr) -> bool:
    """Exact zero test: the numerator over a common denominator expands to 0."""
    return sympy.expand(sympy.together(expr).as_numer_denom()[0]) == 0


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """(scenario, symbols, A, B) for the bundled scenarios and two
    ``gen-example --s-grad`` outputs, at n = 3 and on a 5-d split metric."""
    scenarios = {
        name: load_scenario_path(SCENARIOS / f"{name}.json")
        for name in ("flat_euclidean_2d", "rescaled_shift_2d", "drift_lorentzian_3d")
    }
    tmp = tmp_path_factory.mktemp("gen")
    scenarios["gen_example_s_grad"] = gradient_drift_scenario(
        tmp, "minkowski3", "0.3*x1*x2 - 0.2*x3^2"
    )
    scenarios["gen_example_s_grad_5d"] = gradient_drift_scenario(
        tmp, str(split_metric_file(tmp)), "0.3*x1*x2 - 0.2*x5^2 + sin(x3)*x4"
    )
    return {name: (scn, *obstructions(scn)) for name, scn in scenarios.items()}


def test_numeric_obstructions_match_exact_ones(cases):
    for name, (scenario, xs, A, B) in cases.items():
        exact_a = sympy.lambdify(xs, flat(A), "math")
        exact_b = sympy.lambdify(xs, flat(B), "math")
        for point in sample_points(scenario, 5, seed=17):
            obs = obstruction_at(scenario, point)
            tol = 1e-12 * obs.scale
            a_err = max(abs(x - y) for x, y in zip(obs.a.ravel(), exact_a(*point)))
            b_err = max(abs(x - y) for x, y in zip(obs.b.ravel(), exact_b(*point)))
            assert a_err <= tol and b_err <= tol, (name, point, a_err, b_err)


def test_exact_obstructions_vanish_exactly_when_compatible(cases):
    for name in (
        "flat_euclidean_2d",
        "rescaled_shift_2d",
        "gen_example_s_grad",
        "gen_example_s_grad_5d",
    ):
        _, _, A, B = cases[name]
        assert all(vanishes(x) for x in flat(A) + flat(B)), name

    _, _, A, B = cases["drift_lorentzian_3d"]
    assert all(vanishes(x) for x in flat(A))
    assert sympy.simplify(B[1][2]) == 1 and sympy.simplify(B[2][1]) == -1
