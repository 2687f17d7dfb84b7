"""Shared test utilities: finite-difference oracles, scalar references of the batched
kernels and scenario builders."""

from __future__ import annotations

import json
from functools import reduce
from operator import getitem

import numpy as np

from conproj import jets, load_scenario, metric_at, sample_points
from conproj.expressions import Binary, Call, Literal, Neg, Variable
from conproj.geometry import drift, inverse, levi_civita, shift
from conproj.sampling import _mix64
from conproj.scenario import ExplicitRecipe, LeviCivitaRecipe, ModifiedSRecipe


def assert_componentwise_close(actual, expected, tol, floor=1.0):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(floor, np.abs(expected))
    err = np.max(np.abs(actual - expected) / scale)
    assert err <= tol, f"componentwise error {err:.3e} exceeds {tol:.1e}"


def product_rule(spec, a, b):
    """The jet of ``np.einsum(spec)`` of the jets ``a`` and ``b``, at the lower of their
    orders, by the product rule written out over their unpacked value, gradient and Hessian.
    ``spec`` names tensor axes in lowercase letters; the lead axes broadcast."""
    inputs, out = spec.split("->")
    x, y = inputs.split(",")
    order = min(a.order, b.order)
    va, vb = np.asarray(a.value), np.asarray(b.value)

    def term(fa, fb, da="", db=""):  # fa, fb carry derivative axes da, db (Y, Z)
        return np.einsum(f"...{x}{da},...{y}{db}->...{out}{da}{db}", fa, fb)

    parts = [term(va, vb)[..., None]]
    if order >= 1:
        parts.append(term(a.gradient, vb, "Y") + term(va, b.gradient, "", "Y"))
    if order == 2:
        cross = term(a.gradient, b.gradient, "Y", "Z")
        hessian = term(a.hessian, vb, "YZ") + term(va, b.hessian, "", "YZ") + cross
        hessian = hessian + np.swapaxes(cross, -1, -2)
        parts.append(hessian.reshape(hessian.shape[:-2] + (-1,)))
    return jets._wrap(a.n, order, np.concatenate(parts, axis=-1))


def next_u64(stream):
    """The next raw output of a ``SplitMix64`` stream, one draw at a time: the reference
    that ``uniform_draws`` and ``draw_points`` compute as arrays."""
    stream.skip(1)
    return _mix64(stream.state)


def next_float(stream) -> float:
    """Uniform double in [0, 1) built from the top 53 bits of the next draw."""
    return (next_u64(stream) >> 11) * 2.0**-53


def uniform(stream, lo: float, hi: float) -> float:
    return lo + (hi - lo) * next_float(stream)


def draw_point(stream, box_min, box_max) -> tuple:
    """A sample point drawn coordinate by coordinate from ``stream``."""
    return tuple(uniform(stream, lo, hi) for lo, hi in zip(box_min, box_max))


def stack(entries, shape: tuple, n=None, order=None, lead=()):
    """Tensor jet of the given shape from its scalar entries in row-major order, one entry
    at a time: the reference of a plan's stacks.  An entry is a jet, of which the parts up
    to ``order`` are read (by default the lowest jet order), or a float, a constant;
    entries broadcast over their leading shapes and ``lead``, and ``n`` defaults to the
    jets' dimension."""
    jet_entries = [j for j in entries if isinstance(j, jets.Jet)]
    n = jet_entries[0].n if n is None else n
    order = min(j.order for j in jet_entries) if order is None else order
    lead = np.broadcast_shapes(lead, *(j.data.shape[:-1] for j in jet_entries))
    k = jets._width(n, order)
    out = np.zeros(lead + (len(entries), k))
    for i, j in enumerate(entries):
        if isinstance(j, jets.Jet):
            out[..., i, :] = j.data[..., :k]
        else:
            out[..., i, 0] = j
    return jets._wrap(n, order, out.reshape(lead + tuple(shape) + (k,)))


def fd_gradient(f, p, h=1e-4):
    p = np.asarray(p, dtype=float)
    out = np.zeros(len(p))
    for k in range(len(p)):
        step = np.zeros(len(p))
        step[k] = h
        out[k] = (f(p + step) - f(p - step)) / (2.0 * h)
    return out


def fd_hessian(f, p, h=1e-4):
    p = np.asarray(p, dtype=float)
    n = len(p)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            out[i, j] = (
                f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)
            ) / (4.0 * h * h)
    return out


def random_expression(rng, coords, depth=3):
    """Random grammar-conformant source with domain-safe subexpressions."""
    n = len(coords)
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return repr(round(float(rng.uniform(-2.0, 2.0)), 3))
        return coords[int(rng.integers(n))]
    roll = rng.random()
    a = random_expression(rng, coords, depth - 1)
    if roll < 0.35:
        b = random_expression(rng, coords, depth - 1)
        op = str(rng.choice(["+", "-", "*"]))
        return f"({a} {op} {b})"
    if roll < 0.45:
        b = random_expression(rng, coords, depth - 1)
        return f"({a})/(2.5 + ({b})^2)"
    if roll < 0.55:
        return f"({a})^2"
    if roll < 0.65:
        return f"log(2.5 + ({a})^2)"
    if roll < 0.75:
        return f"sqrt(2.5 + ({a})^2)"
    fn = str(rng.choice(["sin", "cos", "tanh"]))
    if rng.random() < 0.3:
        fn = str(rng.choice(["exp", "sinh", "cosh"]))
        return f"{fn}(0.3*({a}))"
    return f"{fn}({a})"


def polynomial(rng, coords, *, scale, max_terms, degree=2):
    """Random polynomial source of total degree <= 2 with bounded coefficients."""
    n = len(coords)
    monomials = [()]
    monomials += [(i,) for i in range(n)]
    if degree >= 2:
        monomials += [(i, j) for i in range(n) for j in range(i, n)]
    count = int(rng.integers(1, max_terms + 1))
    picks = rng.choice(len(monomials), size=min(count, len(monomials)), replace=False)
    parts = []
    for pick in np.atleast_1d(picks):
        c = float(rng.uniform(-scale, scale))
        mon = monomials[int(pick)]
        if not mon:
            parts.append(repr(c))
        else:
            parts.append(f"{c!r}*" + "*".join(coords[k] for k in mon))
    return " + ".join(parts)


def drift_doc(s=("0", "0", "x2"), samples=60, seed=7):
    """Lorentzian chart with a drift connection: null geodesics are shared
    with the metric, but a non-gradient drift leaves the trace one-form
    non-closed."""
    return {
        "dimension": 3,
        "coordinates": ["x1", "x2", "x3"],
        "box": {"min": [-1, -1, -1], "max": [1, 1, 1]},
        "metric": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "connection": {
            "kind": "modified_s",
            "metric": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "s": list(s),
        },
        "samples": samples,
        "seed": seed,
    }


_PERT_SCALE = {2: 0.08, 3: 0.05, 4: 0.03, 5: 0.02, 6: 0.015, 7: 0.012, 8: 0.01}


def round_trip_doc(rng, n, *, samples=20, lorentzian=False, negative=0, max_tries=60):
    """Compatible-by-construction scenario: the connection is a projective
    shift of the Levi-Civita connection of a conformal rescaling of the
    metric, whose first ``negative`` diagonal bases are -1 and the rest +1
    (``lorentzian`` means one).  Returns (document, phi_source)."""
    negative = 1 if lorentzian else negative
    coords = [f"x{i + 1}" for i in range(n)]
    scale = _PERT_SCALE[n]
    for _ in range(max_tries):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j < i:
                    row.append(None)
                    continue
                pert = polynomial(rng, coords, scale=scale, max_terms=3)
                if i == j:
                    base = "-1" if i < negative else "1"
                    row.append(f"{base} + {pert}")
                else:
                    row.append(pert)
            rows.append(row)
        phi = polynomial(rng, coords, scale=0.25, max_terms=4)
        psi = [polynomial(rng, coords, scale=0.4, max_terms=3) for _ in range(n)]
        conn_rows = [
            [
                None if j < i else f"({rows[i][j]})*exp(2*({phi}))"
                for j in range(n)
            ]
            for i in range(n)
        ]
        doc = {
            "dimension": n,
            "coordinates": coords,
            "box": {"min": [-1.0] * n, "max": [1.0] * n},
            "metric": rows,
            "connection": {
                "kind": "projective_transform",
                "base": {"kind": "levi_civita", "metric": conn_rows},
                "psi": psi,
            },
            "samples": samples,
            "seed": int(rng.integers(0, 2**31)),
        }
        scenario = load_scenario(doc)
        determinants = [
            abs(float(np.linalg.det(metric_at(scenario, p, 0).values())))
            for p in sample_points(scenario, 40, seed=1234)
        ]
        if min(determinants) > 0.5:
            return doc, phi
    raise AssertionError("could not draw a well-conditioned random metric")


def random_drift_incompatible_doc(rng, n, *, samples=20):
    """Incompatible by construction: identity metric with a drift along one
    axis proportional to another coordinate, so the lowered drift one-form
    has an exactly known non-zero closedness defect."""
    coords = [f"x{i + 1}" for i in range(n)]
    axis, dep = rng.choice(n, size=2, replace=False)
    c = float(rng.uniform(0.5, 1.5)) * float(rng.choice([-1.0, 1.0]))
    s = ["0"] * n
    s[int(axis)] = f"{c!r}*{coords[int(dep)]}"
    identity = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return {
        "dimension": n,
        "coordinates": coords,
        "box": {"min": [-1.0] * n, "max": [1.0] * n},
        "metric": identity,
        "connection": {"kind": "modified_s", "metric": identity, "s": s},
        "samples": samples,
        "seed": int(rng.integers(0, 2**31)),
    }


def random_explicit_incompatible_doc(rng, n, *, samples=20, negative=0):
    """Incompatible with both conditions failing: a generic polynomial
    connection over a flat metric whose first ``negative`` diagonal entries
    are -1 and the rest +1."""
    coords = [f"x{i + 1}" for i in range(n)]
    diagonal = ["-1" if i < negative else "1" for i in range(n)]
    metric = [[diagonal[i] if i == j else "0" for j in range(n)] for i in range(n)]
    gamma = []
    for i in range(n):
        mat = []
        for j in range(n):
            row = []
            for k in range(n):
                if k < j:
                    row.append(None)
                else:
                    row.append(polynomial(rng, coords, scale=0.5, max_terms=2))
            mat.append(row)
        gamma.append(mat)
    gamma[0][min(1, n - 1)][min(1, n - 1)] = "0.8 + 0.4*x1"
    return {
        "dimension": n,
        "coordinates": coords,
        "box": {"min": [-1.0] * n, "max": [1.0] * n},
        "metric": metric,
        "connection": {"kind": "explicit", "gamma": gamma},
        "samples": samples,
        "seed": int(rng.integers(0, 2**31)),
    }


def flat_doc(n=2, samples=10, seed=0):
    coords = [f"x{i + 1}" for i in range(n)]
    identity = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    return {
        "dimension": n,
        "coordinates": coords,
        "box": {"min": [-1.0] * n, "max": [1.0] * n},
        "metric": identity,
        "connection": {"kind": "levi_civita", "metric": identity},
        "samples": samples,
        "seed": seed,
    }


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


def one_degenerate_sample_doc(samples=150, index=37):
    """A flat 2-d metric ``diag(1, (x1 - c)^2)`` with its own connection, whose
    cut ``x1 = c`` passes through sample point ``index`` of ``samples``
    (seed 11): the metric degenerates there and, at the default counts and
    at ``CHUNK_POINTS + 37`` of ``CHUNK_POINTS + 100``, at no other sample.
    Returns the document and that point."""
    doc = flat_doc(2, samples=samples, seed=11)
    point = sample_points(load_scenario(doc))[index]
    doc["metric"] = [["1", "0"], [None, f"(x1 - {point[0]!r})^2"]]
    doc["connection"] = {"kind": "levi_civita", "metric": doc["metric"]}
    return doc, point


def rank_one_doc():
    """A 2-d metric of rank one everywhere, over 30 samples."""
    doc = flat_doc(2, samples=30)
    doc["metric"] = [["1", "x1"], [None, "x1^2"]]
    doc["connection"] = {"kind": "explicit", "gamma": [[["0", "0"], [None, "0"]]] * 2}
    return doc


def split_metric_file(directory):
    """A ``gen-example`` metric file for a 5-d metric of signature (2, 3)
    with one non-constant entry.  Returns its path."""
    diagonal = ["-1", "-1", "1", "1", "1 + 0.1*x1^2"]
    rows = [[diagonal[i] if i == j else "0" for j in range(5)] for i in range(5)]
    path = directory / "split5.json"
    path.write_text(json.dumps({"dimension": 5, "metric": rows}), encoding="utf-8")
    return path


_JET_OPERATORS = {"+": jets.add, "-": jets.sub, "*": jets.mul, "/": jets.div, "^": jets.power}


def walk(e, points, order, memo):
    """Reference jet of the tree ``e`` at ``points`` ((n,) or (S, n)): a recursive walk
    over the jets operations, one call per node, with no plan; ``memo`` keeps the jet
    of each tree object walked."""
    if id(e) in memo:
        return memo[id(e)][1]
    if isinstance(e, Literal):
        out = e.value
    elif isinstance(e, Variable):
        out = jets.coordinate(e.index, points, order)
    elif isinstance(e, Neg):
        out = jets.neg(walk(e.operand, points, order, memo))
    elif isinstance(e, Call):
        out = jets.apply_function(walk(e.arg, points, order, memo), e.func, None)
    else:
        assert isinstance(e, Binary)
        left, right = (walk(x, points, order, memo) for x in (e.left, e.right))
        out = _JET_OPERATORS[e.op](left, right, None)
    memo[id(e)] = e, out
    return out


def walk_tensor(trees, shape, points, order):
    """Reference tensor jet of the nested expression ``trees`` of ``shape``."""
    points, memo = np.asarray(points, dtype=float), {}
    entries = [walk(reduce(getitem, i, trees), points, order, memo) for i in np.ndindex(shape)]
    return stack(entries, shape, points.shape[-1], order, points.shape[:-1])


def walk_connection(recipe, points, order, rank_tol):
    """Reference connection jet of a recipe at ``points``, its expressions walked by
    :func:`walk` and its geometry that of ``conproj.geometry``."""
    n = np.shape(points)[-1]
    if isinstance(recipe, ExplicitRecipe):
        return walk_tensor(recipe.gamma, (n, n, n), points, order)
    if isinstance(recipe, (LeviCivitaRecipe, ModifiedSRecipe)):
        g = walk_tensor(recipe.metric, (n, n), points, order + 1)
        ginv = inverse(jets.truncate(g, order), rank_tol)[0]
        base = levi_civita(g, ginv)
        if isinstance(recipe, LeviCivitaRecipe):
            return base
        if recipe.potential is None:
            s = walk_tensor(recipe.s, (n,), points, order)
        else:
            f = walk_tensor([recipe.potential], (), points, order + 1)
            s = jets.matvec(ginv, jets.derivative(f))
        return drift(base, s, g)
    base = walk_connection(recipe.base, points, order, rank_tol)
    return shift(base, walk_tensor(recipe.psi, (n,), points, order))
