"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines; every criterion pins its tolerance explicitly.
"""

import functools
import json
import random
import string

import numpy as np
import pytest

from conproj import (
    ConnectionValue,
    ExpressionError,
    Jet,
    NonGenericConfiguration,
    OneFormValue,
    RecoveredFactor,
    canonicalize_metric,
    check_compatibility,
    christoffel,
    conformal_rescale_metric,
    eval_expr,
    integrate_phi,
    integrate_phi_path,
    load_scenario,
    obstruction_at,
    parse_expression,
    print_expression,
    projective_transform,
    recover_metric,
    reconstruct_conformal,
    rescaled_connection,
    sample_null_vectors,
    sample_points,
    thomas_symbol,
    verify_recovery,
    with_conformal_factor,
    with_projective_shift,
)
from conproj.cli import main
from conproj.geometry import MetricValue
from conproj.jets import stack
from conproj.sampling import SplitMix64
from helpers import (
    assert_componentwise_close,
    drift_doc,
    fd_gradient,
    polynomial,
    random_drift_incompatible_doc,
    random_explicit_incompatible_doc,
    random_expression,
    round_trip_doc,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL — {description}")
                raise
            print(f"criterion {number}: PASS — {description}")

        return wrapper

    return decorate


@criterion(1, "round-trip compatibility and recovery on 50 random scenarios")
def test_criterion_1_round_trip():
    rng = np.random.default_rng(2024_08_01)
    dims = [2, 3, 4]
    for index in range(50):
        n = dims[index % 3]
        doc, _ = round_trip_doc(rng, n, samples=10)
        scenario = load_scenario(doc)
        report = check_compatibility(scenario)
        assert report.verdict == "compatible", (index, n, report)
        assert report.max_a <= 1e-8, (index, n, report.max_a)
        assert report.max_b <= 1e-8, (index, n, report.max_b)
        verification = verify_recovery(scenario, (0.0,) * n, samples=2)
        assert verification.max_deviation <= 1e-6, (index, n, verification)


@criterion(2, "null-cone-preserving drift family: EPS holds, closedness fails")
def test_criterion_2_drift_regression(tmp_path):
    scenario = load_scenario(drift_doc(samples=60, seed=7))
    report = check_compatibility(scenario)
    assert report.null_vectors >= 100, report.null_vectors
    assert report.max_eps is not None and report.max_eps <= 1e-10, report.max_eps
    assert report.max_a <= 1e-10, report.max_a
    assert abs(report.max_b - 1.0) <= 1e-9, report.max_b
    assert report.verdict == "fails_B"
    assert report.eps_verdict == "holds"

    path = tmp_path / "drift.json"
    path.write_text(json.dumps(drift_doc(samples=60, seed=7)), encoding="utf-8")
    assert main(["check", str(path), "--quiet", "--out", str(tmp_path / "r.json")]) == 2


@criterion(3, "obstructions do not depend on the class representatives")
def test_criterion_3_representative_independence():
    rng = np.random.default_rng(2024_08_03)
    scenarios = []
    for i in range(20):
        if i % 3 == 0:
            doc, _ = round_trip_doc(rng, 2 + (i // 3) % 3, samples=10)
        elif i % 3 == 1:
            doc = random_drift_incompatible_doc(rng, 2 + i % 3, samples=10)
        else:
            doc = random_explicit_incompatible_doc(rng, 2 + i % 3, samples=10)
        scenarios.append(load_scenario(doc))

    for scenario in scenarios:
        n = scenario.dimension
        coords = scenario.coordinates
        sigma = polynomial(rng, coords, scale=0.2, max_terms=3)
        psi = [polynomial(rng, coords, scale=0.3, max_terms=2) for _ in range(n)]
        transformed = with_projective_shift(
            with_conformal_factor(scenario, sigma), psi
        )
        for point in sample_points(scenario, 20, seed=555):
            original = obstruction_at(scenario, point)
            changed = obstruction_at(transformed, point)
            assert np.max(np.abs(original.a - changed.a)) / original.scale <= 1e-8
            assert np.max(np.abs(original.b - changed.b)) / original.scale <= 1e-8
        before = check_compatibility(scenario, samples=15)
        after = check_compatibility(transformed, samples=15)
        assert before.verdict == after.verdict, (before.verdict, after.verdict)

    # changes of any size, round trips in several signatures too: a constant or steep
    # conformal factor and a huge projective shift
    scenarios += [load_scenario(round_trip_doc(rng, n, negative=q, samples=10)[0])
                  for n, q in ((2, 1), (3, 1), (4, 2), (4, 3))]
    for scenario in scenarios:
        before = check_compatibility(scenario, samples=15).verdict
        changes = [with_conformal_factor(scenario, sigma) for sigma in ("10", "-10", "12*x1")]
        changes.append(with_projective_shift(scenario, ["1e12"] * scenario.dimension))
        for changed in changes:
            after = check_compatibility(changed, samples=15).verdict
            assert after == before, (before, after)


@criterion(4, "trace-free symbol laws: tracelessness and projective invariance")
def test_criterion_4_thomas_laws():
    rng = np.random.default_rng(2024_08_04)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        comps = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    comps[i, j, k] = comps[i, k, j] = float(rng.uniform(-2, 2))
        gamma = ConnectionValue(Jet(n, 1, comps))
        psi = OneFormValue(Jet(n, 1, [float(rng.uniform(-2, 2)) for _ in range(n)]))
        pi = thomas_symbol(gamma).components
        assert np.max(np.abs(np.einsum("ppk->k", pi))) <= 1e-12
        assert np.max(np.abs(np.einsum("pjp->j", pi))) <= 1e-12
        shifted = thomas_symbol(projective_transform(gamma, psi)).components
        assert np.max(np.abs(pi - shifted)) <= 1e-12


@criterion(5, "rescaled connection agrees with rescale-then-connection")
def test_criterion_5_rescaling_cross_validation():
    rng = np.random.default_rng(2024_08_05)
    scales = {2: 0.1, 3: 0.06}
    for index in range(50):
        n = 2 + index % 2
        coords = tuple(f"x{i + 1}" for i in range(n))
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                pert = polynomial(rng, coords, scale=scales[n], max_terms=3)
                entries[i][j] = entries[j][i] = f"1 + {pert}" if i == j else pert
        point = tuple(rng.uniform(-1, 1, size=n))
        cells = [
            eval_expr(parse_expression(entries[i][j], coords), point, 2)
            for i in range(n)
            for j in range(n)
        ]
        g = MetricValue(stack(cells, (n, n)), point=point)
        phi = eval_expr(
            parse_expression(polynomial(rng, coords, scale=0.3, max_terms=4), coords),
            point,
        )
        direct = rescaled_connection(g, phi).values()
        via_metric = christoffel(conformal_rescale_metric(g, phi)).values()
        assert_componentwise_close(direct, via_metric, 1e-9)


@criterion(6, "null-cone reconstruction round trip")
def test_criterion_6_cone_round_trip():
    rng = np.random.default_rng(2024_08_06)
    recovered = 0
    for index in range(20):
        n = 2 + index % 3
        base = np.diag(rng.choice([-1.0, 1.0], size=n))
        if abs(float(np.sum(np.sign(base.diagonal())))) == n:
            base[0, 0] = -base[0, 0]
        pert = rng.uniform(-0.15, 0.15, size=(n, n))
        g_true = base + 0.5 * (pert + pert.T)
        g_value = MetricValue(Jet(n, 0, g_true))
        count = 2 * (n * (n + 1) // 2 - 1)
        for _ in range(8):  # the genericity hypothesis can need a redraw in 2-d
            nulls = sample_null_vectors(
                g_value, count, SplitMix64(int(rng.integers(1, 2**31)))
            )
            try:
                rec = reconstruct_conformal([nv.u for nv in nulls], n)
                break
            except NonGenericConfiguration:
                continue
        else:
            raise AssertionError("no generic draw")
        assert np.max(np.abs(rec - canonicalize_metric(g_true))) <= 1e-8
        recovered += 1
    assert recovered == 20
    with pytest.raises(NonGenericConfiguration):
        reconstruct_conformal([(1.0, 1.0), (2.0, 2.0)], 2)


@criterion(7, "recovery analytics: gradient, path independence, constant factor")
def test_criterion_7_recovery_analytics():
    rng = np.random.default_rng(2024_08_07)
    doc, _ = round_trip_doc(rng, 2, samples=10)
    scenario = load_scenario(doc)
    base = (0.0, 0.0)
    factor = RecoveredFactor(scenario, base)

    # finite differences of the line integral recover the trace one-form
    for point in [(0.3, -0.2), (-0.4, 0.5), (0.1, 0.6)]:
        fd = fd_gradient(lambda q: factor.phi(tuple(q)), np.asarray(point))
        t_down = obstruction_at(scenario, point).t_down.values()
        assert_componentwise_close(fd, t_down, 1e-5)

    # straight segment versus axis-aligned polyline
    target = (0.7, -0.6)
    straight = integrate_phi(scenario, base, target)
    polyline = integrate_phi_path(scenario, [base, (target[0], base[1]), target])
    assert abs(straight - polyline) <= 1e-9

    # two bases recover the same metric up to one constant factor
    probes = [(0.2, 0.3), (-0.5, 0.4), (0.6, -0.6), (0.0, 0.8)]
    rec_a = recover_metric(scenario, base, probes)
    rec_b = recover_metric(scenario, (0.5, 0.5), probes)
    ratios = [
        a.values()[0, 0] / b.values()[0, 0] for a, b in zip(rec_a, rec_b)
    ]
    assert max(ratios) - min(ratios) <= 1e-8 * max(ratios)


@criterion(8, "jet engine: derivative oracle, parser fuzz, print stability")
def test_criterion_8_jet_engine():
    rng = np.random.default_rng(2024_08_08)
    coords = ("u", "v", "w")
    checked = 0
    for _ in range(60):
        source = random_expression(rng, coords)
        tree = parse_expression(source, coords)
        point = rng.uniform(-1, 1, size=3)
        jet = eval_expr(tree, point, order=2)
        magnitude = max(
            abs(jet.value), float(np.max(np.abs(jet.gradient))), float(np.max(np.abs(jet.hessian)))
        )
        if magnitude > 1e3:
            continue

        def value(q, tree=tree):
            return eval_expr(tree, q, order=0).value

        assert_componentwise_close(jet.gradient, fd_gradient(value, point), 1e-6)
        checked += 1
    assert checked >= 40

    # fuzz: arbitrary strings produce structured errors only
    fuzz = random.Random(20240808)
    alphabet = string.printable
    for _ in range(800):
        text = "".join(
            fuzz.choice(alphabet) for _ in range(fuzz.randrange(0, 30))
        )
        try:
            parse_expression(text, coords)
        except ExpressionError:
            pass

    # grammar round-trip stability
    for _ in range(150):
        source = random_expression(rng, coords)
        tree = parse_expression(source, coords)
        assert parse_expression(print_expression(tree), coords) == tree
