import copy
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conproj import (
    ConnectionValue,
    ConprojError,
    DegenerateMetric,
    DomainError,
    Jet,
    MetricValue,
    check_compatibility,
    connection_at,
    christoffel,
    eps_residual,
    eval_expr,
    integrate_phi,
    invert_metric,
    load_scenario,
    load_scenario_path,
    metric_at,
    obstruction_at,
    parse_expression,
    print_expression,
    sample_null_vectors,
    sample_points,
    verify_recovery,
    with_conformal_factor,
    with_projective_shift,
)
from conproj.compatibility import CHUNK_POINTS, NullVector, _condition_a, _one_form
from conproj.expressions import Binary, Literal
from conproj.geometry import connection_traces, tracefree
from conproj.sampling import SplitMix64, point_stream, uniform_draws
from helpers import (
    draw_point,
    drift_doc,
    flat_doc,
    one_degenerate_sample_doc,
    polynomial,
    random_drift_incompatible_doc,
    random_explicit_incompatible_doc,
    rank_one_doc,
    rescaled_flat_doc,
    round_trip_doc,
    uniform,
)


def identity_metric(n, order=2):
    return MetricValue(Jet(n, order, np.eye(n)))


def flat_phi_obstructions():
    """Obstructions at the origin of a flat 2-d metric with the connection
    of exp(2*x1)-rescaled flat space."""
    return obstruction_at(load_scenario(rescaled_flat_doc()), (0.0, 0.0))


def own_connection_obstructions():
    """Obstructions of a flat 2-d metric against its own Levi-Civita connection."""
    return obstruction_at(load_scenario(flat_doc(2)), (0.3, -0.2))


def test_compat_tensor_vanishes_for_own_connection():
    tv = own_connection_obstructions().t_tensor.values()
    assert tv.shape == (2, 2, 2) and np.all(np.abs(tv) == 0.0)


def test_compat_tensor_hand_values():
    tv = flat_phi_obstructions().t_tensor.values()
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0 / 3.0
    expected[0, 1, 1] = 1.0
    expected[1, 0, 1] = expected[1, 1, 0] = -1.0 / 3.0
    assert np.allclose(tv, expected, atol=1e-15)
    # trace inherited from the trace-free projection
    assert abs(tv[0, 0, 0] + tv[1, 1, 0]) <= 1e-12
    assert abs(tv[0, 0, 1] + tv[1, 1, 1]) <= 1e-12


def test_trace_vector_hand_values():
    obs = flat_phi_obstructions()
    # coefficient (n+1)/((n+2)(n-1)) = 3/4 and (3/4)(1/3 + 1) = 1
    assert np.allclose(obs.t_up.values(), [1.0, 0.0])
    assert np.allclose(obs.t_down.values(), [1.0, 0.0])

    zero = own_connection_obstructions()
    assert not zero.t_up.values().any() and not zero.t_down.values().any()


def test_condition_a_hand_values():
    # spot slot (0,0,0): 1/3 - 1 + 1/3 + 1/3 = 0, and every other slot too
    assert np.max(np.abs(flat_phi_obstructions().a)) < 1e-15
    assert not own_connection_obstructions().a.any()
    assert flat_phi_obstructions().a_residual < 1e-15
    assert own_connection_obstructions().a_residual == 0.0


def test_condition_b_hand_values():
    assert not flat_phi_obstructions().b.any()  # T_i constant here
    assert flat_phi_obstructions().b_residual == 0.0


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
    tv = obs.t_tensor.values()
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
    assert obs.a_residual <= 1e-14 and obs.b_residual == 1.0
    # B is exactly antisymmetric
    assert (obs.b == -obs.b.T).all()


def _one_form_oracle(scn, point):
    """T_i and d_k T_i in plain numpy from metric_at and connection_at: the full tensor
    tracefree(Gamma_LC - Gamma) and its derivative, contracted with g^jk and then g_ij."""
    n = scn.dimension
    g = metric_at(scn, point, 2).jet
    gamma = connection_at(scn, point, 1).jet
    ginv = np.linalg.inv(g.value)
    dginv = -np.einsum("ia,abl,bj->ijl", ginv, g.gradient, ginv)
    dg, ddg = g.gradient, g.hessian  # [p, q, k] = d_k g_pq, [p, q, k, l] = d_l d_k g_pq
    lc = dg + dg.transpose(0, 2, 1) - dg.transpose(2, 0, 1)  # d_k g_pj + d_j g_pk - d_p g_jk
    dlc = ddg + ddg.transpose(0, 2, 1, 3) - ddg.transpose(2, 0, 1, 3)
    d = 0.5 * np.einsum("ip,pjk->ijk", ginv, lc) - gamma.value
    dd = (0.5 * np.einsum("ipl,pjk->ijkl", dginv, lc) + 0.5 * np.einsum("ip,pjkl->ijkl", ginv, dlc)
          - gamma.gradient)
    eye = np.eye(n)
    t = d - (np.einsum("ij,k->ijk", eye, np.einsum("ppk->k", d))
             + np.einsum("ik,j->ijk", eye, np.einsum("ppj->j", d))) / (n + 1)
    dt = dd - (np.einsum("ij,kl->ijkl", eye, np.einsum("ppkl->kl", dd))
               + np.einsum("ik,jl->ijkl", eye, np.einsum("ppjl->jl", dd))) / (n + 1)
    c = (n + 1) / ((n + 2) * (n - 1))
    up = c * np.einsum("jk,ijk->i", ginv, t)
    dup = c * (np.einsum("jkl,ijk->il", dginv, t) + np.einsum("jk,ijkl->il", ginv, dt))
    return g.value @ up, np.einsum("ijl,j->il", dg, up) + g.value @ dup


def _recipe_docs(rng, n, q):
    """Scenarios over one metric of signature (q, n - q), one per recipe kind: explicit,
    levi_civita of a second metric, modified_s with s (the second metric) and with a
    potential (the scenario's), and the projective_transform of each."""
    doc, _ = round_trip_doc(rng, n, negative=q, samples=3)
    coords, psi = doc["coordinates"], doc["connection"]["psi"]
    h = doc["connection"]["base"]["metric"]
    s = [polynomial(rng, coords, scale=0.4, max_terms=3) for _ in range(n)]
    potential = polynomial(rng, coords, scale=0.4, max_terms=4)
    gamma = random_explicit_incompatible_doc(rng, n, negative=q)["connection"]["gamma"]
    recipes = [
        {"kind": "explicit", "gamma": gamma},
        {"kind": "levi_civita", "metric": h},
        {"kind": "modified_s", "metric": h, "s": s},
        {"kind": "modified_s", "metric": doc["metric"], "potential": potential},
    ]
    recipes += [{"kind": "projective_transform", "base": r, "psi": psi} for r in recipes]
    return [dict(doc, connection=recipe) for recipe in recipes]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_one_form_and_its_gradient_match_a_plain_numpy_oracle(n):
    # T_i comes from the traces of Gamma_LC and of the recipe, never from the tensor T^i_jk;
    # the oracle contracts the full trace-free tensor.  Every recipe kind, every (n, q).
    rng = np.random.default_rng(1972 + n)
    for q in range(n + 1):
        for doc in _recipe_docs(rng, n, q):
            scn = load_scenario(doc)
            point = sample_points(scn, 1, seed=q)[0]
            value, gradient = _one_form_oracle(scn, point)
            down = obstruction_at(scn, point).t_down.jet
            scale = max(1.0, np.max(np.abs(value)), np.max(np.abs(gradient)))
            kind = doc["connection"]["kind"]
            assert np.max(np.abs(down.value - value)) <= 1e-13 * scale, (n, q, kind)
            assert np.max(np.abs(down.gradient - gradient)) <= 1e-13 * scale, (n, q, kind)


@pytest.mark.parametrize("n", [6, 8])
def test_round_trips_and_drifts_get_their_verdicts_at_n_6_and_8(n):
    rng = np.random.default_rng(2026 + n)
    doc, _ = round_trip_doc(rng, n, lorentzian=True, samples=8)
    scn = load_scenario(doc)
    report = check_compatibility(scn)
    assert (report.verdict, report.eps_verdict) == ("compatible", "holds")
    assert verify_recovery(scn, (0.0,) * n, samples=2).passed
    drift = check_compatibility(load_scenario(random_drift_incompatible_doc(rng, n, samples=8)))
    assert drift.verdict == "fails_B" and drift.max_a <= 1e-14


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
    g = MetricValue(Jet(2, 2, np.diag([-1.0, 1.0])))
    vectors = sample_null_vectors(g, 6, SplitMix64(5))
    assert len(vectors) == 6
    for nv in vectors:
        u = nv.u / np.max(np.abs(nv.u))
        # the 2-d cone is the pair of lines u2 = +/- u1
        assert math.isclose(abs(u[0]), abs(u[1]), rel_tol=1e-12)
        quad = float(u @ g.values() @ u)
        assert abs(quad) <= 1e-10 * float(u @ u)


def constant_metric(values):
    return MetricValue(Jet(len(values), 2, np.array(values, dtype=float)))


def test_sample_null_vectors_degenerate():
    for values in ([[1.0, 1.0], [1.0, 1.0]], [[-1e12, 0.0], [0.0, 1.0]]):
        with pytest.raises(DegenerateMetric):
            sample_null_vectors(constant_metric(values), 2, SplitMix64(1))
    # the determinant of a huge degenerate metric overflows, with no numpy warning
    with pytest.raises(DegenerateMetric, match=r"det=-inf"):
        sample_null_vectors(constant_metric(1e300 * np.diag([1.0, 1e-11, 1.0, -1.0])), 2,
                            SplitMix64(1))


def test_sample_null_vectors_judge_degeneracy_by_the_eigenvalue_ratio():
    # indefinite, so the kernel draws, but the eigenvalue magnitudes are 1e20 apart:
    # the call raises with the determinant before any draw is used
    rng = SplitMix64(9)
    g = MetricValue(Jet(3, 0, np.diag([1.0, 1e-20, -1.0])), point=(0.5, 0.25, 0.0))
    with pytest.raises(DegenerateMetric, match=r"det=-1\.000000e-20") as excinfo:
        sample_null_vectors(g, 4, rng)
    assert excinfo.value.point == (0.5, 0.25, 0.0) and rng.state == SplitMix64(9).state


def test_sample_null_vectors_on_a_subnormal_metric():
    # the entries are subnormal, and the legs are measured on the metric scaled near 1
    rng, plain = SplitMix64(1), SplitMix64(1)
    vectors = sample_null_vectors(constant_metric(np.diag([-1e-318, 1e-318])), 4, rng)
    plain.skip(4 * 2)
    assert len(vectors) == 4 and rng.state == plain.state
    for nv in vectors:  # the 2-d cone is the pair of lines u2 = +/- u1
        assert np.max(np.abs(np.abs(nv.u) - 1.0)) <= 1e-15


def _zero_draws(states, positions, lo, hi):
    return np.zeros(np.broadcast_shapes(np.shape(states), np.shape(positions)))


def test_sample_null_vectors_from_zero_draws_lose_precision_and_draw_nothing(monkeypatch):
    import conproj.compatibility as compatibility

    # a leg of zero draws has g(leg, leg) = 0: its NaN must fail the precision test
    monkeypatch.setattr(compatibility, "uniform_draws", _zero_draws)
    rng = SplitMix64(1)
    g = MetricValue(Jet(2, 0, np.diag([-1.0, 1.0])), point=(0.25, -0.5))
    with pytest.raises(ConprojError, match=r"lost precision at point \(0\.25, -0\.5\)$"):
        sample_null_vectors(g, 4, rng)
    assert rng.state == SplitMix64(1).state


def _reference_null_vectors(values, count, rng):
    """Null vectors by the documented recipe, one scalar draw at a time: per vector a plus
    leg of n - m draws on the eigenvectors of the positive eigenvalues, then a minus leg of
    m draws on those of the m negative ones, each divided by sqrt|g(leg, leg)|."""
    n = len(values)
    lam, vec = np.linalg.eigh(values)
    m = int(np.sum(lam < 0.0))
    if m in (0, n):
        return []
    vectors = []
    for _ in range(count):
        w = [0.0] * n
        for columns in (range(m, n), range(m)):
            c = [uniform(rng, -1.0, 1.0) for _ in columns]
            leg = [sum(vec[i][s] * x for s, x in zip(columns, c)) for i in range(n)]
            q = sum(leg[i] * values[i][j] * leg[j] for i in range(n) for j in range(n))
            w = [a + b / math.sqrt(abs(q)) for a, b in zip(w, leg)]
        top = max(abs(x) for x in w)
        vectors.append([x / top for x in w])
    return vectors


def _signature_metric(rng, n, q):
    """A well-conditioned symmetric n x n matrix with q negative eigenvalues."""
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < q, -1.0, 1.0)
    return (basis * lam) @ basis.T


def _assert_matches_reference(values, count, seed):
    rng, plain = SplitMix64(seed), SplitMix64(seed)
    vectors = sample_null_vectors(constant_metric(values), count, rng)
    expected = _reference_null_vectors(values, count, plain)
    assert len(vectors) == len(expected) and rng.state == plain.state
    for nv, u in zip(vectors, expected):
        assert np.max(np.abs(nv.u - u)) <= 1e-15 * np.max(np.abs(u)), (nv.u, u)
    return len(expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sample_null_vectors_match_a_scalar_reference_in_every_signature(n):
    rng = np.random.default_rng(40 + n)
    for q in range(n + 1):
        values = _signature_metric(rng, n, q)
        for count, seed in ((1, 3), (4, 2027), (9, 11)):
            found = _assert_matches_reference(values, count, seed)
            assert found == (count if 0 < q < n else 0)


@pytest.mark.parametrize("count", [6, 10_000])
def test_a_null_cone_draws_once_per_coefficient(monkeypatch, count):
    import conproj.compatibility as compatibility

    calls = []

    def counting(*args):
        calls.append(1)
        return uniform_draws(*args)

    monkeypatch.setattr(compatibility, "uniform_draws", counting)
    values, rng = _signature_metric(np.random.default_rng(7), 4, 1), SplitMix64(2027)
    first = sample_null_vectors(constant_metric(values), count, rng)
    plain = SplitMix64(2027)
    plain.skip(count * 4)
    assert len(first) == count and len(calls) == 1 and rng.state == plain.state
    again = sample_null_vectors(constant_metric(values), count, SplitMix64(2027))
    assert [v.u.tobytes() for v in first] == [v.u.tobytes() for v in again]


def test_a_power_of_four_multiple_of_the_metric_gives_the_same_null_vectors():
    # dyadic entries, exact down to 4^-530 G, where they are subnormal
    values = np.diag([-2.0, 1.0, 1.5, 1.0])
    values[0, 1] = values[1, 0] = 0.3125
    values[2, 3] = values[3, 2] = -0.1875
    expected = [v.u.tobytes() for v in sample_null_vectors(constant_metric(values), 12,
                                                           SplitMix64(2027))]
    assert len(expected) == 12
    for k in (-530, -500, -100, 100, 500):
        scaled = np.ldexp(values, 2 * k)
        assert np.array_equal(np.ldexp(scaled, -2 * k), values), k
        vectors = sample_null_vectors(constant_metric(scaled), 12, SplitMix64(2027))
        assert [v.u.tobytes() for v in vectors] == expected, k


def test_sample_null_vectors_rejects_a_negative_count():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        sample_null_vectors(constant_metric(np.diag([-1.0, 1.0])), -1, rng)
    assert rng.state == SplitMix64(1).state


@pytest.mark.parametrize("count", [2.0, 2.5, True])
def test_sample_null_vectors_rejects_a_count_that_is_not_an_int(count):
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="count must be a non-negative integer"):
        sample_null_vectors(constant_metric(np.diag([-1.0, 1.0])), count, rng)
    assert rng.state == SplitMix64(1).state


def test_check_names_the_point_where_null_cone_sampling_fails(monkeypatch):
    import conproj.compatibility as compatibility

    monkeypatch.setattr(compatibility, "uniform_draws", _zero_draws)
    path = Path(__file__).resolve().parents[1] / "scenarios" / "drift_lorentzian_3d.json"
    scn = load_scenario_path(path)
    with pytest.raises(ConprojError, match="null-cone sampling lost precision") as excinfo:
        check_compatibility(scn, samples=5)
    assert str(excinfo.value).endswith(f" at point {sample_points(scn, 5)[0]}")


def test_a_non_finite_figure_fails_its_point():
    # S^3 = 1.7e308 x2 overflows d_k T_i at every sample, so B is not finite there: the
    # figures' guard raises at the first point, where max A = max B = nan would read compatible
    path = Path(__file__).resolve().parents[1] / "scenarios" / "drift_lorentzian_3d.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["connection"]["s"] = ["0", "0", "1.7e308*x2"]
    scn = load_scenario({**doc, "samples": 20})
    point = sample_points(scn)[0]
    assert point == (0.1967264843346619, 0.24312266373340297, 0.6352728864981023)
    for run in (lambda: check_compatibility(scn), lambda: obstruction_at(scn, point)):
        with pytest.raises(DomainError) as excinfo:
            run()
        assert str(excinfo.value) == f"non-finite component in jet arithmetic at point {point}"
        assert excinfo.value.point == point


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_sweep_and_obstruction_at_agree_bit_for_bit(n):
    # the check's arrays and the one-point value classes come from one computation of the figures
    rng = np.random.default_rng(60 + n)
    docs = [round_trip_doc(rng, n, samples=8, negative=q)[0] for q in (0, 1)]
    docs += [random_drift_incompatible_doc(rng, n, samples=8),
             random_explicit_incompatible_doc(rng, n, samples=8)]
    for doc in docs:
        scn = load_scenario(doc)
        report = check_compatibility(scn)
        assert len(report.per_point) == 8
        for summary in report.per_point:
            obs = obstruction_at(scn, summary.point)
            figures = (obs.a_residual, obs.b_residual, obs.scale)
            assert (summary.a, summary.b, summary.scale) == figures


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
    g2 = MetricValue(Jet(2, 2, np.diag([-1.0, 1.0])))
    comps = np.zeros((2, 2, 2))
    comps[0, 1, 1] = 1.0
    gamma2 = ConnectionValue(Jet(2, 1, comps))
    u = NullVector(point=None, u=np.array([1.0, 1.0]))
    residual = eps_residual(g2, gamma2, u)
    assert math.isclose(residual, 0.25)
    assert residual > 0.0

    for bad in (np.zeros(2), [math.nan, 1.0], [1.0, -math.inf], [1, 10**400]):
        with pytest.raises(ValueError, match="^direction vector must be finite and nonzero$"):
            eps_residual(g2, gamma2, bad)
    with pytest.raises(ValueError, match="metric jets of order >= 1"):
        eps_residual(MetricValue(Jet(2, 0, np.diag([-1.0, 1.0]))), gamma2, u)
    for bad in (np.zeros(2), np.ones((2, 2)), [math.nan, 1.0], [math.inf, 1.0], [1, 10**400]):
        with pytest.raises(ValueError, match="^null vector must be a finite, nonzero 1-d array$"):
            NullVector(point=None, u=bad)


def test_null_vectors_and_eps_take_one_point_and_matching_dimensions():
    lorentzian = np.diag([-1.0, 1.0])
    g = constant_metric(lorentzian)
    stack = MetricValue(Jet(2, 2, np.stack([lorentzian, 2.0 * lorentzian, np.diag([1.0, -3.0])])))
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="takes a metric at one point"):
        sample_null_vectors(stack, 2, rng)
    assert rng.state == SplitMix64(1).state
    u = np.array([1.0, 1.0])
    gamma = christoffel(g)
    for metric, connection in ((stack, gamma), (g, christoffel(stack))):
        with pytest.raises(ValueError, match="a metric and a connection at one point"):
            eps_residual(metric, connection, u)
    with pytest.raises(ValueError, match="connection dimension mismatch"):
        eps_residual(g, ConnectionValue(Jet(3, 1, np.zeros((3, 3, 3)))), u)
    for bad in (np.array([1.0, 1.0, 0.0]), np.array([[1.0, 1.0]])):
        with pytest.raises(ValueError, match="direction vector must have 2 components"):
            eps_residual(g, gamma, bad)


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


SIGNATURES = [(n, q) for n in range(2, 6) for q in range(n + 1)]


@pytest.mark.parametrize("n, q", SIGNATURES)
def test_round_trips_are_compatible_in_every_signature(n, q):
    # q negative diagonal bases; EPS has null directions exactly when g is indefinite
    doc, _ = round_trip_doc(np.random.default_rng(100 * n + q), n, samples=12, negative=q)
    scn = load_scenario(doc)
    report = check_compatibility(scn)
    assert report.verdict == "compatible", (n, q)
    assert report.eps_verdict == ("vacuous" if q in (0, n) else "holds"), (n, q)
    assert verify_recovery(scn, (0.0,) * n, samples=2).passed, (n, q)


def _signed_drift_doc(n, q, connection):
    """diag(-1 (q times), 1, ..., 1) with a ``modified_s`` connection over it."""
    diag = ["-1"] * q + ["1"] * (n - q)
    metric = [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]
    return {
        "dimension": n,
        "coordinates": [f"x{i + 1}" for i in range(n)],
        "box": {"min": [-1.0] * n, "max": [1.0] * n},
        "metric": metric,
        "connection": {"kind": "modified_s", "metric": metric, **connection},
        "samples": 10,
        "seed": 3,
    }


@pytest.mark.parametrize("n, q", [(n, q) for n, q in SIGNATURES if n >= 3 and 0 < q < n])
def test_drifts_fail_b_in_every_indefinite_signature_and_their_gradient_twins_pass(n, q):
    s = ["0"] * (n - 1) + ["x2"]
    report = check_compatibility(load_scenario(_signed_drift_doc(n, q, {"s": s})))
    assert (report.verdict, report.eps_verdict) == ("fails_B", "holds"), (n, q)
    assert abs(report.max_b - 1.0) <= 1e-12, (n, q)
    twin = _signed_drift_doc(n, q, {"potential": f"x2*x{n}"})
    report = check_compatibility(load_scenario(twin))
    assert (report.verdict, report.eps_verdict) == ("compatible", "holds"), (n, q)


def test_degenerate_sampling_is_fatal_when_frequent():
    scn = load_scenario(rank_one_doc())
    with pytest.raises(DegenerateMetric):
        check_compatibility(scn)


def test_a_constant_degenerate_metric_fails_at_the_first_sample():
    # the behaviour a plan that folds its constant steps once must keep
    doc = flat_doc(2)
    doc["metric"] = [["1", "1"], [None, "1"]]
    scn = load_scenario(doc)
    first = (-0.7659340392136929, 0.46138176022549127)
    assert sample_points(scn)[0] == first
    message = (f"metric is numerically degenerate at point {first} (det=0.000000e+00); "
               "1 of 10 sample points degenerate")
    for call in (lambda: check_compatibility(scn), lambda: verify_recovery(scn, (0, 0))):
        with pytest.raises(DegenerateMetric) as excinfo:
            call()
        assert str(excinfo.value) == message and excinfo.value.point == first
    with pytest.raises(DegenerateMetric) as excinfo:
        obstruction_at(scn, (0.1, 0.2))
    assert excinfo.value.point == (0.1, 0.2)


def test_report_is_deterministic():
    scn = load_scenario(drift_doc(samples=15))
    first = check_compatibility(scn)
    second = check_compatibility(scn)
    assert first == second


def test_a_pickled_scenario_leaves_its_compiled_plans_behind():
    import pickle

    scn = load_scenario(drift_doc(samples=15))
    report = check_compatibility(scn)
    assert scn.__dict__["_plans"]
    clone = pickle.loads(pickle.dumps(scn))
    assert "_plans" not in clone.__dict__ and clone == scn
    assert check_compatibility(clone) == report


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


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1 + x1^100000", "integer exponent magnitude exceeds 9999"),
        ("x1^(1e400)", "non-finite exponent"),
        ("1e400", "constant must be finite"),
        ("x1 + 2^100000", r"^integer exponent magnitude exceeds 9999 in '2\.0\^100000\.0' at"),
    ],
)
def test_an_error_at_every_point_names_the_first_sample_point(entry, message):
    doc = flat_doc(2)
    doc["metric"] = [[entry, "0"], [None, "1"]]
    scn = load_scenario(doc)
    with pytest.raises(DomainError, match=message) as excinfo:
        check_compatibility(scn)
    assert excinfo.value.point == sample_points(scn)[0]


def test_check_explicit_connection_fails_a():
    doc = flat_doc(2)
    gamma = [[["0", "1"], [None, "0"]], [["0", "0"], [None, "0"]]]  # G^0_01 = G^0_10 = 1
    doc["connection"] = {"kind": "explicit", "gamma": gamma}
    report = check_compatibility(load_scenario(doc))
    assert report.verdict == "fails_A"
    assert math.isclose(report.max_a, 0.5, rel_tol=1e-12) and report.max_b == 0.0
    # G^0_00 near the largest double: A, B and the scale are finite, though their sum is not
    for big in ("1e307", "1.5e308"):
        gamma = [[[big, "0"], [None, "0"]], [["0", "0"], [None, "0"]]]
        doc["connection"] = {"kind": "explicit", "gamma": gamma}
        report = check_compatibility(load_scenario(doc))
        assert report.verdict == "fails_A"
        assert math.isclose(report.max_a, 0.25, rel_tol=1e-12) and report.max_b == 0.0


def test_single_degenerate_point_is_skipped_with_its_det():
    # the metric degenerates exactly at one sample point
    doc, bad_point = one_degenerate_sample_doc()
    report = check_compatibility(load_scenario(doc))
    assert report.skipped == ((bad_point, 0.0),)
    assert len(report.per_point) == 149
    assert bad_point not in [s.point for s in report.per_point]
    assert report.verdict == "compatible"
    assert report.max_a == max(s.a for s in report.per_point)
    assert report.max_b == max(s.b for s in report.per_point)


def test_a_degenerate_sample_in_a_later_chunk_is_skipped():
    count = CHUNK_POINTS + 100
    doc, bad_point = one_degenerate_sample_doc(count, CHUNK_POINTS + 37)
    scn = load_scenario(doc)
    report = check_compatibility(scn)
    assert report.skipped == ((bad_point, 0.0),)
    assert len(report.per_point) == count - 1
    assert verify_recovery(scn, (0.5, 0.5)).passed


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    import conproj.compatibility as compatibility

    rng = np.random.default_rng(2027)
    docs = [
        round_trip_doc(rng, 3, samples=150, lorentzian=True)[0],
        round_trip_doc(rng, 3, samples=150)[0],
        drift_doc(samples=150),
        random_explicit_incompatible_doc(rng, 3, samples=150, negative=1),
        one_degenerate_sample_doc()[0],  # its degenerate sample 37 opens the second chunk of 37
    ]
    reports = []
    for size in (37, 1024):
        monkeypatch.setattr(compatibility, "CHUNK_POINTS", size)
        reports.append([check_compatibility(load_scenario(doc)) for doc in docs])
    assert reports[0] == reports[1]
    assert [len(r.skipped) for r in reports[0]] == [0, 0, 0, 0, 1]
    assert [r.null_vectors > 0 for r in reports[0]] == [True, False, True, True, False]


def test_a_point_fails_with_the_first_error_of_metric_connection_and_inverse():
    # At the degenerate sample the connection divides by zero too.  The
    # recipe's error precedes the scenario metric's inverse, so the point
    # raises instead of being skipped.
    doc, bad_point = one_degenerate_sample_doc()
    cut = f"(x1 - {bad_point[0]!r})"
    zero = [["0", "0"], [None, "0"]]
    doc["connection"] = {"kind": "explicit", "gamma": [[[f"2/{cut}", "0"], [None, "0"]], zero]}
    scn = load_scenario(doc)
    calls = (
        lambda: check_compatibility(scn),
        lambda: obstruction_at(scn, bad_point),
        lambda: verify_recovery(scn, (0.5, 0.5), samples=150, seed=11),
    )
    for call in calls:
        with pytest.raises(DomainError, match="division by zero") as excinfo:
            call()
        assert excinfo.value.path == print_expression(parse_expression(f"2/{cut}", ["x1", "x2"]))
        assert excinfo.value.point == bad_point
    # an entry of the scenario metric that fails there precedes the recipe
    doc["metric"] = [["1", "0"], [None, f"2 + sin(1/{cut})"]]
    with pytest.raises(DomainError, match="division by zero") as excinfo:
        check_compatibility(load_scenario(doc))
    assert excinfo.value.path == print_expression(parse_expression(f"1/{cut}", ["x1", "x2"]))
    assert excinfo.value.point == bad_point


def _stacked_failures_doc(scenario_degenerate, recipe_degenerate, psi_fails):
    """At sample 37 of 150 (seed 11): the scenario metric diag(2, 2 h) and the projective
    transform of the Levi-Civita connection of diag(3, 3 h), with h = (x1 - c)^2 + 1e-14
    where a metric degenerates there (det 4e-14 and 9e-14) and h = 1 where it does not, and
    psi_1 = 1/(x1 - c) (division by zero there) or 0.  Returns the document and the point."""
    doc, point = one_degenerate_sample_doc()
    h = f"((x1 - {point[0]!r})^2 + 1e-14)"
    doc["metric"] = [["2", "0"], [None, f"2*{h}" if scenario_degenerate else "2"]]
    recipe = [["3", "0"], [None, f"3*{h}" if recipe_degenerate else "3"]]
    doc["connection"] = {
        "kind": "projective_transform",
        "base": {"kind": "levi_civita", "metric": recipe},
        "psi": [f"1/(x1 - {point[0]!r})" if psi_fails else "0", "0"],
    }
    return doc, point


@pytest.mark.parametrize(
    "scenario_degenerate, recipe_degenerate, psi_fails, det",
    [
        # plan order: the recipe metric's inverse, then psi, then the scenario metric's
        (True, True, False, 9e-14),  # the recipe's degeneracy precedes the scenario's
        (False, True, True, 9e-14),  # ... and psi's error: the point is skipped
        (True, False, True, None),  # psi's error precedes the scenario metric's
        (True, True, True, 9e-14),
    ],
)
def test_each_metric_of_the_stack_fails_a_point_under_its_own_inverse(
    scenario_degenerate, recipe_degenerate, psi_fails, det
):
    doc, point = _stacked_failures_doc(scenario_degenerate, recipe_degenerate, psi_fails)
    scn = load_scenario(doc)
    if det is None:
        calls = (
            lambda: check_compatibility(scn),
            lambda: obstruction_at(scn, point),
            lambda: verify_recovery(scn, (0.5, 0.5)),
        )
        for call in calls:
            with pytest.raises(DomainError, match="division by zero") as excinfo:
                call()
            assert excinfo.value.path == f"1.0/(x1 - {point[0]!r})"
            assert excinfo.value.point == point
        return
    ((skipped, skipped_det),) = check_compatibility(scn).skipped
    assert skipped == point and math.isclose(skipped_det, det, rel_tol=1e-6)
    with pytest.raises(DegenerateMetric) as excinfo:
        obstruction_at(scn, point)
    assert excinfo.value.point == point and math.isclose(excinfo.value.det, det, rel_tol=1e-6)
    if scenario_degenerate:  # the two metrics are proportional, so T is roundoff
        assert verify_recovery(scn, (0.5, 0.5)).samples == 150


_NON_POSITIVE_BASE = "power with non-positive base requires an integer exponent"


@pytest.mark.parametrize(
    "entry, path, message, both_slots",
    [
        ("2 + log(x1)", "log(x1)", "log of a non-positive value", False),
        ("1 + exp(800*x1)", "exp(800.0*x1)", "exp overflow", True),
        ("1 + x1^0.5", "x1^0.5", _NON_POSITIVE_BASE, False),
        ("1 + x1^(-400)", "x1^-400.0", "division by zero", True),
        ("1 + exp(400*x1)*exp(400*x1)", "exp(400.0*x1)*exp(400.0*x1)",
         "non-finite component in jet arithmetic", True),
        ("2 + x2^x1", "x2^x1", _NON_POSITIVE_BASE, False),
        ("1 + 1/(x1 - x1)", "1.0/(x1 - x1)", "division by zero", False),
    ],
)
def test_a_check_raises_the_error_of_its_first_failing_sample_alone(
    entry, path, message, both_slots
):
    doc = flat_doc(2, samples=40, seed=3)
    doc["metric"] = [[entry, "0"], [None, entry if both_slots else "1"]]
    doc["connection"] = {"kind": "explicit", "gamma": [[["0", "0"], [None, "0"]]] * 2}
    scn = load_scenario(doc)
    with pytest.raises(DomainError) as excinfo:
        check_compatibility(scn)
    tree = parse_expression(entry, ["x1", "x2"])
    alone = []
    for p in sample_points(scn):
        try:
            eval_expr(tree, p)
        except DomainError as err:
            alone.append(err)
    assert alone, "the entry fails at no sample"
    assert (excinfo.value.path, excinfo.value.message) == (path, message)
    assert excinfo.value.point == alone[0].point
    assert str(excinfo.value) == str(alone[0])


@pytest.mark.parametrize("chunk", [7, 1024])
def test_an_error_at_every_point_precedes_an_earlier_error_at_one_point(monkeypatch, chunk):
    # sqrt(x1) fails at the point first, but x1^100000 fails at every point; at a
    # chunk size of 7 the 40 samples span six chunks.
    import conproj.compatibility as compatibility

    monkeypatch.setattr(compatibility, "CHUNK_POINTS", chunk)
    doc = flat_doc(2, samples=40, seed=3)
    doc["metric"] = [["2 + sqrt(x1)", "0"], [None, "1"]]
    zero = [["0", "0"], [None, "0"]]
    doc["connection"] = {"kind": "explicit", "gamma": [[["x1^100000", "0"], [None, "0"]], zero]}
    scn = load_scenario(doc)
    message = "integer exponent magnitude exceeds 9999 in 'x1^100000.0'"
    with pytest.raises(DomainError, match=re.escape(message)) as excinfo:
        check_compatibility(scn)
    assert excinfo.value.point == sample_points(scn)[0]
    point = (-0.5, 0.1)
    for call in (obstruction_at, connection_at):
        with pytest.raises(DomainError) as excinfo:
            call(scn, point)
        assert str(excinfo.value) == f"{message} at point {point}"


def test_check_and_recovery_evaluate_each_sample_once(monkeypatch):
    from conproj.expressions import Plan

    shapes, run = [], Plan.run

    def counting(plan, points):
        batch = run(plan, points)
        shapes.append(batch.shape)
        return batch

    monkeypatch.setattr(Plan, "run", counting)
    doc, bad_point = one_degenerate_sample_doc()
    scn = load_scenario(doc)
    assert check_compatibility(scn).skipped == ((bad_point, 0.0),)
    assert shapes == [(150,)]
    assert verify_recovery(scn, (0.5, 0.5)).passed
    assert shapes[1] == (150,) and () not in shapes


def test_check_after_400_conformal_factors_returns_a_report():
    # Each call wraps every metric entry one level deeper; the mirrored entries become
    # distinct, equal trees 400 levels deep.
    path = Path(__file__).resolve().parents[1] / "scenarios" / "flat_euclidean_2d.json"
    scn = load_scenario_path(path)
    for _ in range(400):
        scn = with_conformal_factor(scn, "0.001*x1")
    report = check_compatibility(scn, samples=5)
    assert report.verdict == "compatible" and report.samples == 5


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


def _scaled_minkowski_doc(scale, n=3, c=1.0):
    """Minkowski metric diag(-c^2, 1, ..., 1) times ``scale``, with the
    Levi-Civita connection of the unscaled metric."""
    diag = [f"-{c * c!r}"] + ["1"] * (n - 1)
    rows = [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]
    scaled = [[f"{scale!r}*({entry})" for entry in row] for row in rows]
    return {
        "dimension": n,
        "coordinates": [f"x{i + 1}" for i in range(n)],
        "box": {"min": [-1.0] * n, "max": [1.0] * n},
        "metric": scaled,
        "connection": {"kind": "levi_civita", "metric": rows},
        "samples": 20,
        "seed": 5,
    }


def test_constant_rescaling_of_the_metric_keeps_the_verdict():
    # the shared metric is unique only up to a constant factor
    for n in (3, 4):
        unit = check_compatibility(load_scenario(_scaled_minkowski_doc(1.0, n)))
        assert unit.verdict == "compatible" and unit.eps_verdict == "holds"
        assert unit.null_vectors > 0
        for scale in (8e-309, 1e-200, 1e-100, 1e7, 1e200):
            scaled = check_compatibility(load_scenario(_scaled_minkowski_doc(scale, n)))
            assert scaled.verdict == "compatible" and scaled.eps_verdict == "holds", scale
            assert scaled.null_vectors == unit.null_vectors and not scaled.skipped


def test_no_representative_moves_the_drift_verdict():
    # the reported A and B are divided by a scale that no representative moves:
    # max(1, |Gamma|, |g| |g^-1|), Gamma the connection without its projective shift
    path = Path(__file__).resolve().parents[1] / "scenarios" / "drift_lorentzian_3d.json"
    scn = load_scenario_path(path)
    report = check_compatibility(scn)
    assert report.verdict == "fails_B" and report.max_b == 1.0
    changes = {}
    for k in (20, -20):  # g -> 4^k g with the same connection
        metric = tuple(tuple(Binary("*", Literal(4.0**k), e) for e in row) for row in scn.metric)
        changes[f"g*4^{k}"] = dataclasses.replace(scn, metric=metric)
    for sigma in ("10", "-10", "12*x1", "-12*x1"):
        changes[f"sigma={sigma}"] = with_conformal_factor(scn, sigma)
    for i in range(scn.dimension):
        psi = ["1e12" if j == i else "0" for j in range(scn.dimension)]
        changes[f"psi{i + 1}=1e12"] = with_projective_shift(scn, psi)
    for name, changed in changes.items():
        moved = check_compatibility(changed)
        assert moved.verdict == "fails_B", (name, moved.verdict, moved.max_b)
        assert math.isclose(moved.max_b, report.max_b, rel_tol=1e-12), (name, moved.max_b)
        assert moved.max_a <= 1e-13, (name, moved.max_a)


def _own_connection_doc(entries, samples, seed=5):
    """A scenario on the metric of expression ``entries`` and its Levi-Civita connection."""
    doc = flat_doc(len(entries), samples=samples, seed=seed)
    doc["metric"] = entries
    doc["connection"] = {"kind": "levi_civita", "metric": entries}
    return doc


def test_the_inverse_alone_judges_degeneracy_in_check_and_recovery():
    # diag(1, -5e-11) turned by 45 degrees: max|g_ij| * max|g^ij| is 5e9, under the 1e10
    # of the default rank tolerance, while its eigenvalue magnitudes are 2e10 apart
    entries = [["0.5 - 2.5e-11", "0.5 + 2.5e-11"], [None, "0.5 - 2.5e-11"]]
    scn = load_scenario(_own_connection_doc(entries, 20))
    g = metric_at(scn, (0.0, 0.0), 1)
    invert_metric(g)  # accepted
    report = check_compatibility(scn)
    assert (report.verdict, report.eps_verdict) == ("compatible", "holds")
    assert not report.skipped and len(report.per_point) == 20 and report.null_vectors == 80
    assert verify_recovery(scn, (0.0, 0.0), samples=20).passed
    # with no inverse, sample_null_vectors judges by the eigenvalue ratio
    rng = SplitMix64(3)
    with pytest.raises(DegenerateMetric, match=r"det=-5\.0000\d*e-11") as excinfo:
        sample_null_vectors(g, 4, rng)
    assert math.isclose(excinfo.value.det, -5e-11, rel_tol=1e-5)
    assert rng.state == SplitMix64(3).state


def _hadamard_metric(eigenvalues):
    """Entries of H diag(eigenvalues) H for the symmetric orthogonal 4 x 4 Hadamard matrix
    H = s / 2, so g_ij = sum_k s_ik s_jk eigenvalues[k] / 4."""
    s = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    terms = lambda i, j: [f"({s[i][k] * s[j][k] / 4})*({lam})" for k, lam in enumerate(eigenvalues)]
    return [[None if j < i else " + ".join(terms(i, j)) for j in range(4)] for i in range(4)]


def test_check_and_recovery_keep_the_points_that_the_inverse_keeps(monkeypatch):
    import conproj.compatibility as compatibility

    # eigenvalues (x1 - c)^2 / 4, 1, 1 and -4e-11: singular at sample 37, whose x1 is c;
    # elsewhere max|g_ij| * max|g^ij| is under 5e9 while the eigenvalue ratio is about 2.5e10
    doc = flat_doc(4, samples=150, seed=11)
    bad_point = sample_points(load_scenario(doc))[37]
    entries = _hadamard_metric([f"(x1 - {bad_point[0]!r})^2 / 4", "1", "1", "-4e-11"])
    scn = load_scenario(_own_connection_doc(entries, 150, 11))
    keeps, skip = [], compatibility._skipped

    def recording(*args):
        keeps.append(skip(*args))
        return keeps[-1]

    monkeypatch.setattr(compatibility, "_skipped", recording)
    report = check_compatibility(scn)
    assert verify_recovery(scn, (0.1, 0.1, 0.1, 0.1)).passed
    (check_keep, check_skipped), (verify_keep, verify_skipped) = keeps
    assert np.flatnonzero(~check_keep).tolist() == [37]
    assert np.array_equal(check_keep, verify_keep) and check_skipped == verify_skipped
    assert [point for point, _ in report.skipped] == [bad_point]
    assert (report.verdict, report.eps_verdict) == ("compatible", "holds")
    assert report.null_vectors == 8 * 149


@pytest.mark.parametrize("n, c", [(4, 100.0), (3, 1000.0)])
def test_an_anisotropic_minkowski_metric_is_not_degenerate(n, c):
    # condition number c^2, far under 1 / rank, though |det| = c^2 falls
    # under rank * max|g_ij|^n = 1e-10 * c^(2n)
    scn = load_scenario(_scaled_minkowski_doc(1.0, n, c))
    report = check_compatibility(scn)
    assert report.verdict == "compatible" and report.eps_verdict == "holds"
    assert not report.skipped and len(report.per_point) == scn.samples
    g = metric_at(scn, (0.1,) * n, 1)
    assert np.allclose(invert_metric(g).values() @ g.values(), np.eye(n), rtol=0.0, atol=1e-15)
    assert integrate_phi(scn, (0.0,) * n, (0.5,) * n) == 0.0


def test_sample_null_vectors_on_a_huge_metric():
    values = 1e200 * np.array([[-1.0, 0.3], [0.3, 1.0]])
    g = MetricValue(Jet(2, 2, values))
    vectors = sample_null_vectors(g, 4, SplitMix64(9))
    assert len(vectors) == 4
    unit = values / 1e200
    for nv in vectors:
        assert abs(float(nv.u @ unit @ nv.u)) <= 1e-10 * float(nv.u @ nv.u)


_GAMMA_2D = [[["0.3*x2", "0.5"], [None, "x1"]], [["0.2", "-0.4*x1"], [None, "0.7"]]]


def _two_d_doc(metric, samples, seed):
    return {
        "dimension": 2,
        "coordinates": ["x1", "x2"],
        "box": {"min": [-1.0, -1.0], "max": [1.0, 1.0]},
        "metric": metric,
        "connection": {"kind": "explicit", "gamma": _GAMMA_2D},
        "samples": samples,
        "seed": seed,
    }


def _assert_check_matches_one_point_calls(scn):
    """Per-point EPS and null-vector count of the batched check against
    sample_null_vectors and eps_residual at each point, on each point's
    stream continued after its coordinates."""
    report = check_compatibility(scn)
    assert not report.skipped and len(report.per_point) == scn.samples
    n, nulls_per_point = scn.dimension, 2 * scn.dimension
    total = 0
    for index, summary in enumerate(report.per_point):
        stream = point_stream(scn.seed, index)
        point = draw_point(stream, scn.box_min, scn.box_max)
        assert summary.point == point
        plain = copy.copy(stream)
        g = metric_at(scn, point, 1)
        nulls = sample_null_vectors(g, nulls_per_point, stream)
        total += len(nulls)
        if not nulls:
            assert summary.eps is None
            continue
        plain.skip(nulls_per_point * n)  # one draw per coefficient
        assert plain.state == stream.state
        gamma = connection_at(scn, point, 1)
        expected = max(eps_residual(g, gamma, nv) for nv in nulls)
        assert abs(summary.eps - expected) <= 1e-13 * expected, (point, summary.eps, expected)
    assert report.null_vectors == total


def test_batched_null_cone_matches_one_point_calls_on_one_draw_legs():
    # each leg of a 2-d Lorentzian metric is one draw times an eigenvector
    metric = [["-1 + 0.1*x1*x2", "0.2*x1"], [None, "1 + 0.05*x2^2"]]
    scn = load_scenario(_two_d_doc(metric, 300, 11))
    _assert_check_matches_one_point_calls(scn)


def test_batched_null_cone_matches_one_point_calls_in_a_mixed_signature_box():
    scn = load_scenario(_two_d_doc([["x1", "0"], [None, "1"]], 300, 3))
    _assert_check_matches_one_point_calls(scn)
    report = check_compatibility(scn)
    lorentzian = [s for s in report.per_point if s.eps is not None]
    assert 0 < len(lorentzian) < len(report.per_point)
    assert all(s.point[0] < 0.0 for s in lorentzian)


@pytest.mark.parametrize("n", [3, 4])
def test_eps_read_off_condition_a_matches_eps_residual_of_the_difference(n):
    # check reads EPS off A; eps_residual, the oracle, keeps D = Gamma_LC - Gamma.  A
    # generic explicit connection over a Lorentzian metric has A != D at every point
    scn = load_scenario(random_explicit_incompatible_doc(np.random.default_rng(n), n, samples=40,
                                                         negative=1))
    obs = obstruction_at(scn, (0.1, -0.2, 0.3, 0.4)[:n])
    gamma_lc, gamma = christoffel(metric_at(scn, obs.point, 1)), connection_at(scn, obs.point, 0)
    assert np.max(np.abs(obs.a - (gamma_lc.jet.value - gamma.jet.value))) > 0.1
    report = check_compatibility(scn)
    assert (report.verdict, report.eps_verdict) == ("fails_A_and_B", "fails")
    _assert_check_matches_one_point_calls(scn)


def test_report_summary_is_taken_over_the_kept_points():
    zero = flat_doc(2, samples=10)
    zero["connection"] = {"kind": "explicit", "gamma": [[["0", "0"], [None, "0"]]] * 2}
    mixed = _two_d_doc([["x1", "0"], [None, "1"]], 300, 3)
    degenerate, bad_point = one_degenerate_sample_doc()
    reports = [check_compatibility(load_scenario(doc)) for doc in (zero, mixed, degenerate)]
    for report in reports:
        per_point = report.per_point
        eps = [s.eps for s in per_point if s.eps is not None]
        assert report.max_a == max(s.a for s in per_point)
        assert report.max_b == max(s.b for s in per_point)
        assert report.max_eps == max(eps, default=None)
        assert report.null_vectors == 2 * 2 * len(eps)
        # ties keep sample order
        assert report.worst == tuple(
            sorted(per_point, key=lambda s: max(s.a, s.b), reverse=True)[:3]
        )
    flat, cone, skipping = reports
    assert flat.max_a == flat.max_b == 0.0 and flat.worst == flat.per_point[:3]
    assert flat.max_eps is None and flat.null_vectors == 0
    assert cone.max_eps is not None and 0 < cone.null_vectors < 4 * len(cone.per_point)
    assert skipping.skipped == ((bad_point, 0.0),)
    assert bad_point not in [s.point for s in skipping.per_point + skipping.worst]


def test_a_mixed_null_cone_batch_gives_the_outputs_of_its_parts():
    # a batch without a cone returns before drawing, with the shapes and dtypes
    # that the full path gives the rows of a mixed batch; an indefinite point out
    # of the keep mask draws nothing
    from conproj.compatibility import _null_cone

    riemann = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
    lorentz = riemann - np.diag([4.0, 0.0, 0.0])
    values = np.stack([riemann, lorentz, np.diag([1.0, 1e-20, -1.0]), -riemann, -lorentz])
    states = np.array([point_stream(9, i).state for i in range(5)], dtype=np.uint64)
    keep = np.array([True, True, False, True, True])

    def null_cone(rows):
        return _null_cone(values[rows], 4, states[rows], keep[rows], lambda i: None)

    cone, w, fails, lam, power = null_cone([0, 1, 2, 3, 4])
    assert cone.tolist() == [1, 4] and w.shape == (2, 4, 3) and not fails
    assert lam.shape == (4, 3) and power.shape == (4,)
    for j, row in enumerate(cone.tolist()):
        assert np.array_equal(null_cone([row])[1][0], w[j])
    none, w0, fails0, lam0, _ = null_cone([0, 2, 3])
    assert none.size == 0 and none.dtype == cone.dtype
    assert w0.shape == (0, 4, 3) and w0.dtype == w.dtype
    assert not fails0 and lam0.shape == (2, 3)


def test_check_batches_its_null_cone_work(monkeypatch):
    # the points and legs are array draws (src/ has no one-draw generator to call)
    eigh, eighs = np.linalg.eigh, []

    def counting_eigh(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    path = Path(__file__).resolve().parents[1] / "scenarios" / "drift_lorentzian_3d.json"
    scn = load_scenario_path(path)
    report = check_compatibility(scn)
    assert scn.samples == 200 and report.null_vectors == 200 * 6
    assert len(eighs) == 1
    monkeypatch.undo()
    rng = SplitMix64(7)
    assert sample_null_vectors(metric_at(scn, (0.1, 0.2, 0.3), 0), 0, rng) == []
    assert rng.state == SplitMix64(7).state


def test_check_and_recovery_factorise_only_in_eigh_and_inv(monkeypatch):
    # The inverse reads its degeneracy off the matrix it inverts, and the
    # null cone its signature off one eigh per chunk: no other factorisation runs.
    eigh, calls = np.linalg.eigh, []

    def counting_eigh(*args, **kwargs):
        calls.append("eigh")
        return eigh(*args, **kwargs)

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"np.linalg.{name} called")

        return call

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for name in ("eigvalsh", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, refused(name))
    path = Path(__file__).resolve().parents[1] / "scenarios" / "drift_lorentzian_3d.json"
    scn = load_scenario_path(path)
    check_compatibility(scn, samples=200)
    check_compatibility(scn, samples=CHUNK_POINTS + 1)
    integrate_phi(scn, (0.0, 0.0, 0.0), (0.3, -0.2, 0.4))
    verify_recovery(scn, (0.0, 0.0, 0.0), samples=5)
    assert calls == ["eigh"] * 3


def test_check_inverts_the_metric_only_to_the_order_it_reads(monkeypatch):
    import conproj.scenario as scenario
    from conproj import integrate_phi, verify_recovery

    inverse, orders, metrics = scenario.inverse, [], []

    def recording_inverse(g, rank_tol):
        orders.append(g.order)
        metrics.append(g.value.shape[-3])  # the metric axis of the stack
        return inverse(g, rank_tol)

    monkeypatch.setattr(scenario, "inverse", recording_inverse)
    path = Path(__file__).resolve().parents[1] / "scenarios" / "drift_lorentzian_3d.json"
    check_compatibility(load_scenario_path(path))
    # one chunk; the recipe's metric is the scenario's, so it is inverted once
    assert (orders, metrics) == ([1], [1])
    doc, _ = round_trip_doc(np.random.default_rng(5), 3, samples=12, lorentzian=True)
    scn = load_scenario(doc)
    orders.clear()
    metrics.clear()
    check_compatibility(scn)
    # the recipe's metric is the rescaled one: one call inverts both
    assert (orders, metrics) == ([1], [2])
    integrate_phi(scn, (0.0, 0.0, 0.0), (0.3, -0.2, 0.4))
    verify_recovery(scn, (0.0, 0.0, 0.0), samples=3)
    assert set(orders) == {0, 1} and set(metrics) == {2}


def test_geometry_calls_invert_the_metric_only_to_the_order_they_read(monkeypatch):
    import conproj.geometry as geometry
    from conproj import rescaled_connection

    inverse, orders = geometry.inverse, []

    def recording_inverse(g, rank_tol):
        orders.append(g.order)
        return inverse(g, rank_tol)

    monkeypatch.setattr(geometry, "inverse", recording_inverse)
    doc, _ = round_trip_doc(np.random.default_rng(7), 3, samples=5, lorentzian=True)
    scn, point = load_scenario(doc), (0.1, -0.2, 0.3)
    g = metric_at(scn, point, 2)
    christoffel(g)
    rescaled_connection(g, eval_expr(parse_expression("0.3*x1*x2 - x3^2", scn.coordinates), point))
    eps_residual(g, connection_at(scn, point, 1), (1.0, 0.5, -0.25))
    # the Christoffel symbols and g^-1 dphi read g^-1 to order 1 of an order-2 metric
    assert orders == [1, 1, 1]


def test_numpy_integers_count_as_ints():
    scn = load_scenario(flat_doc(2, samples=5))
    report = check_compatibility(scn, samples=np.int64(50), seed=np.int64(3))
    assert report == check_compatibility(scn, samples=50, seed=3)
    assert type(report.samples) is int and type(report.seed) is int  # echoed as Python ints
    assert verify_recovery(scn, (0.0, 0.0), samples=np.int32(7), seed=np.uint64(3)).samples == 7
    assert sample_points(scn, np.int16(4), np.int64(-2)) == sample_points(scn, 4, -2)
    g, rng, plain = MetricValue(Jet(2, 0, np.diag([1.0, -1.0]))), SplitMix64(1), SplitMix64(1)
    vectors, expected = sample_null_vectors(g, np.int64(3), rng), sample_null_vectors(g, 3, plain)
    assert [v.u.tolist() for v in vectors] == [v.u.tolist() for v in expected]
    assert rng.state == plain.state
    for count in (np.bool_(True), True, np.int64(-1)):
        with pytest.raises(ValueError, match="null vector count must be a non-negative integer"):
            sample_null_vectors(g, count, rng)
    with pytest.raises(ValueError, match="sample count must be positive"):
        check_compatibility(scn, samples=np.bool_(True))


@pytest.mark.parametrize("samples", [0, -3, True, 2.0])
def test_check_rejects_a_sample_count_that_is_not_a_positive_int(samples):
    scn = load_scenario(flat_doc(2, samples=5))
    with pytest.raises(ValueError, match="sample count must be positive"):
        check_compatibility(scn, samples=samples)
    with pytest.raises(ValueError, match="sample count must be positive"):
        sample_points(scn, samples)


@pytest.mark.parametrize("seed", [True, 1.5, "3"])
def test_a_seed_that_is_not_an_int_is_rejected(seed):
    scn = load_scenario(flat_doc(2, samples=5))
    with pytest.raises(ValueError, match="seed must be an integer"):
        check_compatibility(scn, seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample_points(scn, seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        verify_recovery(scn, (0.0, 0.0), seed=seed)


def test_a_narrow_bump_in_the_drift_fails_B_at_5000_samples():
    # B fails only within about 0.1 of (0.6, 0.6, 0.6), a small share of the
    # box.  5000 samples find it; the default 200 read it as compatible on
    # most seeds, a known limit of a sampled verdict (see the README).
    bump = "0.01*exp(-2000*((x1-0.6)^2+(x2-0.6)^2+(x3-0.6)^2))"
    scn = load_scenario(drift_doc(s=("0", "0", bump)))
    for seed in range(3):
        assert check_compatibility(scn, samples=5000, seed=seed).verdict == "fails_B"


# ``check`` on the bundled scenarios at their own sample count: these fields are exact.
# Residuals are roundoff (or, for the drift's B, one) and hold to _RESIDUAL_BOUND.
_RESIDUAL_BOUND = 1e-14
_BUNDLED = {
    # name: (verdict, EPS verdict, samples, seed, null vectors, max A, max B, max EPS)
    "flat_euclidean_2d": ("compatible", "vacuous", 100, 0, 0, 0.0, 0.0, None),
    "rescaled_shift_2d": ("compatible", "vacuous", 100, 7, 0, 0.0, 0.0, None),
    "drift_lorentzian_3d": ("fails_B", "holds", 200, 42, 1200, 0.0, 1.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(_BUNDLED))
def test_bundled_scenarios_pinned(name):
    verdict, eps_verdict, samples, seed, null_vectors, *residuals = _BUNDLED[name]
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    report = check_compatibility(load_scenario_path(scenarios / f"{name}.json"))
    assert (report.verdict, report.eps_verdict) == (verdict, eps_verdict)
    assert (report.samples, report.seed) == (samples, seed)
    assert report.skipped == ()
    assert report.null_vectors == null_vectors
    for actual, expected in zip((report.max_a, report.max_b, report.max_eps), residuals):
        if expected is None:
            assert actual is None
        else:
            assert abs(actual - expected) <= _RESIDUAL_BOUND
    if name == "drift_lorentzian_3d":
        assert [(w.point, w.a, w.b) for w in report.worst] == [
            ((0.1967264843346619, 0.24312266373340297, 0.6352728864981023), 0.0, 1.0),
            ((0.06149783346008042, 0.2669854861288554, -0.8410367598819053), 0.0, 1.0),
            ((0.5249952380666669, -0.7260229331468464, 0.5764048929678689), 0.0, 1.0),
        ]


def _rank(m) -> int:
    """Numerical rank, asserting a clear gap between the kept and dropped singular values."""
    s = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    assert s[rank - 1] > 1e-3 * s[0] and (rank == len(s) or s[rank] < 1e-13 * s[0])
    return rank


def test_eps_and_condition_a_have_the_same_kernel_in_every_indefinite_signature():
    # D = Gamma_LC - Gamma ranges over the tensors D^i_jk symmetric in j, k.  The EPS map
    # D -> u ^ D(u, u) over 6n^2 generic null vectors u and the map D -> A (tracefree and
    # the _one_form of D's traces, then _condition_a) vanish on the same 2n-dimensional space
    # {delta phi + phi delta + g V}.
    rng = np.random.default_rng(2013)
    for n in range(2, 6):
        basis = []
        for i, j in np.ndindex(n, n):
            for k in range(j, n):
                d = np.zeros((n, n, n))
                d[i, j, k] = d[i, k, j] = 1.0
                basis.append(d)
        basis = np.array(basis)
        count = len(basis)
        for q in range(1, n):
            p = np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (n, n))
            g = p.T @ np.diag([-1.0] * q + [1.0] * (n - q)) @ p
            at_each = lambda x: Jet(n, 0, np.broadcast_to(x, (count,) + x.shape))
            t = tracefree(Jet(n, 0, basis))
            traces = connection_traces(Jet(n, 0, basis), at_each(g), at_each(np.linalg.inv(g)))
            down = _one_form(traces, at_each(np.zeros((2, n)))).value
            up = (np.linalg.inv(g) @ down[..., None])[..., 0]
            a_map = _condition_a(t.value, up, down, at_each(g).value).reshape(count, -1)
            metric = MetricValue(Jet(n, 0, g))
            u = np.array([v.u for v in sample_null_vectors(metric, 6 * n * n, SplitMix64(10 * n + q))])
            duu = np.einsum("bijk,mj,mk->bmi", basis, u, u)
            wedge = duu[..., :, None] * u[:, None, :] - duu[..., None, :] * u[:, :, None]
            eps_map = wedge[..., np.triu_indices(n, 1)[0], np.triu_indices(n, 1)[1]].reshape(count, -1)
            ranks = [_rank(m) for m in (a_map, eps_map, np.hstack([a_map, eps_map]))]
            assert ranks == [count - 2 * n] * 3, (n, q, ranks)
            # the kernel is {delta phi + phi delta + g V}: 2n independent tensors that both maps kill
            e = np.eye(n)
            kernel = [np.einsum("ij,k->ijk", e, e[m]) + np.einsum("ik,j->ijk", e, e[m]) for m in range(n)]
            kernel += [np.einsum("i,jk->ijk", e[m], g) for m in range(n)]
            coefficients = np.array([[x[i, j, k] for i, j in np.ndindex(n, n) for k in range(j, n)]
                                     for x in kernel])
            assert np.linalg.matrix_rank(coefficients) == 2 * n
            for image in (a_map, eps_map):
                assert np.max(np.abs(coefficients @ image)) < 1e-12 * np.max(np.abs(image))


def test_eps_and_condition_a_verdicts_agree_pointwise_away_from_the_threshold():
    # At each point with a null cone, EPS fails where A fails by a factor of 100 and holds
    # where A holds by that factor, on the random indefinite families of the helpers.
    rng = np.random.default_rng(2014)
    docs = [drift_doc(samples=10)]
    for n in range(2, 6):
        for q in range(1, n):
            docs.append(random_explicit_incompatible_doc(rng, n, samples=10, negative=q))
            if n <= 4:
                docs.append(round_trip_doc(rng, n, samples=10, negative=q)[0])
    failing = holding = 0
    for doc in docs:
        scn = load_scenario(doc)
        tol = scn.tolerances.residual
        for summary in check_compatibility(scn).per_point:
            if summary.eps is not None and summary.a > 100 * tol:
                assert summary.eps > tol, summary
                failing += 1
            elif summary.eps is not None and summary.a < tol / 100:
                assert summary.eps <= tol, summary
                holding += 1
    assert failing >= 50 and holding >= 50  # both sides are exercised
