"""The three workloads: what one round calls, and the oracle for each output.

Every workload reports every metric, so every round touches every family
of public calls (check, CLI check, recovery, null cone).  The family that
names the workload runs on its full inputs, the others on a light, fixed
share, and the CLI checks the three bundled files in every round.  All
rounds of a workload make the same calls on the same inputs.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import numpy as np

from inputs import Drift, Explicit, MetricModel, RoundTrip, canonical

RESIDUAL_TOL = 1e-8  # the generated scenarios keep the default tolerance
PHI_TOL = 1e-9
GRADIENT_TOL = 1e-8
NULL_TOL = 1e-10
CONE_TOL = 1e-8
BUNDLED_B_TOL = 1e-9

PROBE_POINTS = 3  # check sample points re-run layer by layer per traced round
CLI_PROBE_SAMPLES = 5
VERIFY_SEED = 11  # fixed, so the verified points (and the work) do not move with --seed

# Segments from BASE to every target cross the steep front at x1 = 0.
BASE = {2: (-0.6, -0.2), 3: (-0.6, -0.2, 0.1)}
TARGETS = {
    2: ((0.7, 0.4), (0.3, -0.5), (0.9, 0.1)),
    3: ((0.7, 0.4, -0.3), (0.3, -0.5, 0.6), (0.9, 0.1, 0.2)),
}

# file, CLI exit code, verdict, EPS verdict: fixed by how each file is built
BUNDLED = (
    ("flat_euclidean_2d.json", 0, "compatible", "vacuous"),
    ("rescaled_shift_2d.json", 0, "compatible", "vacuous"),
    ("drift_lorentzian_3d.json", 2, "fails_B", "holds"),
)

# check: (kind, n, lorentzian, samples); recover: (n, profile, phi targets,
# recover_metric points, verify samples); cone: (n, points)
CHECK_FULL = (
    ("round_trip", 2, False, 20), ("round_trip", 2, True, 20),
    ("round_trip", 3, False, 10), ("round_trip", 3, True, 10),
    ("round_trip", 4, False, 6), ("round_trip", 4, True, 6),
    ("drift", 3, True, 10), ("drift", 4, True, 6),
    ("explicit", 3, False, 10), ("explicit", 4, False, 6),
)
CHECK_LIGHT = (
    ("round_trip", 2, False, 3), ("round_trip", 3, True, 3), ("round_trip", 4, False, 3),
)
RECOVER_FULL = (
    (2, "smooth", 2, 1, 1), (2, "steep", 1, 0, 1),
    (3, "smooth", 2, 1, 1), (3, "steep", 1, 0, 0),
)
RECOVER_LIGHT = ((2, "smooth", 1, 1, 1), (2, "steep", 1, 0, 0))
CONE_FULL = ((3, 250), (4, 250))
CONE_LIGHT = ((3, 5), (4, 5))

WORKLOADS = {
    "check-sweep": (CHECK_FULL, RECOVER_LIGHT, CONE_LIGHT),
    "recover-line": (CHECK_LIGHT, RECOVER_FULL, CONE_LIGHT),
    "null-cone": (CHECK_LIGHT, RECOVER_LIGHT, CONE_FULL),
}


def _make_case(rng, kind, n, lorentzian, samples):
    if kind == "round_trip":
        return RoundTrip(rng, n, lorentzian=lorentzian, samples=samples)
    if kind == "drift":
        return Drift(rng, n, samples=samples)
    return Explicit(rng, n, samples=samples)


def _sources(node, key=None):
    """Expression strings of a scenario document's metric and connection."""
    if isinstance(node, str):
        return [] if key == "kind" else [node]
    if isinstance(node, dict):
        return [s for k, v in node.items() for s in _sources(v, k)]
    if isinstance(node, list):
        return [s for v in node for s in _sources(v, key)]
    return []


def _close(actual, expected, tol) -> bool:
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    return bool(np.max(np.abs(actual - expected)) <= tol * max(1.0, float(np.max(np.abs(expected)))))


class Workload:
    """Inputs of one workload, loaded into conproj, and its round."""

    def __init__(self, mods, name: str, seed: int, root):
        self.cp, self.cli, self.sampling = mods
        cp = self.cp
        check_spec, recover_spec, cone_spec = WORKLOADS[name]
        rng = np.random.default_rng(seed)

        self.checks = []
        for kind, n, lorentzian, samples in check_spec:
            case = _make_case(rng, kind, n, lorentzian, samples)
            exprs = [cp.parse_expression(s, case.doc["coordinates"])
                     for s in _sources({"m": case.doc["metric"], "c": case.doc["connection"]})]
            self.checks.append((case, cp.load_scenario(case.doc), exprs))

        self.recovers = []
        for n, profile, targets, points, samples in recover_spec:
            case = RoundTrip(rng, n, lorentzian=False, steep=profile == "steep", samples=1)
            self.recovers.append((case, cp.load_scenario(case.doc), profile,
                                  TARGETS[n][:targets], points, samples))

        self.cones = []
        for n, count in cone_spec:
            model = MetricModel(rng, n, lorentzian=True)
            points = [tuple(float(c) for c in p) for p in rng.uniform(-1.0, 1.0, (count, n))]
            self.cones.append((model, cp.load_scenario(model.doc()), points,
                               int(rng.integers(0, 2**31))))

        self.bundled = []
        for file, code, verdict, eps in BUNDLED:
            path = root / "scenarios" / file
            self.bundled.append((path, code, verdict, eps, cp.load_scenario_path(path)))
        self.reference = None

    def prepare(self) -> None:
        """Library reports of the bundled files, which the CLI's must match."""
        self.reference = [self.cp.check_compatibility(b[4]) for b in self.bundled]

    # -- one round ---------------------------------------------------------

    def run_round(self, rec) -> None:
        for case, scn, _ in self.checks:
            rec.attempt(f"check n={case.n} {type(case).__name__}", lambda: self._check(rec, case, scn))
        for bundled, ref in zip(self.bundled, self.reference):
            rec.attempt(f"cli check {bundled[0].name}", lambda: self._cli(rec, bundled, ref))
        for case, scn, profile, targets, points, samples in self.recovers:
            base = BASE[case.n]
            for target in targets:
                rec.attempt(f"integrate_phi n={case.n} {profile}",
                            lambda: self._phi(rec, case, scn, profile, base, target))
            if points:
                rec.attempt(f"recover_metric n={case.n} {profile}",
                            lambda: self._recover(rec, case, scn, base, targets[:points]))
            if samples:
                rec.attempt(f"verify_recovery n={case.n} {profile}",
                            lambda: self._verify(rec, scn, base, samples))
        for model, scn, points, stream_seed in self.cones:
            for index, point in enumerate(points):
                rec.attempt(f"null cone n={model.n}",
                            lambda: self._cone(rec, model, scn, point, stream_seed, index))

    def _check(self, rec, case, scn):
        report = rec.call("compatibility.check_compatibility", self.cp.check_compatibility, scn)
        rec.tally(f"check.n{case.n}", rec.last, report.samples)
        rec.tally("null_vectors", 0.0, report.null_vectors)
        if (report.verdict, report.eps_verdict) != (case.verdict, case.eps):
            return f"verdicts {report.verdict}/{report.eps_verdict}, built as {case.verdict}/{case.eps}"
        if report.skipped or len(report.per_point) != case.doc["samples"]:
            return f"{len(report.skipped)} skipped points"
        if (report.null_vectors > 0) != (case.eps != "vacuous"):
            return f"{report.null_vectors} null vectors on a {case.eps} null cone"
        if hasattr(case, "residuals"):
            for summary in report.per_point:
                a, b = case.residuals(summary.point)
                if abs(a - summary.a) > 1e-9 or abs(b - summary.b) > 1e-9:
                    return f"A, B = {summary.a}, {summary.b} at {summary.point}; numpy gives {a}, {b}"
        return None

    def _cli(self, rec, bundled, ref):
        path, code, verdict, eps, _ = bundled
        out = io.StringIO()
        with redirect_stdout(out):
            got = rec.call("cli.main", self.cli.main, ["check", str(path), "--quiet"])
        doc = json.loads(out.getvalue())
        if got != code or (doc["verdict"], doc["eps"]) != (verdict, eps):
            return f"exit {got}, verdicts {doc['verdict']}/{doc['eps']}"
        if verdict == "fails_B" and (abs(doc["residuals"]["B"] - 1.0) > BUNDLED_B_TOL
                                     or doc["residuals"]["A"] > RESIDUAL_TOL):
            return f"residuals {doc['residuals']}, expected A = 0 and B = 1"
        return _cli_mismatch(doc, ref)

    def _phi(self, rec, case, scn, profile, base, target):
        phi = rec.call("recovery.integrate_phi", self.cp.integrate_phi, scn, base, target)
        rec.tally(f"phi.{profile}", rec.last, 1)
        rec.tally("phi", rec.last, 1)
        expected = case.phi.value(target) - case.phi.value(base)
        if abs(phi - expected) > PHI_TOL:
            return f"phi {phi!r} at {target}, expected {expected!r}"
        return None

    def _recover(self, rec, case, scn, base, targets):
        metrics = rec.call("recovery.recover_metric", self.cp.recover_metric, scn, base, list(targets))
        rec.tally("recover_metric", rec.last, len(targets))
        for target, metric in zip(targets, metrics):
            if not _close(metric.values(), case.recovered_metric(base, target), PHI_TOL):
                return f"recovered metric at {target} differs from g*exp(2*dphi)"
        return None

    def _verify(self, rec, scn, base, samples):
        result = rec.call("recovery.verify_recovery", self.cp.verify_recovery, scn, base,
                          samples=samples, seed=VERIFY_SEED)
        rec.tally("verify", rec.last, samples)
        if not result.passed or result.samples != samples:
            return f"verification failed: {result}"
        return None

    def _cone(self, rec, model, scn, point, stream_seed, index):
        cp = self.cp
        n = model.n
        g = rec.call("scenario.metric_at.order0", cp.metric_at, scn, point, 0)
        stream = self.sampling.point_stream(stream_seed, index)
        vectors = rec.call("compatibility.sample_null_vectors", cp.sample_null_vectors,
                           g, n * (n + 1) // 2, stream)
        rec.tally("null", rec.last, len(vectors))
        truth = model.value(point)
        for v in vectors:
            if abs(float(v.u @ truth @ v.u)) > NULL_TOL * float(v.u @ v.u):
                return f"vector {v.u} is not null at {point}"
        cone = rec.call("cone.reconstruct_conformal", cp.reconstruct_conformal,
                        [v.u for v in vectors], n)
        rec.tally("cone", rec.last, 1)
        expected = canonical(truth)
        if min(np.max(np.abs(cone - expected)), np.max(np.abs(cone + expected))) > CONE_TOL:
            return f"reconstruction at {point} is not +-g/max|g|"
        return None

    # -- layer probe (traced rounds) --------------------------------------

    def probe(self, rec) -> None:
        """Re-run a few points of every input layer by layer, so the traced
        pass can split the work that one public call hides."""
        for case, scn, exprs in self.checks:
            rec.attempt(f"probe check n={case.n}", lambda: self._probe_check(rec, case, scn, exprs))
        for case, scn, profile, targets, _, _ in self.recovers:
            rec.attempt(f"probe thomas n={case.n}", lambda: self._probe_thomas(rec, scn, targets[0]))
            rec.attempt(f"probe phi_and_gradient n={case.n} {profile}",
                        lambda: self._probe_gradient(rec, case, scn, targets[0]))
        for bundled in self.bundled:
            rec.attempt(f"probe cli {bundled[0].name}", lambda: self._probe_cli(rec, bundled))

    def _probe_check(self, rec, case, scn, exprs):
        """The first PROBE_POINTS sample points of a check, first through
        check_compatibility and then layer by layer."""
        cp = self.cp
        report = rec.call("compatibility.check_compatibility.probe", cp.check_compatibility,
                          scn, samples=PROBE_POINTS)
        for point in cp.sample_points(scn, PROBE_POINTS):
            with rec.group("probe.check_point"):
                for e in exprs:
                    rec.call("expressions.eval_expr", cp.eval_expr, e, point, 2)
                g = rec.call("scenario.metric_at", cp.metric_at, scn, point, 2)
                rec.call("scenario.connection_at", cp.connection_at, scn, point, 1)
                rec.call("geometry.invert_metric", cp.invert_metric, g)
                rec.call("geometry.christoffel", cp.christoffel, g)
                obs = rec.call("compatibility.obstruction_at", cp.obstruction_at, scn, point)
            a, b = case.residuals(point) if hasattr(case, "residuals") else (0.0, 0.0)
            if abs(obs.a_residual - a) > 1e-9 or abs(obs.b_residual - b) > 1e-9:
                return f"obstruction_at gives A, B = {obs.a_residual}, {obs.b_residual}; expected {a}, {b}"
        if report.verdict != case.verdict:
            return f"verdict {report.verdict} on {PROBE_POINTS} points, built as {case.verdict}"
        return None

    def _probe_thomas(self, rec, scn, point):
        gamma = rec.call("scenario.connection_at.order0", self.cp.connection_at, scn, point, 0)
        pi = rec.call("geometry.thomas_symbol", self.cp.thomas_symbol, gamma).components
        traces = np.abs(np.concatenate([np.einsum("ppk->k", pi), np.einsum("pjp->j", pi)]))
        if float(np.max(traces)) > 1e-12 * max(1.0, float(np.max(np.abs(pi)))):
            return "Thomas symbol is not trace-free"
        return None

    def _probe_gradient(self, rec, case, scn, target):
        base = BASE[case.n]
        factor = self.cp.RecoveredFactor(scn, base)
        value, grad = rec.call("recovery.phi_and_gradient", factor.phi_and_gradient, target)
        if abs(value - (case.phi.value(target) - case.phi.value(base))) > PHI_TOL:
            return f"phi_and_gradient value {value!r} is off"
        if not _close(grad, case.phi.grad(target), GRADIENT_TOL):
            return f"gradient {grad} differs from {case.phi.grad(target)}"
        return None

    def _probe_cli(self, rec, bundled):
        path, code, _, _, scn = bundled
        out = io.StringIO()
        with redirect_stdout(out):
            got = rec.call("cli.main.probe", self.cli.main,
                           ["check", str(path), "--quiet", "--samples", str(CLI_PROBE_SAMPLES)])
        report = rec.call("compatibility.check_compatibility.cli_probe", self.cp.check_compatibility,
                          scn, samples=CLI_PROBE_SAMPLES)
        if got != code:
            return f"exit {got}, expected {code}"
        return _cli_mismatch(json.loads(out.getvalue()), report)


def round_metrics(t) -> dict:
    """End-to-end figures from the Totals of untraced rounds."""
    out = {"wall_s": t.wall, "cli_check_s": t.seconds("cli.main")}
    for n in (2, 3, 4):
        out[f"check_points_per_s.n{n}"] = t.rate(f"check.n{n}")
    out["phi_queries_per_s"] = t.rate("phi")
    out["verify_samples_per_s"] = t.rate("verify")
    out["null_vectors_per_s"] = t.rate("null")
    out["cone_solves_per_s"] = t.rate("cone")
    return out


def layer_metrics(t) -> dict:
    """Per-layer figures from the Totals of traced rounds and their probes."""
    us, ms = 1e6, 1e3
    out = {}
    for name in ("expressions.eval_expr", "scenario.metric_at", "scenario.connection_at",
                 "geometry.invert_metric", "geometry.thomas_symbol"):
        out[f"{name}.us_per_call"] = t.per_call(name, us)
    # christoffel(g) inverts g itself: its self time excludes that inverse.
    out["geometry.christoffel.us_per_call"] = (
        t.per_call("geometry.christoffel", us) - t.per_call("geometry.invert_metric", us))

    # Every input contributes PROBE_POINTS points, so obstruction_at +
    # null_eps = check_compatibility per point, on the same points.
    obstruction = t.per_call("compatibility.obstruction_at", us)
    points = t.calls["compatibility.obstruction_at"][1]
    out["compatibility.obstruction_at.us_per_point"] = obstruction
    out["compatibility.assembly.us_per_point"] = obstruction - us * (
        t.seconds("scenario.metric_at") + t.seconds("scenario.connection_at")
        + t.seconds("geometry.christoffel")) / points
    out["compatibility.null_eps.us_per_point"] = (
        us * t.seconds("compatibility.check_compatibility.probe") / points - obstruction)
    out["compatibility.sample_null_vectors.us_per_vector"] = t.per_item("null", us)
    out["compatibility.null_vectors.count"] = t.count("null_vectors")
    out["recovery.integrate_phi.ms_per_query.smooth"] = t.per_item("phi.smooth", ms)
    out["recovery.integrate_phi.ms_per_query.steep"] = t.per_item("phi.steep", ms)
    out["recovery.phi_and_gradient.ms_per_call"] = t.per_call("recovery.phi_and_gradient", ms)
    out["recovery.verify_recovery.ms_per_sample"] = t.per_item("verify", ms)
    out["recovery.recover_metric.ms_per_point"] = t.per_item("recover_metric", ms)
    out["cone.reconstruct_conformal.us_per_call"] = t.per_call("cone.reconstruct_conformal", us)
    out["cli.check.overhead_ms"] = (
        t.per_call("cli.main.probe", ms)
        - t.per_call("compatibility.check_compatibility.cli_probe", ms))
    return out


def _cli_mismatch(doc, report):
    """Where the CLI's JSON report differs from the library's report."""
    eps = "vacuous" if report.max_eps is None else report.max_eps
    expected = {
        "verdict": report.verdict, "eps": report.eps_verdict,
        "residuals": {"A": report.max_a, "B": report.max_b, "eps": eps},
        "samples": report.samples, "seed": report.seed,
        "skipped_points": [list(p) for p, _ in report.skipped],
        "worst": [{"point": list(s.point), "A": s.a, "B": s.b} for s in report.worst],
    }
    for key, value in expected.items():
        if doc.get(key) != value:
            return f"CLI report {key} = {doc.get(key)!r}, library gives {value!r}"
    return None
