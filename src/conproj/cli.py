"""Command-line entry point.

Verbs:

* ``check``       run the compatibility check over a scenario file
* ``recover``     recover the shared metric of a compatible scenario
* ``cone``        reconstruct a conformal representative from null vectors
* ``gen-example`` write a drift-connection scenario file

Reports are JSON; exit code 0 means success/compatible, 2 means the
mathematical answer is negative (incompatible scenario, non-generic cone
data), 1 means an error.  For fixed inputs, seed and tool version the
report bytes are deterministic apart from the ``timestamp`` field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

from . import __version__
from .compatibility import check_compatibility
from .cone import reconstruct_conformal
from .errors import ConprojError, NonGenericConfiguration
from .recovery import RecoveredFactor, verify_recovery
from .sampling import as_int
from .scenario import DEFAULT_SAMPLES, DEFAULT_SEED, check_rows, load_scenario


def _flat_metric(first: str, n: int) -> list:
    """Rows of diag(first, 1, ..., 1) as expression strings."""
    diagonal = [first] + ["1"] * (n - 1)
    return [[diagonal[i] if i == j else "0" for j in range(n)] for i in range(n)]


_BUILTIN_METRICS = {
    **{f"euclidean{n}": _flat_metric("1", n) for n in (2, 3)},
    **{f"minkowski{n}": _flat_metric("-1", n) for n in (2, 3, 4)},
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ConprojError, OSError, ValueError, MemoryError) as err:  # e.g. --samples 10**15
        print(f"error: {err}", file=sys.stderr)
        return 1


@cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conproj",
        description="Decide whether a conformal and a projective structure "
        "share a metric, and reconstruct it when they do.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the compatibility check")
    check.add_argument("scenario", type=Path)
    _common_flags(check)
    check.set_defaults(handler=_cmd_check)

    recover = sub.add_parser("recover", help="recover the shared metric")
    recover.add_argument("scenario", type=Path)
    recover.add_argument("--base", required=True, help="comma-separated base point")
    recover.add_argument("--at", required=True, help="comma-separated query point")
    _common_flags(recover)
    recover.set_defaults(handler=_cmd_recover)

    cone = sub.add_parser(
        "cone", help="reconstruct a conformal representative from null vectors"
    )
    cone.add_argument("vectors", type=Path, help="JSON {dimension, vectors}")
    cone.add_argument("--out", type=Path)
    cone.add_argument("--quiet", action="store_true")
    cone.set_defaults(handler=_cmd_cone)

    gen = sub.add_parser("gen-example", help="write a drift-connection scenario")
    gen.add_argument(
        "--metric",
        default="minkowski3",
        help="builtin name (%s) or a JSON metric file"
        % ", ".join(sorted(_BUILTIN_METRICS)),
    )
    group = gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", help="comma-separated drift components S^i")
    group.add_argument(
        "--s-grad",
        help="potential f; writes it as the drift's 'potential', so S^i = "
        "g^{ij} d_j f and the scenario is compatible in any dimension",
    )
    gen.add_argument("--out", type=Path)
    gen.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--quiet", action="store_true")
    gen.set_defaults(handler=_cmd_gen_example)

    return parser


def _common_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--out", type=Path, help="write the JSON report here")
    cmd.add_argument("--samples", type=int)
    cmd.add_argument("--seed", type=int)
    cmd.add_argument("--tol-residual", type=float)
    cmd.add_argument("--tol-quadrature", type=float)
    cmd.add_argument("--quiet", action="store_true")


def _parse_point(text: str, n: int) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConprojError(f"could not parse point '{text}'") from None
    if len(values) != n:
        raise ConprojError(f"point '{text}' must have {n} components")
    return values


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _check(args, *points) -> tuple:
    """The steps ``check`` and ``recover`` share, in the order their errors are reported:
    load the scenario file, apply the tolerance flags, parse ``points``, run the check.
    Returns the scenario, the points, the report and its JSON document."""
    raw = args.scenario.read_bytes()
    scenario = load_scenario(raw.decode("utf-8"))
    given = {"residual": args.tol_residual, "quadrature": args.tol_quadrature}
    tol = replace(scenario.tolerances, **{k: v for k, v in given.items() if v is not None})
    scenario = replace(scenario, tolerances=tol)
    points = [_parse_point(text, scenario.dimension) for text in points]
    report = check_compatibility(scenario, samples=args.samples, seed=args.seed)
    eps_value = "vacuous" if report.max_eps is None else report.max_eps
    return scenario, points, report, {
        "tool": "conproj",
        "version": __version__,
        "timestamp": _timestamp(),
        "scenario_digest": hashlib.sha256(raw).hexdigest(),
        "verdict": report.verdict,
        "eps": report.eps_verdict,
        "residuals": {"A": report.max_a, "B": report.max_b, "eps": eps_value},
        "samples": report.samples,
        "seed": report.seed,
        "tolerances": asdict(report.tolerances),
        "skipped_points": [list(point) for point, _ in report.skipped],
        "worst": [
            {"point": list(summary.point), "A": summary.a, "B": summary.b}
            for summary in report.worst
        ],
    }


def _emit(document: dict, out: Path | None, quiet: bool, summary: str) -> None:
    text = json.dumps(document, indent=2) + "\n"
    if out is not None:
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if not quiet:
        print(summary, file=sys.stderr)


def _cmd_check(args) -> int:
    _, _, report, document = _check(args)
    _emit(
        document,
        args.out,
        args.quiet,
        f"verdict: {report.verdict} (max A {report.max_a:.3e}, "
        f"max B {report.max_b:.3e}, eps {report.eps_verdict})",
    )
    return 0 if report.verdict == "compatible" else 2


def _cmd_recover(args) -> int:
    scenario, (base, at), report, document = _check(args, args.base, args.at)
    if report.verdict != "compatible":
        _emit(
            document,
            args.out,
            args.quiet,
            f"not compatible ({report.verdict}); no recovery attempted",
        )
        return 2
    factor = RecoveredFactor(scenario, base)
    phi = factor.phi(at)
    recovered = factor.scaled_metric(at, phi)
    verification = verify_recovery(
        scenario, base, samples=args.samples, seed=args.seed
    )
    document["recovery"] = {
        "base": list(base),
        "at": list(at),
        "phi": phi,
        "metric": recovered.values().tolist(),
        "deviation": verification.max_deviation,
    }
    _emit(
        document,
        args.out,
        args.quiet,
        f"recovered phi({', '.join(map(str, at))}) = {phi:.12g}; "
        f"verification deviation {verification.max_deviation:.3e}",
    )
    return 0


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as err:  # RecursionError: nested too deep
        raise ConprojError(f"invalid JSON: {err}") from None


def _cmd_cone(args) -> int:
    payload = _read_json(args.vectors)
    if not isinstance(payload, dict) or "dimension" not in payload or "vectors" not in payload:
        raise ConprojError("cone input must be {\"dimension\": n, \"vectors\": [...]}")
    n = as_int(payload["dimension"], "'dimension' must be an integer >= 2", 2)
    try:
        metric = reconstruct_conformal(payload["vectors"], n)
    except NonGenericConfiguration as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    document = {
        "tool": "conproj",
        "version": __version__,
        "timestamp": _timestamp(),
        "dimension": n,
        "metric": metric.tolist(),
    }
    _emit(document, args.out, args.quiet, "reconstructed a conformal representative")
    return 0


def _resolve_metric(spec: str):
    rows = _BUILTIN_METRICS.get(spec)
    if rows is not None:
        payload = {"dimension": len(rows), "metric": rows}
    else:
        payload = _read_json(Path(spec))
    if not isinstance(payload, dict):
        raise ConprojError("metric file must be a JSON object")
    n = as_int(payload.get("dimension"), "metric file needs an integer 'dimension' >= 2", 2)
    if payload.get("metric") is None:
        raise ConprojError("metric file needs a 'metric' array")
    return n, payload


def _cmd_gen_example(args) -> int:
    n, payload = _resolve_metric(args.metric)
    if args.s is not None:
        s_exprs = [part.strip() for part in args.s.split(",")]
        if len(s_exprs) != n:
            raise ConprojError(f"--s must provide {n} components")
        key, drift = "s", s_exprs
    else:
        # S^i = g^{ij} d_j f makes the lowered drift one-form exact, so the
        # generated scenario is compatible by construction.
        key, drift = "potential", args.s_grad
    metric_rows = payload["metric"]
    if "coordinates" not in payload or "box" not in payload:
        check_rows(metric_rows, n, "$.metric")  # so the n-long defaults are no longer than it
        coords, box = [f"x{i + 1}" for i in range(n)], {"min": [-1.0] * n, "max": [1.0] * n}
        payload = {"coordinates": coords, "box": box, **payload}
    document = {
        "dimension": n,
        "coordinates": payload["coordinates"],
        "box": payload["box"],
        "metric": metric_rows,
        "connection": {"kind": "modified_s", "metric": metric_rows, key: drift},
        "samples": args.samples,
        "seed": args.seed,
    }
    load_scenario(document)  # validate before writing: the metric, then the drift
    _emit(
        document,
        args.out,
        args.quiet,
        f"wrote a drift-connection scenario (dimension {n}, {key} = {drift})",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
