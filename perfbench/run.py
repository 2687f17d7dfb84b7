"""conproj benchmark: one command, one process, one thread.

    python3 perfbench/run.py --workload check-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; conproj is imported from its
``src`` directory.  The run sets up its inputs from ``--seed``, then
repeats whole rounds of the workload until ``--seconds`` have passed,
checking every output against an oracle.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced rounds
with traced ones and reports the per-layer metrics, and writes the spans
to ``perfbench/traces/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads and what each metric means.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import typing  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import SPEED, Recorder, Rounds, write_spans  # noqa: E402
from workloads import WORKLOADS, Workload, layer_metrics, round_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "check_points_per_s.n2": "points/s", "check_points_per_s.n3": "points/s",
    "check_points_per_s.n4": "points/s", "cli_check_s": "s",
    "phi_queries_per_s": "queries/s", "verify_samples_per_s": "samples/s",
    "null_vectors_per_s": "vectors/s", "cone_solves_per_s": "solves/s",
}
PER_LAYER = {
    "expressions.eval_expr.us_per_call": "us",
    "scenario.metric_at.us_per_call": "us",
    "scenario.connection_at.us_per_call": "us",
    "geometry.invert_metric.us_per_call": "us",
    "geometry.christoffel.us_per_call": "us",
    "geometry.thomas_symbol.us_per_call": "us",
    "compatibility.obstruction_at.us_per_point": "us",
    "compatibility.assembly.us_per_point": "us",
    "compatibility.null_eps.us_per_point": "us",
    "compatibility.sample_null_vectors.us_per_vector": "us",
    "compatibility.null_vectors.count": "count",
    "recovery.integrate_phi.ms_per_query.smooth": "ms",
    "recovery.integrate_phi.ms_per_query.steep": "ms",
    "recovery.phi_and_gradient.ms_per_call": "ms",
    "recovery.verify_recovery.ms_per_sample": "ms",
    "recovery.recover_metric.ms_per_point": "ms",
    "cone.reconstruct_conformal.us_per_call": "us",
    "cli.check.overhead_ms": "ms",
    "trace.overhead_s": "s",
}


def import_conproj():
    """Import conproj afresh from the checkout, so set-up can be repeated."""
    for name in [m for m in sys.modules if m == "conproj" or m.startswith("conproj.")]:
        del sys.modules[name]
    # typing caches each Union[...] built at import, and with it the old
    # modules' classes; without this every set-up would keep a copy of conproj.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    mods = tuple(importlib.import_module(m) for m in ("conproj", "conproj.cli", "conproj.sampling"))
    if Path(mods[0].__file__).resolve().parent != ROOT / "src" / "conproj":
        raise ImportError(f"conproj imported from {mods[0].__file__}, not from this checkout")
    return mods


def set_up(name: str, seed: int):
    """Import conproj afresh, then generate and load the workload's inputs.
    Returns the workload and the set-up's time at the reference speed."""
    gc.collect()
    mark = SPEED.mark()
    workload = Workload(import_conproj(), name, seed, ROOT)
    return workload, SPEED.seconds(mark)


def timed_round(workload, traced: bool) -> Recorder:
    rec = Recorder(traced)
    mark = SPEED.mark()
    workload.run_round(rec)
    rec.wall = SPEED.seconds(mark)
    return rec


def measure(name: str, seed: int, seconds: float, traced: bool):
    """Whole rounds until ``seconds`` have passed.

    A traced run makes pairs of one untraced and one traced round, in
    alternating order, and probes the layers after each traced round; it
    keeps the traced rounds for their spans.  Before every round or pair
    the set-up is timed once more and its result dropped, so that set-up
    is sampled across the whole run.
    """
    workload, first = set_up(name, seed)
    workload.prepare()
    setups, plain, traced_rounds, spans = [first], Rounds(), Rounds(), []
    deadline = time.perf_counter() + seconds
    while not plain.walls or time.perf_counter() < deadline:
        setups.append(set_up(name, seed)[1])
        if not traced:
            plain.add(timed_round(workload, False))
            continue
        for tracing in (False, True) if len(plain.walls) % 2 == 0 else (True, False):
            rec = timed_round(workload, tracing)
            if tracing:
                workload.probe(rec)
                traced_rounds.add(rec)
                spans.append(rec)
            else:
                plain.add(rec)
    return statistics.median(setups), plain, traced_rounds, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conproj" / "__init__.py").is_file():
        print(f"error: no conproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    SPEED.start()
    try:
        setup_s, plain, traced, spans = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        SPEED.stop()
    if args.trace:
        values = layer_metrics(traced.totals())
        values["trace.overhead_s"] = statistics.median(traced.walls) - statistics.median(plain.walls)
        units = PER_LAYER
    else:
        values = round_metrics(plain.totals())
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(plain.walls),
        "round_s": statistics.median(plain.walls),
        "chunk_s": statistics.median(SPEED.chunks), "speed_samples": len(SPEED.chunks),
        "nproc": len(os.sched_getaffinity(0)), "threads": 1,
        "python": platform.python_version(), "numpy": np.__version__,
    }
    if args.trace:
        write_spans(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl", spans, info)
    print(json.dumps(info))
    print(json.dumps({
        "correct": plain.wrong + traced.wrong == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
