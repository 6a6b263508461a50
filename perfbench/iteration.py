"""One measured iteration of a workload, in a fresh interpreter.

    python3 perfbench/iteration.py --workload NAME --seed N --workdir DIR \\
        --result FILE --run-id ID [--iteration K] [--trace]

``run.py`` starts one of these per iteration, so every iteration pays
the imports and cold caches a ``sp2-*`` call pays; times count from the
first statement below.  The result (times, operations, and with
``--trace`` the per-layer metrics and spans) is written to ``--result``
as JSON once the workload is done.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="perfbench-iteration")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=pathlib.Path, required=True)
    p.add_argument("--result", type=pathlib.Path, required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--iteration", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    from perfbench.probe import Recorder, layer_metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    rec = Recorder(args.run_id, full=args.trace)
    try:
        outcome = workload.run(args.seed, args.workdir, rec)
    finally:
        rec.uninstall()

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result: dict = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "digest": outcome.digest,
        "events": outcome.events,
        "metrics": {},
    }
    if outcome.done is not None and outcome.sim_s and rec.first_event is not None:
        wall = outcome.done - T0
        result["metrics"] = {
            "setup_s": rec.first_event - T0,
            "wall_s": wall,
            "node_days_per_s": outcome.node_days / outcome.sim_s,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        if args.trace:
            layers = layer_metrics(rec, workers=workload.workers)
            layers["trace.coverage"] = rec.root_seconds() / wall
            result["layers"] = layers
            result["spans"] = [
                dict(s.to_dict(), args={**s.args, "iteration": args.iteration})
                for s in rec.tracer.spans
            ]
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    tmp.replace(args.result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
