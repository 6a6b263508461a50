"""Record reference outputs for a workload over a range of campaign seeds.

    python3 perfbench/record_digests.py --workload NAME --seeds 0:128

Runs each seed as one ``iteration.py`` in a fresh interpreter and merges
its output digest, peak RSS and simulated events into
``perfbench/digests.json``.  Record only from a commit whose output is
known good: a recorded digest is what every later run must reproduce.
Seeds whose output misses the band checks (the checks a seed without a
digest gets) are recorded all the same, and listed.  Peak RSS and events
are deterministic per seed; ``run.py`` draws its campaign seeds from
those nearest the middle in both (see ``run.seed_pool``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import check  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="record_digests")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seeds", default="0:128", help="half-open range LO:HI")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split(":"))
    workload = WORKLOADS[args.workload]
    runs_dir = ROOT / ".perfbench"
    runs_dir.mkdir(exist_ok=True)
    recorded: dict[str, dict] = {}
    for seed in range(lo, hi):
        workdir = pathlib.Path(tempfile.mkdtemp(dir=runs_dir))
        try:
            subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "iteration.py"),
                 "--workload", workload.name, "--seed", str(seed), "--workdir",
                 str(workdir / "out"), "--result", str(workdir / "result.json"),
                 "--run-id", f"record-{seed}"],
                check=True,
            )
            result = json.loads((workdir / "result.json").read_text())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result["digest"] is None or "peak_rss_mb" not in result["metrics"]:
            print(f"seed {seed}: no output: {result['errors']}", file=sys.stderr)
            return 1
        rss = result["metrics"]["peak_rss_mb"]
        recorded[str(seed)] = {
            "digest": result["digest"],
            "peak_rss_mb": round(rss, 1),
            "events": result["events"],
        }
        misses = f"  (outside bands: {'; '.join(result['errors'])})" if result["errors"] else ""
        print(f"{workload.key} seed {seed}: {result['digest'][:16]} {rss:.0f} MiB "
              f"{result['events']} events {result['metrics']['wall_s']:.2f} s{misses}",
              file=sys.stderr)
    table = check.load_recorded()
    table.setdefault(workload.key, {}).update(recorded)
    check.RECORDED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
