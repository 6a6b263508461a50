"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing needs installing (the
iterations put the checkout's ``src/`` on ``sys.path``).  Each iteration
of the workload runs in a fresh interpreter (``iteration.py``), and a
run starts iterations for ``--seconds`` (at least three).  Each
iteration runs its own campaign seed, in an order ``--seed`` shuffles
the recorded seeds nearest the middle in simulated events and peak RSS
into (``seed_pool``), so one ``--seed`` always measures the same inputs
in the same order and every ``--seed`` measures about the same work.
Between iterations the driving process times a fixed reference
computation (``reference.py``), and every time is reported at a nominal
host speed: divided by the run's slowdown against that reference.  With
``--trace 0`` the end-to-end metrics are medians over the iterations;
with ``--trace 1`` three campaign seeds run once untraced and once
traced each, the per-layer metrics are medians over the traced
iterations, and the traced spans are written once, as a Chrome trace
under ``.perfbench/``.

stdout ends with one JSON line: ``correct``, ``attempted``, ``failed``
(operations: campaigns, shards, sweep cells) and ``metrics``.  A run
that cannot measure exits non-zero, names the workload and the error on
stderr and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import catalog, check, reference  # noqa: E402 - needs the root on sys.path

#: Iterations an end-to-end run makes at least, and the untraced/traced
#: pairs a traced run makes: a fixed set of seeds, so that its counts
#: repeat exactly from run to run.
MIN_ITERATIONS = 3
#: Recorded seeds a run draws its campaign seeds from.  One seed's
#: offered load sits up to 40% off another's, and a sweep's peak RSS
#: jumps between levels with how much garbage is alive when the
#: collector runs; the seeds nearest the middle in both vary by a few
#: per cent.
POOL_SIZE = 32
#: Stop starting iterations once this much of the 180 s budget is gone.
TOTAL_BUDGET_S = 170.0
#: Span-id stride between iterations in the written trace.
ITERATION_ID_STRIDE = 10**12
#: Environment hooks of the program that would change what is measured
#: (a pool start method, a deliberate worker crash).
SCRUBBED_ENV = ("REPRO_MP_START", "REPRO_CRASH_SHARD")


class BenchmarkError(RuntimeError):
    """The run cannot produce a result."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w.name for w in catalog.WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=catalog.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run_iteration(workload: str, seed: int, run_dir: pathlib.Path, run_id: str, index: int,
                  traced: bool, timeout: float) -> dict:
    """One iteration in a fresh interpreter; returns its result."""
    workdir = run_dir / f"iter{index}"
    result = run_dir / f"iter{index}.json"
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "iteration.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(workdir),
        "--result", str(result),
        "--run-id", run_id,
        "--iteration", str(index),
    ] + (["--trace"] if traced else [])
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    # Its own process group, so a timeout takes its shard workers down too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"iteration {index} ran past {timeout:.0f} s") from err
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not result.exists():
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        raise BenchmarkError(f"iteration {index} exited {proc.returncode}: {tail}")
    out = json.loads(result.read_text())
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def seed_pool(recorded: dict[str, dict]) -> list[int]:
    """The :data:`POOL_SIZE` recorded seeds nearest the middle of the
    recorded ones, ranked by simulated events and by peak RSS: the
    farther of a seed's two ranks from the middle rank decides."""
    seeds = sorted(recorded, key=int)
    middle = (len(seeds) - 1) / 2

    def rank(field: str) -> dict[str, int]:
        ordered = sorted(seeds, key=lambda s: (recorded[s][field], int(s)))
        return {s: i for i, s in enumerate(ordered)}

    by_events, by_rss = rank("events"), rank("peak_rss_mb")
    off = {s: max(abs(by_events[s] - middle), abs(by_rss[s] - middle)) for s in seeds}
    return sorted(int(s) for s in sorted(seeds, key=lambda s: (off[s], int(s)))[:POOL_SIZE])


def campaign_seeds(recorded: dict[str, dict], seed: int) -> list[int]:
    """The campaign seeds of a run's iterations, in order: the pool
    shuffled by ``seed``.

    Only seeds with a recorded output digest are used, so every
    iteration is checked against a known-good output (the paper bands a
    seed without one falls back to are missed by about a third of
    correct 30-day campaigns).
    """
    pool = seed_pool(recorded)
    random.Random(seed).shuffle(pool)
    return pool


def plan(args) -> list[tuple[int, bool]]:
    """(campaign seed, traced) per iteration, in the order a run takes
    them until ``--seconds`` are spent; with ``--trace 1``, each of the
    first :data:`MIN_ITERATIONS` seeds runs untraced and traced, in
    alternating order."""
    from perfbench.workloads import WORKLOADS

    key = WORKLOADS[args.workload].key
    recorded = check.load_recorded().get(key)
    if not recorded:
        raise BenchmarkError(f"no recorded seeds for {key}; run record_digests.py")
    seeds = campaign_seeds(recorded, args.seed)
    if not args.trace:
        return [(s, False) for s in seeds]
    out = []
    for i, s in enumerate(seeds[:MIN_ITERATIONS]):
        pair = [(s, False), (s, True)]
        out += pair if i % 2 == 0 else pair[::-1]
    return out


def measure(args, iterations: list[tuple[int, bool]], run_dir: pathlib.Path, run_id: str,
            start: float):
    """Run the planned iterations, each after a reference sample (an
    end-to-end run: until ``--seconds`` are spent); a last sample
    follows.  Returns (untraced, traced, reference seconds)."""
    untraced: list[dict] = []
    traced: list[dict] = []
    passes: list[float] = []
    #: Seconds of each reference sample plus iteration.
    cycles: list[float] = []
    measuring = time.perf_counter()
    for index, (seed, trace_this) in enumerate(iterations):
        if not args.trace and index >= MIN_ITERATIONS:
            spent = time.perf_counter() - measuring
            if spent + statistics.median(cycles) > args.seconds:
                break
        elapsed = time.perf_counter() - start
        if cycles and elapsed + statistics.median(cycles) > TOTAL_BUDGET_S:
            print(f"perfbench: {args.workload}: out of time after {index} iterations",
                  file=sys.stderr)
            break
        began = time.perf_counter()
        before = reference.sample()
        passes += before
        result = run_iteration(
            args.workload, seed, run_dir, run_id, index, trace_this,
            timeout=max(10.0, TOTAL_BUDGET_S - elapsed),
        )
        cycles.append(time.perf_counter() - began)
        result["seed"] = seed
        (traced if trace_this else untraced).append(result)
        print(
            f"perfbench: {args.workload} iteration {index + 1} (campaign seed {seed}"
            f"{', traced' if trace_this else ''}): {cycles[-1]:.1f} s with a "
            f"{statistics.median(before):.4f} s reference pass",
            file=sys.stderr,
        )
    passes += reference.sample()
    return untraced, traced, passes


def medians(results: list[dict], key: str, names: list[str]) -> dict[str, tuple[float, int]]:
    """name → (median, samples) over the iterations that measured it."""
    out = {}
    for name in names:
        values = [r[key][name] for r in results if name in r.get(key, {})]
        if not values:
            errors = sorted({e for r in results for e in r["errors"]})
            raise BenchmarkError(f"no iteration measured {name}: {'; '.join(errors) or '?'}")
        out[name] = (float(statistics.median(values)), len(values))
    return out


def write_trace(traced: list[dict], workload: str, seed: int, start: float) -> pathlib.Path:
    """All traced spans as one Chrome trace, validated after writing."""
    from repro.tracing.export import validate_chrome_trace, write_chrome_trace
    from repro.tracing.span import Span

    spans = []
    for k, result in enumerate(traced, start=1):
        for row in result["spans"]:
            spans.append(
                Span.from_dict(row).rebase(time_offset=-start, id_offset=k * ITERATION_ID_STRIDE)
            )
    path = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(spans, path)
    problems = validate_chrome_trace(json.loads(path.read_text()))
    if problems:
        raise BenchmarkError(f"trace {path.name} is invalid: {problems[:3]}")
    return path


def at_nominal_speed(value: float, unit: str, slowdown: float) -> float:
    """A measured value as the reference-speed host would have read it:
    times shrink and rates grow by the slowdown; other units stay."""
    if unit in ("s", "us"):
        return value / slowdown
    if unit.endswith("/s"):
        return value * slowdown
    return value


def summarize(args, untraced: list[dict], traced: list[dict], passes: list[float],
              start: float):
    """(metrics for the result line, human-readable lines)."""
    slowdown = reference.slowdown(passes)
    notes = [
        f"  host slowdown {slowdown:.4g} (median of {len(passes)} reference passes over "
        f"{reference.NOMINAL_PASS_S} s); times and rates are at the reference speed"
    ]
    if not args.trace:
        specs = catalog.END_TO_END
        values = medians(untraced, "metrics", [m.name for m in specs])
    else:
        specs = catalog.PER_LAYER
        layered = [m.name for m in specs if not m.name.startswith("trace.")]
        values = medians(traced, "layers", layered + ["trace.coverage"])
        # Each seed's traced and untraced iterations run back to back, so
        # their ratio cancels most of the host's drift between seeds.
        base = {r["seed"]: r["metrics"]["wall_s"] for r in untraced if r["metrics"]}
        ratios = [
            r["metrics"]["wall_s"] / base[r["seed"]]
            for r in traced
            if r["metrics"] and r["seed"] in base
        ]
        if not ratios:
            raise BenchmarkError("no seed measured both untraced and traced")
        values["trace.overhead"] = (statistics.median(ratios) - 1.0, len(ratios))
        path = write_trace(traced, args.workload, args.seed, start)
        notes.append(f"  trace: {path.relative_to(ROOT)} (validated)")
    metrics, lines = {}, []
    width = max(len(m.name) for m in specs)
    for m in specs:
        measured, samples = values[m.name]
        value = at_nominal_speed(measured, m.unit, slowdown)
        metrics[m.name] = {"value": value, "unit": m.unit}
        raw = f"; {measured:.6g} as measured" if value != measured else ""
        lines.append(f"  {m.name:<{width}}  {value:.6g} {m.unit}  (median of {samples}{raw})")
    return metrics, lines + notes


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    where = f"perfbench: {args.workload} seed {args.seed}"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"{where}: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile once, so the first iteration imports like the rest.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{int(time.time())}"
    run_dir = ROOT / ".perfbench" / f"run-{run_id}"
    run_dir.mkdir(parents=True)
    try:
        untraced, traced, passes = measure(args, plan(args), run_dir, run_id, start)
        metrics, lines = summarize(args, untraced, traced, passes, start)
    except BenchmarkError as err:
        print(f"{where}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = untraced + traced
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for error in sorted({e for r in results for e in r["errors"]}):
        print(f"{where}: failed operation: {error}", file=sys.stderr)
    mode = "traced, per-layer" if args.trace else "end-to-end"
    print(f"{where}: {len(results)} iterations in {time.perf_counter() - start:.1f} s ({mode})")
    print("\n".join(lines))
    print(f"  error_rate  {failed / attempted:.6g} fraction  "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
