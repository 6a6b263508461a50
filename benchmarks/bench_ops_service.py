"""Experiment: query-service capacity — latency under concurrent load.

Drives the ``repro.ops`` TCP service with many simultaneous clients (the
default is 1000, the ISSUE floor) hammering the mixed query surface —
``ping``, ``query``, ``jobs``, ``alerts`` — against a completed campaign,
and reports request latency percentiles measured through the same P²
sketches the telemetry layer uses (``repro.telemetry.sketch``), so the
benchmark exercises the estimator it reports with.

Entry points, mirroring ``bench_fleet``:

* ``pytest benchmarks/ --benchmark-only`` runs a short capacity check;
* ``python benchmarks/bench_ops_service.py --out benchmarks/BENCH_ops.json``
  records the reference numbers with per-repeat p99 samples; ``--check``
  is the statistical gate (docs/STATS.md): the load run repeats
  ``--repeats`` times and fails only when the measured p99 sample's
  confidence interval sits entirely above the tolerance-scaled baseline
  CI.  Latency is machine-dependent, so the default tolerance is loose —
  the gate exists to catch order-of-magnitude regressions (an accidental
  O(n) scan per request, a lost writer task), not scheduler jitter.
  A baseline without ``samples`` is refused (exit 2).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass

from repro.core.study import StudyConfig, run_study
from repro.ops import CampaignHub, OpsClient, OpsServer
from repro.ops.ingest import replay_into_hub
from repro.stats.estimators import mean_ci
from repro.stats.gate import ci_overlap_gate, render_gate
from repro.telemetry.sketch import QuantileSet

#: The mixed request diet each client cycles through.
REQUEST_MIX = (
    ("ping", {}),
    ("query", {"campaign": "bench", "metric": "gflops.system"}),
    ("jobs", {"campaign": "bench", "limit": 5}),
    ("alerts", {"campaign": "bench", "since": 0}),
)


@dataclass(frozen=True)
class LoadResult:
    """One load run: how many clients, how fast, how slow at the tail."""

    clients: int
    requests: int
    errors: int
    seconds: float
    p50_ms: float
    p95_ms: float
    p99_ms: float

    @property
    def rps(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0


def _raise_fd_limit(needed: int) -> None:
    """Each client costs a socket pair; lift the soft RLIMIT_NOFILE."""
    try:
        import resource
    except ImportError:  # non-POSIX: hope the default is enough
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = min(hard, max(soft, needed))
    if want > soft:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))


def build_hub(*, seed: int = 5, n_days: int = 2, n_nodes: int = 32) -> CampaignHub:
    """A completed campaign for the service to answer questions about."""
    config = StudyConfig(seed=seed, n_days=n_days, n_nodes=n_nodes, n_users=8)
    dataset = run_study(config)
    hub = CampaignHub()
    hub.register("bench", kind="single", meta={"seed": seed})
    replay_into_hub(hub, "bench", dataset)
    hub.complete("bench", {"jobs": len(dataset.accounting)})
    return hub


async def _run_load(
    hub: CampaignHub, *, clients: int, requests_per_client: int
) -> LoadResult:
    server = await OpsServer.start(hub)
    sketch = QuantileSet((0.5, 0.95, 0.99))
    errors = 0
    connected = 0
    gate = asyncio.Event()  # hold everyone until all clients connected
    ready = asyncio.Event()
    connect_gate = asyncio.Semaphore(128)  # smooth the connect burst

    async def one_client(i: int) -> int:
        nonlocal errors, connected
        async with connect_gate:
            client = await OpsClient.connect("127.0.0.1", server.port)
        async with client:
            connected += 1
            if connected == clients:
                ready.set()
            await gate.wait()
            done = 0
            for r in range(requests_per_client):
                op, operands = REQUEST_MIX[(i + r) % len(REQUEST_MIX)]
                t0 = time.perf_counter()
                try:
                    await client.request(op, **operands)
                except Exception:
                    errors += 1
                else:
                    done += 1
                sketch.add((time.perf_counter() - t0) * 1e3)
            return done

    try:
        tasks = [asyncio.ensure_future(one_client(i)) for i in range(clients)]
        await ready.wait()  # every client is connected and holding
        t0 = time.perf_counter()
        gate.set()
        done = await asyncio.gather(*tasks)
        seconds = time.perf_counter() - t0
    finally:
        await server.close()

    values = sketch.values()
    return LoadResult(
        clients=clients,
        requests=sum(done),
        errors=errors,
        seconds=seconds,
        p50_ms=values[0.5],
        p95_ms=values[0.95],
        p99_ms=values[0.99],
    )


def measure_service_load(
    *, clients: int = 1000, requests_per_client: int = 4, hub: CampaignHub | None = None
) -> LoadResult:
    _raise_fd_limit(2 * clients + 256)
    return asyncio.run(
        _run_load(
            hub or build_hub(), clients=clients, requests_per_client=requests_per_client
        )
    )


def render_result(result: LoadResult) -> str:
    return "\n".join(
        [
            "# sp2-ops service load — mixed ping/query/jobs/alerts diet",
            f"{'clients':>8s} {'reqs':>7s} {'errors':>7s} {'seconds':>8s} "
            f"{'req/s':>9s} {'p50 ms':>8s} {'p95 ms':>8s} {'p99 ms':>8s}",
            f"{result.clients:>8d} {result.requests:>7d} {result.errors:>7d} "
            f"{result.seconds:>8.2f} {result.rps:>9.0f} {result.p50_ms:>8.2f} "
            f"{result.p95_ms:>8.2f} {result.p99_ms:>8.2f}",
        ]
    )


def test_service_load(benchmark, capsys):
    """The service must survive 1000 concurrent clients without dropping
    a single request.

    The hard latency gate lives in the script's ``--check`` mode against
    recorded numbers; here the assertions are structural — every request
    answered, no errors, sane percentile ordering — so the test passes
    on any CI machine while still catching a broken writer path."""
    result = benchmark.pedantic(
        lambda: measure_service_load(clients=1000, requests_per_client=2),
        rounds=1,
        iterations=1,
    )
    assert result.errors == 0
    assert result.requests == 1000 * 2
    assert 0 < result.p50_ms <= result.p99_ms

    with capsys.disabled():
        print()
        print(render_result(result))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="sp2-ops query service load test")
    p.add_argument("--clients", type=int, default=1000)
    p.add_argument("--requests", type=int, default=4, help="requests per client")
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--out", type=str, default=None, help="write results JSON here")
    p.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="load-run repeats: each contributes one p99 sample (default 3)",
    )
    p.add_argument(
        "--check",
        type=str,
        default=None,
        help="recorded BENCH_ops.json to compare the p99 latency "
        "distribution against (CI overlap)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        help="scale the baseline CI ceiling: fail only when the measured "
        "p99 CI sits entirely above tolerance × the baseline CI upper bound",
    )
    args = p.parse_args(argv)
    if args.repeats < 1:
        print("error: --repeats must be positive", file=sys.stderr)
        return 2
    recorded = None
    if args.check:
        with open(args.check) as fh:
            recorded = json.load(fh)
        if "samples" not in recorded:
            print(f"error: baseline {args.check} has no 'samples'", file=sys.stderr)
            return 2

    hub = build_hub(seed=args.seed, n_days=args.days, n_nodes=args.nodes)
    results = [
        measure_service_load(
            clients=args.clients, requests_per_client=args.requests, hub=hub
        )
        for _ in range(args.repeats)
    ]
    result = min(results, key=lambda r: r.p99_ms)  # the headline row
    samples = [r.p99_ms for r in results]
    est = mean_ci(samples)
    print(render_result(result))
    print(
        f"# p99 distribution: {est.mean:.2f} ms "
        f"[{est.ci_low:.2f}, {est.ci_high:.2f}] over n={est.n} repeats"
    )
    errors = sum(r.errors for r in results)
    if errors:
        print(f"FAIL: {errors} requests errored under load", file=sys.stderr)
        return 1

    record = {
        "config": {
            "clients": args.clients,
            "requests_per_client": args.requests,
            "seed": args.seed,
            "n_days": args.days,
            "n_nodes": args.nodes,
            "repeats": args.repeats,
        },
        "results": {
            "requests": result.requests,
            "errors": errors,
            "seconds": round(result.seconds, 4),
            "rps": round(result.rps, 1),
            "p50_ms": round(result.p50_ms, 3),
            "p95_ms": round(result.p95_ms, 3),
            "p99_ms": round(result.p99_ms, 3),
        },
        "samples": [round(s, 3) for s in samples],
        "ci": {"low": round(est.ci_low, 3), "high": round(est.ci_high, 3), "n": est.n},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if recorded is not None:
        gate = ci_overlap_gate(
            samples,
            recorded["samples"],
            higher_is_better=False,
            tolerance=args.tolerance,
        )
        print(render_gate(gate, "service p99 latency"))
        if not gate.passed:
            print(
                "FAIL: service p99 latency regressed past the recorded "
                "latency distribution",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
