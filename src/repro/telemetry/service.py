"""The streaming telemetry service: bus consumers wired together.

One :class:`TelemetryService` subscribes to the campaign's event bus and
maintains, *while the simulation runs*:

* the metric store (:mod:`repro.telemetry.store`) — one point per
  15-minute interval for every metric in :data:`METRIC_CATALOG`, written
  as one row (plus ``fpu.ratio``'s own point while FPU1 issues);
* the anomaly engine (:mod:`repro.telemetry.rules`) — evaluated on each
  interval as it closes;
* the per-job rollup table (:mod:`repro.telemetry.rollup`) — finalized
  at epilogue time.

The per-sample path is incremental: the collector differences each new
sample as it takes it and publishes the interval on the sample's
:class:`~repro.telemetry.bus.SampleTaken` event, and the service derives
its rates once, from the interval's int64 row, and hands the store and
the rules that one record, so the online layer costs O(metrics) per
sample regardless of campaign length.

``replay`` rebuilds a service from recorded samples and job records:
a sharded campaign's only telemetry, published on a bus the caller may
tap (``bus_hook``), and the determinism check (online == replay) in
the integration tests.  Its intervals are a sharded campaign's only
differencing: the merged series keeps them.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.hpm.collector import SAMPLE_INTERVAL_SECONDS, SystemSample, flag_gap, sample_delta
from repro.hpm.derived import row_rates
from repro.pbs.job import JobRecord
from repro.telemetry.bus import (
    TOPIC_COLLECTOR_GAP,
    TOPIC_FAULT,
    TOPIC_JOB_END,
    TOPIC_JOB_KILLED,
    TOPIC_JOB_START,
    TOPIC_SAMPLE,
    TOPIC_SIM_TRUNCATED,
    TOPIC_SPAN,
    CollectorGap,
    EventBus,
    FaultInjected,
    JobEnded,
    JobKilled,
    JobStarted,
    SampleTaken,
    SimTruncated,
    SpanFinished,
)
from repro.telemetry.rollup import RollupTable
from repro.telemetry.rules import Alert, AnomalyEngine, Observation
from repro.telemetry.store import MetricStore

#: The live metric catalog (name → what the value is, per interval).
METRIC_CATALOG: dict[str, str] = {
    "gflops.system": "whole-machine Gflops over the interval",
    "mflops.node": "per-node Mflops over the interval",
    "fxu.sys_user_ratio": "system-mode / user-mode FXU instruction ratio (§6)",
    "fxu.user_mips": "user-mode FXU Mips per node (activity floor input)",
    "fpu.ratio": "FPU0:FPU1 instruction ratio (§5 healthy ≈1.7)",
    "tlb.miss_rate": "TLB misses, millions/s per node",
    "dcache.miss_rate": "D-cache misses, millions/s per node",
    "dma.mb_per_node": "DMA traffic, MB/s per node (§5 message passing)",
    "cycles.user_fraction": "fraction of cycles spent in user mode",
    "nodes.reporting": "nodes that answered both samples of the interval",
    "jobs.active": "jobs between prologue and epilogue at sample time",
}


class TelemetryService:
    """Online observability for one campaign."""

    def __init__(
        self,
        *,
        bus: EventBus | None = None,
        store: MetricStore | None = None,
        engine: AnomalyEngine | None = None,
        rollups: RollupTable | None = None,
        tracer=None,
    ) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.store = store if store is not None else MetricStore()
        self.engine = engine if engine is not None else AnomalyEngine()
        self.rollups = rollups if rollups is not None else RollupTable()
        # When a campaign traces, alerts carry the id of the collector
        # span they fired inside (the drill-down handle, see
        # docs/TRACING.md); the engine reads the tracer's current span.
        if tracer is not None and self.engine.tracer is None:
            self.engine.tracer = tracer
        self.samples_seen = 0
        self.intervals_seen = 0
        #: Tracing spans republished on the bus, counted by category.
        self.spans_seen = 0
        #: Job id → root span id for finished traced jobs.
        self.job_span_ids: dict[int, str] = {}
        #: ``sim.truncated`` notices (a non-empty list means the
        #: campaign stopped on an event budget, not the horizon).
        self.truncations: list[SimTruncated] = []
        #: Fault-injection events seen (0 on a healthy campaign).
        self.faults_seen = 0
        #: Jobs killed by node failures (includes requeued attempts).
        self.jobs_killed_seen = 0
        #: Collector cron passes lost to dropouts.
        self.collector_gaps_seen = 0
        self.bus.subscribe(TOPIC_SAMPLE, self._on_sample)
        self.bus.subscribe(TOPIC_JOB_START, self.rollups.on_start)
        self.bus.subscribe(TOPIC_JOB_END, self._on_job_end)
        self.bus.subscribe(TOPIC_SPAN, self._on_span)
        self.bus.subscribe(TOPIC_SIM_TRUNCATED, self.truncations.append)
        self.bus.subscribe(TOPIC_FAULT, self._on_fault)
        self.bus.subscribe(TOPIC_JOB_KILLED, self._on_job_killed)
        self.bus.subscribe(TOPIC_COLLECTOR_GAP, self._on_collector_gap)

    # ------------------------------------------------------------------
    # Bus handlers
    # ------------------------------------------------------------------
    def _on_sample(self, ev: SampleTaken) -> None:
        """One interval: its rates derived once from the row, one store
        row for the metrics every interval carries, and the rules on the
        same rates."""
        self.samples_seen += 1
        iv = ev.interval
        if iv is None or iv.seconds <= 0 or iv.n_nodes <= 0:
            return
        self.intervals_seen += 1
        time, nodes = ev.time, iv.n_nodes
        rates = row_rates(iv.sums, iv.seconds, nodes)
        self.store.append(
            time,
            {
                "gflops.system": rates.gflops_system(),
                "mflops.node": rates.mflops_total,
                "fxu.sys_user_ratio": rates.system_user_fxu_ratio,
                "fxu.user_mips": rates.mips_fxu_total,
                "tlb.miss_rate": rates.tlb_miss_rate,
                "dcache.miss_rate": rates.dcache_miss_rate,
                "dma.mb_per_node": rates.dma_bytes_per_s / 1e6,
                "cycles.user_fraction": rates.user_cycle_fraction,
                "nodes.reporting": float(nodes),
                "jobs.active": float(len(self.rollups.active)),
            },
        )
        # The FPU ratio exists only while FPU1 issues: its own ring.
        if rates.mips_fp_unit1 > 0:
            self.store.append(time, {"fpu.ratio": rates.fpu_ratio})
        self.engine.observe(Observation(time, rates, nodes, ev.sample.missing))

    def _on_job_end(self, ev: JobEnded) -> None:
        self.rollups.on_end(ev)

    def _on_fault(self, ev: FaultInjected) -> None:
        """Every injected fault becomes an operator alert directly (no
        rule evaluation: the injector *knows* something broke, unlike
        the inferred pathologies the rules hunt for)."""
        from repro.faults.events import SEVERITY_BY_KIND

        self.faults_seen += 1
        fe = ev.event
        self.engine.alerts.append(
            Alert(
                time=ev.time,
                rule="fault",
                severity=SEVERITY_BY_KIND.get(fe.kind, "info"),
                key=fe.key,
                message=fe.describe(),
                value=float(fe.value) if fe.value is not None else 0.0,
            )
        )

    def _on_job_killed(self, ev: JobKilled) -> None:
        self.jobs_killed_seen += 1
        self.rollups.on_killed(ev)

    def _on_collector_gap(self, ev: CollectorGap) -> None:
        self.collector_gaps_seen += 1

    def _on_span(self, ev: SpanFinished) -> None:
        self.spans_seen += 1
        span = ev.span
        if span.category == "pbs.job":
            self.job_span_ids[int(span.args.get("job_id", 0))] = span.span_id

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def alerts(self) -> list[Alert]:
        return self.engine.alerts

    def alert_counts(self) -> dict[str, int]:
        return self.engine.counts_by_rule()

    def summary(self) -> dict:
        """JSON-ready rollup of the telemetry side of a campaign.

        Fault keys appear only when fault injection actually fired, so
        healthy-campaign summaries stay byte-identical to earlier
        releases (the golden files pin them).
        """
        out = {
            "samples_seen": self.samples_seen,
            "intervals_seen": self.intervals_seen,
            "jobs_finished": len(self.rollups),
            "jobs_active": len(self.rollups.active),
            "alerts_total": len(self.engine.alerts),
            "alerts_by_rule": self.alert_counts(),
            "alerts_suppressed": self.engine.suppressed,
            "spans_seen": self.spans_seen,
            "truncated": len(self.truncations) > 0,
            # Ring evictions across every metric series.  0 is a
            # statement ("every served window is complete"), not noise —
            # silent drops undermine trust in the telemetry feed.
            "points_dropped": self.store.points_dropped,
        }
        if self.faults_seen:
            out["faults_seen"] = self.faults_seen
            out["jobs_killed_seen"] = self.jobs_killed_seen
            out["collector_gaps_seen"] = self.collector_gaps_seen
        return out

    # ------------------------------------------------------------------
    # Offline replay
    # ------------------------------------------------------------------
    @classmethod
    def replay(
        cls,
        samples: Iterable[SystemSample],
        records: Iterable[JobRecord] = (),
        *,
        spans: Iterable = (),  # repro.tracing.span.Span (kept untyped: no cycle)
        faults: Iterable = (),  # repro.faults.events.FaultEvent (kept untyped)
        bus_hook: Callable[[EventBus], None] | None = None,
    ) -> "TelemetryService":
        """Rebuild the live view from recorded samples and job records.

        Job starts are synthesized from the records' start times (only
        finished jobs leave records, so ``jobs.active`` can undercount
        near the horizon relative to the live view); everything the rules
        and metric derivations consume is fed in time order exactly as
        the live bus would have delivered it, so replayed alerts match
        online alerts — the determinism property the integration tests
        assert.

        ``spans`` (recorded :class:`~repro.tracing.span.Span` objects)
        let callers that *do* hold the tracing side of a finished
        campaign — the sharded runner's merge — carry it into the
        replayed view; they are republished after the sample stream
        (offline replay cannot interleave them exactly as the live bus
        did, but the counters and job→span index match).

        ``faults`` (recorded ``FaultEvent`` objects, e.g. a merged
        ``FaultLog``'s events) are interleaved with the sample stream by
        time, so the replayed alert list carries the same fault alerts
        the live service produced.

        ``bus_hook`` receives the new service's bus before the first
        event is published: the sharded runner's seam for live
        consumers, which then see the replay's exact stream.
        """
        service = cls()
        if bus_hook is not None:
            bus_hook(service.bus)
        for topic, event in replay_events(samples, records, spans=spans, faults=faults):
            service.bus.publish(topic, event)
        return service


def replay_events(
    samples: Iterable[SystemSample],
    records: Iterable[JobRecord] = (),
    *,
    spans: Iterable = (),
    faults: Iterable = (),
) -> Iterable[tuple[str, object]]:
    """The canonical replay ordering, as ``(topic, event)`` pairs.

    This is the single definition of how a recorded campaign becomes an
    event stream again: faults, job ends and job starts are interleaved
    with the sample stream by time, then trailing records and spans
    follow; each sample event carries the interval it closes,
    differenced and gap-flagged here as the live collector does (at the
    paper's cadence, :data:`~repro.hpm.collector.SAMPLE_INTERVAL_SECONDS`),
    so the replayed stream equals the live one.
    :meth:`TelemetryService.replay` publishes these pairs on a fresh
    bus, and whatever taps that bus (the ops hub, through
    :mod:`repro.ops.ingest`) sees the identical stream.
    """
    span_list = list(spans)
    fault_list = sorted(faults, key=lambda f: f.time)
    recs = list(records)
    starts = sorted(recs, key=lambda r: (r.start_time, r.job_id))
    ends = sorted(recs, key=lambda r: (r.end_time, r.job_id))
    si = ei = fi = 0
    prev = None
    for sample in samples:
        while fi < len(fault_list) and fault_list[fi].time <= sample.time:
            fe = fault_list[fi]
            yield TOPIC_FAULT, FaultInjected(time=fe.time, event=fe)
            fi += 1
        while ei < len(ends) and ends[ei].end_time <= sample.time:
            rec = ends[ei]
            yield TOPIC_JOB_END, JobEnded(time=rec.end_time, record=rec)
            ei += 1
        while si < len(starts) and starts[si].start_time <= sample.time:
            rec = starts[si]
            yield (
                TOPIC_JOB_START,
                JobStarted(
                    time=rec.start_time,
                    job_id=rec.job_id,
                    user=rec.user,
                    app_name=rec.app_name,
                    nodes_requested=rec.nodes_requested,
                    node_ids=rec.node_ids,
                ),
            )
            si += 1
        interval = None
        if prev is not None:
            interval = flag_gap(sample_delta(prev, sample), SAMPLE_INTERVAL_SECONDS)
        prev = sample
        yield TOPIC_SAMPLE, SampleTaken(sample.time, sample, interval)
    for fe in fault_list[fi:]:
        yield TOPIC_FAULT, FaultInjected(time=fe.time, event=fe)
    for rec in ends[ei:]:
        yield TOPIC_JOB_END, JobEnded(time=rec.end_time, record=rec)
    for span in span_list:
        yield TOPIC_SPAN, SpanFinished(time=span.end or span.start, span=span)
