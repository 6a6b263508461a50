"""Deterministic merge of shard outputs into one campaign dataset.

The merge is pure bookkeeping — no randomness, no dependence on which
worker produced which shard, no dependence on arrival order (shards are
processed in index order):

* **Counter samples** are *rebased* in place: each node's cumulative
  counter vector from the previous shards is added into the shard's
  local snapshots, so the concatenated series is monotone per node and
  differencing it yields exactly the concatenation of the shards'
  interval series.  Each shard's ``t=0`` baseline snapshot (all zeros by
  construction — nothing has run at shard-local time zero) duplicates
  the previous shard's horizon sample and is dropped, keeping one sample
  per cadence point, exactly like a serial run.  The merge consumes the
  shard results' samples: the campaign holds one copy of them.
* **Job records** move onto the campaign clock and into per-shard id
  ranges (``job_id + index × JOB_ID_STRIDE``).
* **Spans** likewise (``s<n>`` → ``s<n + index × SPAN_ID_STRIDE>``), via
  :meth:`repro.tracing.span.Span.rebase`; a job's root span takes its
  record's merged job id.
* **Telemetry** is rebuilt by :meth:`TelemetryService.replay` over the
  merged sample/record streams — deterministic by construction, and
  identical no matter how many workers executed the shards.  It is a
  sharded campaign's only telemetry (workers run with no bus), it is
  published on a bus the caller may tap (``bus_hook``), and it is
  skipped when the caller asks for none.  It is also a sharded
  campaign's only differencing: shard workers keep their samples
  without differencing them, and the merged series keeps the intervals
  the replay publishes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.study import StudyConfig, StudyDataset
from repro.faults.events import FaultLog
from repro.hpm.collector import SampleSeries, SystemSample
from repro.parallel.worker import ShardResult
from repro.pbs.accounting import AccountingLog
from repro.pbs.job import JobRecord
from repro.telemetry.bus import TOPIC_SAMPLE, EventBus, SampleTaken
from repro.tracing.span import CAT_JOB
from repro.workload.traces import CampaignTrace

#: Shard *k*'s jobs are numbered ``k×STRIDE + local_id``.  Wide enough
#: that no shard can overflow into the next range (a shard day submits
#: hundreds of jobs, not hundreds of thousands).
JOB_ID_STRIDE = 1_000_000

#: Shard *k*'s spans are ``s(k×STRIDE + local_n)``.  Spans are far more
#: numerous than jobs (every simulator event dispatch is one), so the
#: stride is correspondingly wider.
SPAN_ID_STRIDE = 1_000_000_000


class MergedSampleSeries(SampleSeries):
    """The campaign-wide sample run assembled from shard samples.  Its
    intervals are the replay's (:meth:`take_interval`), or, for a merge
    without telemetry, differenced on read."""

    def take_interval(self, event: SampleTaken) -> None:
        """Keep the interval a replayed sample event closes."""
        if event.interval is not None:
            self._intervals.append(event.interval)


def merge_samples(results: list[ShardResult]) -> list[SystemSample]:
    """Concatenate shard samples onto the campaign clock, rebased in place
    so per-node counters stay monotone across shards (consumes ``results``).

    The base is one ``(n_nodes, 44)`` int64 array: row ``i`` holds node
    ``i``'s counters at the end of the shards merged so far, and each
    sample of a later shard adds the rows of its own node ids."""
    for res in results:
        if not res.samples:
            raise ValueError(f"shard {res.shard.index} has no samples (merged already?)")
    merged: list[SystemSample] = []
    if not results:
        return merged
    first = results[0].samples[0]
    n_nodes = len(first.node_ids) + len(first.missing)
    base = np.zeros((n_nodes, first.matrix.shape[1]), dtype=np.int64)
    for k, res in enumerate(results):
        samples, res.samples = res.samples, []
        offset = res.shard.start_seconds
        for i, sample in enumerate(samples):
            matrix = sample.matrix
            if k > 0:
                # Node ids are ascending, so a sample of every node takes
                # the base whole.
                ids = sample.node_ids
                matrix += base if len(ids) == n_nodes else base.take(ids, axis=0)
                if i == 0:
                    # The shard's t=0 baseline duplicates the previous
                    # shard's horizon sample (local counters are all zero
                    # at shard start); keep the cadence at one sample per
                    # point.
                    continue
            merged.append(
                SystemSample(offset + sample.time, sample.node_ids, matrix, sample.missing)
            )
        _take_last_rows(samples, base)
    return merged


def _take_last_rows(samples: list[SystemSample], base: np.ndarray) -> None:
    """Copy into ``base`` each node's row in the newest of the rebased
    ``samples`` (oldest first) that holds the node; a node in none of
    them keeps its row.  The walk goes back from the newest sample only
    until every node is found: one sample, unless a node was down at
    the end."""
    found = np.zeros(len(base), dtype=bool)
    for sample in reversed(samples):
        ids = np.asarray(sample.node_ids, dtype=np.intp)
        new = ~found[ids]
        base[ids[new]] = sample.matrix[new]
        found[ids[new]] = True
        if found.all():
            break


def merge_records(results: list[ShardResult]) -> list[JobRecord]:
    """Shard job records on the campaign clock with namespaced ids."""
    merged: list[JobRecord] = []
    for res in results:
        offset = res.shard.start_seconds
        id_offset = res.shard.index * JOB_ID_STRIDE
        for r in res.records:
            merged.append(
                JobRecord(
                    job_id=r.job_id + id_offset,
                    user=r.user,
                    app_name=r.app_name,
                    nodes_requested=r.nodes_requested,
                    node_ids=r.node_ids,
                    submit_time=r.submit_time + offset,
                    start_time=r.start_time + offset,
                    end_time=r.end_time + offset,
                    deltas=r.deltas,
                )
            )
    return merged


def merge_probes(results: list[ShardResult]) -> list[tuple[float, int]]:
    """Utilization probes on the campaign clock (each later shard's
    ``t=0`` probe duplicates the previous shard's horizon probe and is
    dropped, mirroring the sample merge)."""
    merged: list[tuple[float, int]] = []
    for k, res in enumerate(results):
        offset = res.shard.start_seconds
        for t, busy in res.utilization_probes:
            if k > 0 and t == 0.0:
                continue
            merged.append((t + offset, busy))
    return merged


def merge_spans(results: list[ShardResult]) -> list:
    """Shard spans on the campaign clock in disjoint id ranges.

    Multi-shard merges tag each shard's campaign-root span with its
    shard index and day range, so a merged trace still reads as one
    timeline per shard in the viewers, and move each job's root span to
    its record's merged id (:func:`merge_records`).
    """
    n_shards = len(results)
    merged = []
    for res in results:
        offset = res.shard.start_seconds
        id_offset = res.shard.index * SPAN_ID_STRIDE
        if n_shards == 1:
            merged.extend(res.spans)
            continue
        for span in res.spans:
            out = span.rebase(time_offset=offset, id_offset=id_offset)
            if span.category == "campaign":
                out.args["shard"] = res.shard.index
                out.args["day_start"] = res.shard.day_start
            elif span.category == CAT_JOB:
                job_id = span.args["job_id"] + res.shard.index * JOB_ID_STRIDE
                out.args["job_id"] = job_id
                out.name = f"job-{job_id}"
            merged.append(out)
    return merged


def merge_faults(results: list[ShardResult]) -> FaultLog | None:
    """Shard fault logs on the campaign clock, summed.

    Each shard's log was already finalized (integrals clipped at the
    shard horizon), so the merge is pure addition; None when no shard
    ran with fault injection.
    """
    logs = [
        res.faults.rebase(res.shard.start_seconds)
        for res in results
        if res.faults is not None
    ]
    return FaultLog.merged(logs) if logs else None


def merge_trace(config: StudyConfig, results: list[ShardResult]) -> CampaignTrace:
    """The campaign-wide submission trace the shards realized."""
    submissions = []
    for res in results:
        offset = res.shard.start_seconds
        if offset == 0.0:
            submissions.extend(res.submissions)
        else:
            from dataclasses import replace

            submissions.extend(replace(s, time=s.time + offset) for s in res.submissions)
    levels = (
        np.concatenate([res.demand_levels for res in results])
        if results
        else np.empty(0)
    )
    return CampaignTrace(
        seed=config.seed,
        n_days=config.n_days,
        n_nodes=config.n_nodes,
        submissions=submissions,
        demand_levels=levels,
    )


def merge_shard_results(
    config: StudyConfig,
    results: list[ShardResult],
    *,
    tracing: bool = False,
    telemetry: bool = True,
    bus_hook: Callable[[EventBus], None] | None = None,
) -> StudyDataset:
    """Assemble the campaign dataset from shard results (index order);
    ``telemetry=False`` skips the telemetry replay
    (``dataset.telemetry`` is None), and ``bus_hook`` receives the
    replay's bus before its first event.

    Consumes ``results``: their counter samples are rebased in place into
    the dataset and each ``res.samples`` is left empty, so merging the
    same list again raises ``ValueError``.
    """
    results = sorted(results, key=lambda r: r.shard.index)
    expected_days = sum(r.shard.n_days for r in results)
    if expected_days != config.n_days:
        raise ValueError(
            f"shard results cover {expected_days} days, campaign has {config.n_days}"
        )

    samples = merge_samples(results)
    records = merge_records(results)
    collector = MergedSampleSeries(samples, cadence=config.sample_interval)
    accounting = AccountingLog()
    for r in records:
        accounting.append(r)

    spans = merge_spans(results) if tracing else []
    faults = merge_faults(results)

    service = None
    if telemetry:
        from repro.telemetry.service import TelemetryService

        def tap(bus: EventBus) -> None:
            bus.subscribe(TOPIC_SAMPLE, collector.take_interval)
            if bus_hook is not None:
                bus_hook(bus)

        service = TelemetryService.replay(
            samples,
            records,
            spans=spans,
            faults=faults.events if faults is not None else (),
            bus_hook=tap,
        )
        if faults is not None:
            # Replay sees fault *events* but not the live side effects
            # (kill notices, dropped passes); carry the counters over so
            # the merged summary matches the live view.
            service.jobs_killed_seen = faults.jobs_killed
            service.collector_gaps_seen = faults.passes_dropped

    tracer = None
    if tracing:
        from repro.tracing.tracer import Tracer

        tracer = Tracer()
        tracer.spans = spans

    return StudyDataset(
        config=config,
        trace=merge_trace(config, results),
        collector=collector,  # type: ignore[arg-type] — same sample/interval surface
        accounting=accounting,
        utilization_probes=merge_probes(results),
        telemetry=service,
        events_processed=sum(r.events_processed for r in results),
        tracer=tracer,
        faults=faults,
    )
