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
  :meth:`repro.tracing.span.Span.rebase`.
* **Telemetry** is rebuilt by :meth:`TelemetryService.replay` over the
  merged sample/record streams — deterministic by construction, and
  identical no matter how many workers executed the shards.  It is a
  sharded campaign's only telemetry (workers run with no bus), and it is
  skipped when the caller asks for none.
"""

from __future__ import annotations

import numpy as np

from repro.core.study import StudyConfig, StudyDataset
from repro.faults.events import FaultLog
from repro.hpm.collector import SampleSeries, SystemSample
from repro.parallel.worker import ShardResult
from repro.pbs.accounting import AccountingLog
from repro.pbs.job import JobRecord
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
    """The campaign-wide sample run assembled from shard samples."""


def merge_samples(results: list[ShardResult]) -> list[SystemSample]:
    """Concatenate shard samples onto the campaign clock, rebased in place
    so per-node counters stay monotone across shards (consumes ``results``)."""
    for res in results:
        if not res.samples:
            raise ValueError(f"shard {res.shard.index} has no samples (merged already?)")
    merged: list[SystemSample] = []
    base: dict[int, np.ndarray] = {}
    for k, res in enumerate(results):
        samples, res.samples = res.samples, []
        offset = res.shard.start_seconds
        base_rows: dict[tuple[int, ...], np.ndarray] = {}
        for i, sample in enumerate(samples):
            matrix = sample.matrix
            if base and sample.node_ids:
                rows = base_rows.get(sample.node_ids)
                if rows is None:
                    zero = np.zeros(matrix.shape[1], dtype=np.int64)
                    rows = np.stack([base.get(nid, zero) for nid in sample.node_ids])
                    base_rows[sample.node_ids] = rows
                matrix += rows
            if k > 0 and i == 0:
                # The shard's t=0 baseline duplicates the previous
                # shard's horizon sample (local counters are all zero at
                # shard start); keep the cadence at one sample per point.
                continue
            merged.append(
                SystemSample(offset + sample.time, sample.node_ids, matrix, sample.missing)
            )
        base.update(_last_rows(samples))
    return merged


def _last_rows(samples: list[SystemSample]) -> dict[int, np.ndarray]:
    """Each node's row in the newest of the rebased ``samples`` (oldest
    first) that holds the node.  The walk goes back from the newest
    sample only until every node of the machine is found: one sample,
    unless a node was down at the end."""
    last: dict[int, np.ndarray] = {}
    n_nodes = len(samples[-1].node_ids) + len(samples[-1].missing)
    for sample in reversed(samples):
        for nid, row in zip(sample.node_ids, sample.matrix):
            last.setdefault(nid, row)
        if len(last) == n_nodes:
            break
    return last


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
    timeline per shard in the viewers.
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
) -> StudyDataset:
    """Assemble the campaign dataset from shard results (index order);
    ``telemetry=False`` skips the telemetry replay
    (``dataset.telemetry`` is None).

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

        service = TelemetryService.replay(
            samples,
            records,
            spans=spans,
            faults=faults.events if faults is not None else (),
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
