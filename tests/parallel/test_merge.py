"""Merge bookkeeping on synthetic shard results."""

from __future__ import annotations

import numpy as np

from repro.hpm.collector import SystemSample
from repro.parallel.merge import (
    JOB_ID_STRIDE,
    SPAN_ID_STRIDE,
    merge_probes,
    merge_records,
    merge_samples,
    merge_spans,
)
from repro.parallel.plan import Shard
from repro.parallel.worker import ShardResult
from repro.pbs.job import JobRecord
from repro.tracing.span import Span
from repro.workload.traces import SECONDS_PER_DAY


def _sample(time: float, values: list[int]) -> SystemSample:
    matrix = np.array([[v, v * 2] for v in values], dtype=np.int64)
    return SystemSample(time=time, node_ids=tuple(range(len(values))), matrix=matrix)


def _result(index: int, day_start: int, day_end: int, **kw) -> ShardResult:
    defaults = dict(
        samples=[],
        records=[],
        utilization_probes=[],
        submissions=[],
        demand_levels=np.zeros(day_end - day_start),
        events_processed=0,
    )
    defaults.update(kw)
    return ShardResult(shard=Shard(index, day_start, day_end), **defaults)


class TestMergeSamples:
    def test_rebase_keeps_counters_monotone_across_shards(self):
        # Shard 0 ends with cumulative counters (5, 10) per node; shard 1
        # starts from local zero again.  The merge must lift shard 1 onto
        # shard 0's final values.
        day = SECONDS_PER_DAY
        r0 = _result(0, 0, 1, samples=[_sample(0.0, [0, 0]), _sample(day, [5, 7])])
        r1 = _result(1, 1, 2, samples=[_sample(0.0, [0, 0]), _sample(day, [3, 4])])
        merged = merge_samples([r0, r1])

        assert [s.time for s in merged] == [0.0, day, 2 * day]
        assert merged[1].matrix[0, 0] == 5
        assert merged[2].matrix[0, 0] == 5 + 3
        assert merged[2].matrix[1, 1] == (7 + 4) * 2
        for before, after in zip(merged, merged[1:]):
            assert (after.matrix - before.matrix >= 0).all()

    def test_duplicate_baselines_dropped(self):
        day = SECONDS_PER_DAY
        r0 = _result(0, 0, 1, samples=[_sample(0.0, [0]), _sample(day, [5])])
        r1 = _result(1, 1, 2, samples=[_sample(0.0, [0]), _sample(day, [3])])
        merged = merge_samples([r0, r1])
        # one sample per cadence point: shard 1's local t=0 baseline is
        # the same instant as shard 0's horizon sample.
        times = [s.time for s in merged]
        assert times == sorted(set(times))

    def test_missing_node_keeps_last_base(self):
        day = SECONDS_PER_DAY
        # shard 0's final sample misses node 1; its base must survive
        # from the last sample it appeared in.
        partial = SystemSample(
            time=day,
            node_ids=(0,),
            matrix=np.array([[5, 10]], dtype=np.int64),
            missing=(1,),
        )
        r0 = _result(0, 0, 1, samples=[_sample(0.0, [0, 0]), _sample(day / 2, [2, 6]), partial])
        r1 = _result(1, 1, 2, samples=[_sample(0.0, [0, 0]), _sample(day, [1, 1])])
        merged = merge_samples([r0, r1])
        last = merged[-1]
        assert last.node_ids == (0, 1)
        assert last.matrix[0, 0] == 5 + 1  # node 0: final base 5
        assert last.matrix[1, 0] == 6 + 1  # node 1: last-seen base 6


class TestMergeRecords:
    def test_ids_and_times_namespaced(self):
        rec = JobRecord(
            job_id=3,
            user=1,
            app_name="cfd",
            nodes_requested=4,
            node_ids=(0, 1, 2, 3),
            submit_time=10.0,
            start_time=20.0,
            end_time=30.0,
            deltas=np.zeros((4, 44), dtype=np.int64),
        )
        r1 = _result(1, 2, 4, records=[rec])
        merged = merge_records([r1])
        out = merged[0]
        assert out.job_id == JOB_ID_STRIDE + 3
        offset = 2 * SECONDS_PER_DAY
        assert (out.submit_time, out.start_time, out.end_time) == (
            10.0 + offset,
            20.0 + offset,
            30.0 + offset,
        )
        assert out.deltas is rec.deltas  # the epilogue's matrix, passed through
        # shard 0 is untouched
        r0 = _result(0, 0, 2, records=[rec])
        assert merge_records([r0])[0].job_id == 3


class TestMergeProbes:
    def test_offsets_and_boundary_dedup(self):
        day = SECONDS_PER_DAY
        r0 = _result(0, 0, 1, utilization_probes=[(0.0, 0), (day, 5)])
        r1 = _result(1, 1, 2, utilization_probes=[(0.0, 0), (day, 3)])
        merged = merge_probes([r0, r1])
        assert merged == [(0.0, 0), (day, 5), (2 * day, 3)]


class TestMergeSpans:
    def test_ids_rebased_into_disjoint_ranges(self):
        s0 = Span(span_id="s1", name="campaign", category="campaign", start=0.0, end=10.0)
        s1a = Span(span_id="s1", name="campaign", category="campaign", start=0.0, end=10.0)
        s1b = Span(
            span_id="s2", name="ev", category="sim.event", start=1.0, end=2.0, parent_id="s1"
        )
        day = SECONDS_PER_DAY
        merged = merge_spans(
            [
                _result(0, 0, 1, spans=[s0]),
                _result(1, 1, 2, spans=[s1a, s1b]),
            ]
        )
        ids = [s.span_id for s in merged]
        assert ids == ["s1", f"s{SPAN_ID_STRIDE + 1}", f"s{SPAN_ID_STRIDE + 2}"]
        assert merged[2].parent_id == f"s{SPAN_ID_STRIDE + 1}"
        assert merged[1].start == day and merged[1].end == day + 10.0
        # shard roots are tagged in multi-shard merges
        assert merged[1].args["shard"] == 1
        assert merged[0].args["shard"] == 0

    def test_single_shard_untouched(self):
        span = Span(span_id="s9", name="campaign", category="campaign", start=0.0, end=1.0)
        merged = merge_spans([_result(0, 0, 3, spans=[span])])
        assert merged[0] is span
        assert "shard" not in merged[0].args


class TestSpanRebase:
    def test_rebase_copies(self):
        span = Span(
            span_id="s4",
            name="x",
            category="c",
            start=1.0,
            end=2.0,
            parent_id="s2",
            args={"k": 1},
        )
        out = span.rebase(time_offset=10.0, id_offset=100)
        assert (out.span_id, out.parent_id) == ("s104", "s102")
        assert (out.start, out.end) == (11.0, 12.0)
        out.args["k"] = 2
        assert span.args["k"] == 1  # args copied, not shared

    def test_zero_offset_identity_values(self):
        span = Span(span_id="s4", name="x", category="c", start=1.0, end=None)
        out = span.rebase()
        assert out.span_id == "s4" and out.end is None
