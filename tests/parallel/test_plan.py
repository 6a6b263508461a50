"""Shard planning and per-shard RNG spawning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.plan import DEFAULT_SHARD_DAYS, Shard, plan_shards
from repro.util.rng import RngStreams, spawn_stream
from repro.workload.traces import SECONDS_PER_DAY, generate_shard_trace, generate_trace
from tests.workload.trace_digest import trace_digest


class TestPlanShards:
    def test_covers_campaign_contiguously(self):
        shards = plan_shards(270, 15)
        assert len(shards) == 18
        assert shards[0].day_start == 0
        assert shards[-1].day_end == 270
        for a, b in zip(shards, shards[1:]):
            assert a.day_end == b.day_start
        assert [s.index for s in shards] == list(range(18))

    def test_last_shard_short(self):
        shards = plan_shards(10, 4)
        assert [(s.day_start, s.day_end) for s in shards] == [(0, 4), (4, 8), (8, 10)]
        assert shards[-1].n_days == 2

    def test_single_shard_when_width_covers_campaign(self):
        assert plan_shards(30, 30) == [Shard(0, 0, 30)]
        assert plan_shards(30, 100) == [Shard(0, 0, 30)]

    def test_default_width(self):
        shards = plan_shards(30)
        assert shards[0].n_days == DEFAULT_SHARD_DAYS

    def test_plan_is_worker_free(self):
        # The plan API has no worker parameter at all — the layout is a
        # function of (n_days, shard_days) only.
        assert plan_shards(100, 7) == plan_shards(100, 7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(0)
        with pytest.raises(ValueError):
            plan_shards(10, 0)

    def test_start_seconds(self):
        assert plan_shards(10, 4)[1].start_seconds == 4 * SECONDS_PER_DAY


class TestSpawnStream:
    def test_deterministic_per_shard(self):
        a = spawn_stream(42, 3).get("workload.submissions")
        b = spawn_stream(42, 3).get("workload.submissions")
        assert a.random() == b.random()

    def test_shards_are_independent(self):
        draws = {
            shard: spawn_stream(42, shard).get("workload.submissions").random()
            for shard in range(4)
        }
        assert len(set(draws.values())) == 4

    def test_disjoint_from_campaign_root(self):
        root = RngStreams(42).get("workload.submissions").random()
        shard0 = spawn_stream(42, 0).get("workload.submissions").random()
        assert root != shard0

    def test_rejects_negative_shard(self):
        with pytest.raises(ValueError):
            spawn_stream(1, -1)

    def test_root_streams_unchanged_by_spawn_key_refactor(self):
        # The campaign-root tree must keep its historical sequences (all
        # calibrated outputs depend on them): same (seed, name), same draws.
        s1 = RngStreams(7).get("workload.demand")
        s2 = RngStreams(7, spawn_key=()).get("workload.demand")
        assert s1.random() == s2.random()


class TestShardTrace:
    def test_local_times_inside_shard(self):
        trace = generate_shard_trace(
            5, shard_id=2, day_start=4, day_end=6, n_days=10, n_nodes=32, n_users=8
        )
        assert trace.n_days == 2
        horizon = 2 * SECONDS_PER_DAY
        assert all(0.0 <= s.time < horizon for s in trace.submissions)

    def test_shard_content_independent_of_other_shards(self):
        # Shard 1 of a 3-shard plan == shard 1 of a 10-shard plan: the
        # draws depend on (seed, shard_id, day range) only.
        kw = dict(shard_id=1, day_start=2, day_end=4, n_nodes=32, n_users=8)
        a = generate_shard_trace(5, n_days=6, **kw)
        b = generate_shard_trace(5, n_days=20, **kw)
        assert [(s.time, s.user, s.app_name, s.nodes) for s in a.submissions] == [
            (s.time, s.user, s.app_name, s.nodes) for s in b.submissions
        ]

    def test_demand_levels_are_the_campaign_slice(self):
        full = generate_trace(5, n_days=6, n_nodes=32, n_users=8)
        shard = generate_shard_trace(
            5, shard_id=1, day_start=2, day_end=4, n_days=6, n_nodes=32, n_users=8
        )
        assert np.allclose(shard.demand_levels, full.demand_levels[2:4])

    def test_multi_shard_trace_is_pinned(self):
        # Shard 1 of a 28-day, 144-node campaign at shard_days=7:
        # (time, user, app, nodes, walltime) per submission.
        trace = generate_shard_trace(
            8, shard_id=1, day_start=7, day_end=14, n_days=28, n_nodes=144, n_users=60
        )
        assert len(trace.submissions) == 177
        assert trace_digest({"shard": trace.submissions}) == (
            "0e0ce047a6ce01456903e35c55d9d36ab4c497eb0f24bf3873692c835bda7c4d"
        )

    def test_rejects_out_of_range_days(self):
        with pytest.raises(ValueError):
            generate_shard_trace(
                5, shard_id=0, day_start=4, day_end=3, n_days=10, n_nodes=32, n_users=8
            )
        with pytest.raises(ValueError):
            generate_shard_trace(
                5, shard_id=0, day_start=0, day_end=11, n_days=10, n_nodes=32, n_users=8
            )
