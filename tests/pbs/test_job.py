"""Job records: counter-delta algebra (§3's flop counting, §6's ratio)
and the epilogue's delta matrix as the record's one per-node store."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pbs.job import JobRecord, JobSpec, JobState
from repro.power2.counters import FLAT_NAMES
from tests.pbs.counter_deltas import counter_deltas


def record(**overrides) -> JobRecord:
    base = dict(
        job_id=1,
        user=3,
        app_name="multiblock_cfd",
        nodes_requested=2,
        node_ids=(0, 1),
        submit_time=0.0,
        start_time=100.0,
        end_time=1100.0,
        counter_deltas={
            0: {
                "user.fpu0_fp_add": 3_000_000,
                "user.fpu0_fp_mul": 1_000_000,
                "user.fpu0_fp_muladd": 2_000_000,
                "user.fxu0": 5_000_000,
                "user.fxu1": 5_000_000,
                "system.fxu0": 500_000,
                "system.fxu1": 500_000,
            },
            1: {
                "user.fpu1_fp_add": 1_000_000,
                "user.fpu1_fp_muladd": 500_000,
                "user.fxu0": 2_000_000,
                "user.fxu1": 2_000_000,
                "system.fxu0": 100_000,
                "system.fxu1": 100_000,
            },
        },
    )
    base.update(overrides)
    return JobRecord.from_counter_deltas(base.pop("counter_deltas"), **base)


class TestTimes:
    def test_walltime_and_wait(self):
        r = record()
        assert r.walltime_seconds == 1000.0
        assert r.queue_wait_seconds == 100.0
        assert r.node_seconds == 2000.0


class TestFlopAlgebra:
    def test_summed_deltas_adds_across_nodes(self):
        d = record().summed_deltas()
        assert d["user.fxu0"] == 7_000_000

    def test_flops_from_deltas_fma_counts_twice(self):
        d = record().summed_deltas()
        flops = JobRecord.flops_from_deltas(d)
        # adds (3e6 + 1e6) + muls (1e6) + 2 × fma (2e6 + 0.5e6)
        assert flops == 4e6 + 1e6 + 2 * 2.5e6

    def test_total_mflops(self):
        r = record()
        assert r.total_mflops == pytest.approx(10e6 / 1000.0 / 1e6)

    def test_mflops_per_node(self):
        r = record()
        assert r.mflops_per_node == pytest.approx(r.total_mflops / 2)

    def test_zero_walltime_yields_zero_rate(self):
        r = record(end_time=100.0)
        assert r.total_mflops == 0.0


class TestSystemUserRatio:
    def test_ratio(self):
        r = record()
        assert r.system_user_fxu_ratio == pytest.approx(1.2e6 / 14e6)

    def test_ratio_with_zero_user(self):
        r = record(
            node_ids=(0,), counter_deltas={0: {"system.fxu0": 10, "user.fxu0": 0}}
        )
        assert r.system_user_fxu_ratio == float("inf")

    def test_ratio_all_zero(self):
        r = record(node_ids=(0,), counter_deltas={0: {}})
        assert r.system_user_fxu_ratio == 0.0


class TestJobSpec:
    def test_wide_threshold_is_64(self):
        class P:
            walltime_seconds = 1.0
            memory_bytes_per_node = 0.0
            user_rates = None
            system_rates = None
            mflops_per_node = 0.0

        narrow = JobSpec(1, 0, "a", 64, 0.0, P())
        wide = JobSpec(2, 0, "a", 65, 0.0, P())
        assert not narrow.is_wide
        assert wide.is_wide

    def test_invalid_nodes_rejected(self):
        class P:
            pass

        with pytest.raises(ValueError):
            JobSpec(1, 0, "a", 0, 0.0, P())

    def test_starts_queued(self):
        class P:
            pass

        assert JobSpec(1, 0, "a", 1, 0.0, P()).state is JobState.QUEUED


class TestRegisterReuseProperties:
    def test_flops_per_memory_inst(self):
        r = record()
        d = r.summed_deltas()
        expected = JobRecord.flops_from_deltas(d) / (
            d["user.fxu0"] + d["user.fxu1"]
        )
        assert r.flops_per_memory_inst == pytest.approx(expected)

    def test_flops_per_memory_inst_no_fxu(self):
        r = record(node_ids=(0,), counter_deltas={0: {"user.fpu0_fp_add": 100}})
        assert r.flops_per_memory_inst == 0.0

    def test_fma_flop_fraction(self):
        r = record()
        d = r.summed_deltas()
        fma = d["user.fpu0_fp_muladd"] + d.get("user.fpu1_fp_muladd", 0)
        assert r.fma_flop_fraction == pytest.approx(
            2 * fma / JobRecord.flops_from_deltas(d)
        )

    def test_fma_fraction_no_flops(self):
        r = record(node_ids=(0,), counter_deltas={0: {"user.fxu0": 100}})
        assert r.fma_flop_fraction == 0.0


#: Per-node delta dicts on unsorted node ids, each a random subset of
#: the counters, in a random insertion order.
PER_NODE = st.lists(st.integers(0, 4095), min_size=1, max_size=8, unique=True).flatmap(
    lambda ids: st.tuples(
        st.just(tuple(ids)),
        st.permutations(ids).flatmap(
            lambda order: st.fixed_dictionaries(
                {
                    nid: st.dictionaries(st.sampled_from(FLAT_NAMES), st.integers(0, 2**55))
                    for nid in order
                }
            )
        ),
    )
)


class TestMatrixForm:
    @settings(max_examples=200, deadline=None)
    @given(PER_NODE)
    def test_from_counter_deltas_round_trip(self, drawn):
        node_ids, per_node = drawn
        r = record(node_ids=node_ids, counter_deltas=per_node)
        assert r.deltas.dtype == np.int64
        assert r.deltas.shape == (len(node_ids), len(FLAT_NAMES))
        filled = {n: {name: per_node[n].get(name, 0) for name in FLAT_NAMES} for n in node_ids}
        assert list(counter_deltas(r).items()) == list(filled.items())
        total: dict[str, int] = {}
        for nid in node_ids:
            for name, value in filled[nid].items():
                total[name] = total.get(name, 0) + value
        assert list(r.summed_deltas().items()) == list(total.items())

    def test_counter_deltas_is_a_fresh_view(self):
        r = record()
        view = counter_deltas(r)
        view[0]["user.fxu0"] = -1
        assert counter_deltas(r)[0]["user.fxu0"] == 5_000_000
        assert counter_deltas(r) is not counter_deltas(r)
        assert vars(r).keys() == {f.name for f in dataclasses.fields(r)}

    def test_summed_once_and_again_only_for_a_new_matrix(self):
        r = record()
        totals = r.summed_deltas()
        assert r.summed_deltas() is totals
        r.deltas = r.deltas * 2
        assert r.summed_deltas()["user.fxu0"] == 2 * totals["user.fxu0"]

    def test_equality_compares_every_field_and_the_matrix(self):
        r = record()
        assert r == record() and r.deltas is not record().deltas
        changes = {"app_name": "other", "node_ids": (10, 11)}
        for field in dataclasses.fields(r)[:-1]:
            name = field.name
            changed = changes[name] if name in changes else getattr(r, name) + 1
            assert dataclasses.replace(r, **{name: changed}) != r, name
        bumped = record()
        bumped.deltas[1, 0] += 1
        assert bumped != r
        narrowed = record()
        narrowed.deltas = r.deltas.astype(np.int32)  # same values, other dtype
        assert narrowed != r

    def test_pickle_keeps_fields_and_totals_not_the_cache(self):
        r = record()
        totals = dict(r.summed_deltas())
        state = pickle.dumps(r)
        assert pickle.dumps(record()) == state  # the reduced totals are not pickled
        back = pickle.loads(state)
        assert back == r
        assert "_reduced" not in vars(back)
        assert dict(back.summed_deltas()) == totals

    @pytest.mark.parametrize(
        "per_node, node_ids, message",
        [
            ({0: {}}, (0, 1), "no counters for node 1"),
            ({0: {}, 1: {}, 7: {}}, (0, 1), "counters for node 7, which is not in node_ids"),
            ({0: {}}, (0, 0), "node 0 appears twice in node_ids"),
            ({0: {"user.fxu9": 1}}, (0,), "node 0: unknown counter 'user.fxu9'"),
            ({0: {"user.fxu0": 2**63}}, (0,), f"node 0: user.fxu0 = {2**63} overflows int64"),
        ],
    )
    def test_from_counter_deltas_rejects(self, per_node, node_ids, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            record(node_ids=node_ids, counter_deltas=per_node)
