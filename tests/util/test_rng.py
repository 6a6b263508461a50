"""Deterministic random-stream management."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RngStreams, _stable_hash, choice_cdf, choice_index, spawn_stream


class TestStreamIdentity:
    def test_same_name_returns_same_generator(self):
        s = RngStreams(1)
        assert s.get("a") is s.get("a")

    def test_different_names_are_independent_objects(self):
        s = RngStreams(1)
        assert s.get("a") is not s.get("b")

    def test_spawn_indexing(self):
        s = RngStreams(1)
        assert s.spawn("job", 3) is s.get("job#3")
        assert s.spawn("job", 3) is not s.spawn("job", 4)


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RngStreams(42).get("x").random(8)
        b = RngStreams(42).get("x").random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_sequence(self):
        a = RngStreams(42).get("x").random(8)
        b = RngStreams(43).get("x").random(8)
        assert not np.array_equal(a, b)

    def test_creation_order_does_not_matter(self):
        s1 = RngStreams(7)
        s1.get("first").random(100)  # consume a lot from another stream
        a = s1.get("second").random(4)

        s2 = RngStreams(7)
        b = s2.get("second").random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_do_not_alias(self):
        s = RngStreams(0)
        a = s.get("alpha").random(16)
        b = s.get("beta").random(16)
        assert not np.array_equal(a, b)


class TestStableHash:
    def test_stable_across_calls(self):
        assert _stable_hash("workload.mix") == _stable_hash("workload.mix")

    def test_distinct_names_distinct_hashes(self):
        names = [f"stream-{i}" for i in range(500)]
        hashes = {_stable_hash(n) for n in names}
        assert len(hashes) == len(names)

    def test_hash_fits_in_63_bits(self):
        for name in ("", "a", "x" * 1000):
            assert 0 <= _stable_hash(name) < 2**63


class TestNames:
    def test_names_reflect_created_streams(self):
        s = RngStreams(5)
        s.get("b")
        s.get("a")
        assert s.names() == ["a", "b"]


class TestSpawnGuards:
    """SeedSequence rejects negative spawn keys with an opaque numpy
    error deep in the stack; our guards fail early and name the value."""

    @pytest.mark.parametrize("key", [(-1,), (0, -3), (2, -1, 4)])
    def test_negative_spawn_key_entries_rejected(self, key):
        with pytest.raises(ValueError, match="non-negative"):
            RngStreams(1, spawn_key=key)

    def test_negative_shard_id_rejected(self):
        with pytest.raises(ValueError, match="shard_id must be non-negative"):
            spawn_stream(1, -1)

    def test_error_names_the_offending_value(self):
        with pytest.raises(ValueError, match="-7"):
            RngStreams(1, spawn_key=(3, -7))


class TestSpawnStream:
    def test_shard_trees_are_deterministic(self):
        a = spawn_stream(9, 2).get("x").random(8)
        b = spawn_stream(9, 2).get("x").random(8)
        np.testing.assert_array_equal(a, b)

    def test_shard_trees_are_disjoint_from_root_and_each_other(self):
        root = RngStreams(9).get("x").random(8)
        s2 = spawn_stream(9, 2).get("x").random(8)
        s3 = spawn_stream(9, 3).get("x").random(8)
        assert not np.array_equal(root, s2)
        assert not np.array_equal(s2, s3)


class TestChoiceDraw:
    """``choice_index`` over ``choice_cdf(p)`` is ``Generator.choice(a, p=p)``."""

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False), min_size=1, max_size=12
        ).filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_pick_and_same_generator_state(self, weights, seed):
        p = np.asarray(weights) / np.sum(weights)
        a = tuple(range(100, 100 + len(p)))
        ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        cdf = choice_cdf(p)
        for _ in range(5):
            assert a[choice_index(cdf, ours)] == numpy_rng.choice(a, p=p)
            assert ours.bit_generator.state == numpy_rng.bit_generator.state

    @given(seed=st.integers(0, 2**32 - 1))
    def test_one_element_population(self, seed):
        ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert choice_index(choice_cdf([1.0]), ours) == 0
        assert numpy_rng.choice((49,), p=[1.0]) == 49
        assert ours.bit_generator.state == numpy_rng.bit_generator.state
