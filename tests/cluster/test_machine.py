"""SP2 machine assembly and allocation bookkeeping."""

import pytest

from repro.cluster.machine import NAS_NODE_COUNT, SP2Machine


class TestAssembly:
    def test_nas_default_size(self):
        assert NAS_NODE_COUNT == 144
        assert SP2Machine().n_nodes == 144

    def test_peak_gflops(self):
        """144 × 267 Mflops ≈ 38.4 Gflops aggregate peak (the 3%
        efficiency denominator)."""
        assert SP2Machine().peak_gflops == pytest.approx(38.4, rel=0.01)

    def test_node_ids_sequential(self):
        m = SP2Machine(8)
        assert [n.node_id for n in m.nodes] == list(range(8))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            SP2Machine(0)


class TestAllocation:
    def test_allocate_reserves_dedicated_nodes(self):
        m = SP2Machine(16)
        _, nodes = m.allocate(4)
        assert len(nodes) == 4
        assert m.n_free == 12

    def test_allocations_disjoint(self):
        m = SP2Machine(16)
        _, a = m.allocate(8)
        _, b = m.allocate(8)
        assert not set(a) & set(b)

    def test_over_allocation_raises(self):
        m = SP2Machine(4)
        m.allocate(3)
        with pytest.raises(RuntimeError):
            m.allocate(2)

    def test_release_returns_nodes(self):
        m = SP2Machine(8)
        alloc, nodes = m.allocate(5)
        released = m.release(alloc)
        assert released == nodes
        assert m.n_free == 8

    def test_double_release_raises(self):
        m = SP2Machine(8)
        alloc, _ = m.allocate(2)
        m.release(alloc)
        with pytest.raises(KeyError):
            m.release(alloc)

    def test_busy_node_ids(self):
        m = SP2Machine(8)
        _, nodes = m.allocate(3)
        assert m.busy_node_ids() == set(nodes)

    def test_zero_node_allocation_rejected(self):
        with pytest.raises(ValueError):
            SP2Machine(8).allocate(0)
