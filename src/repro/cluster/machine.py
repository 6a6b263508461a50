"""The assembled SP2: 144 nodes and one switch.

This is the object PBS schedules onto and the RS2HPM collector samples.
Node allocation here is pure bookkeeping (which nodes are free); the
*policy* lives in :mod:`repro.pbs.scheduler`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.switch import HighPerformanceSwitch
from repro.power2.batch import CounterStore
from repro.power2.config import MachineConfig, POWER2_590, SwitchConfig
from repro.power2.node import Node

#: The NAS SP2 size.
NAS_NODE_COUNT = 144


class SP2Machine:
    """A distributed-memory RS6000/590 cluster.

    Every node's counters live in one shared
    :class:`~repro.power2.batch.CounterStore` (slot ``i`` is node ``i``),
    so collector passes and job transitions run as flat array sweeps.
    """

    def __init__(
        self,
        n_nodes: int = NAS_NODE_COUNT,
        config: MachineConfig | None = None,
        *,
        switch_config: SwitchConfig | None = None,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("machine needs at least one node")
        self.config = config or POWER2_590
        self.nodes: list[Node] = [Node(i, self.config) for i in range(n_nodes)]
        #: Every node id in node order: the cron pass's id tuple when
        #: every daemon answers (:meth:`read_counters` tests it by identity).
        self.node_ids = tuple(range(n_nodes))
        self.store = CounterStore(n_nodes)
        for node in self.nodes:
            node.attach_store(self.store, node.node_id)
        self.switch = HighPerformanceSwitch(switch_config)
        self._free: set[int] = set(range(n_nodes))
        self._allocations: dict[int, tuple[int, ...]] = {}
        self._next_alloc_id = 0
        #: Crashed nodes: withheld from allocation until repaired.
        self._down: set[int] = set()

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def peak_gflops(self) -> float:
        """Aggregate peak: 144 × 267 Mflops ≈ 38.4 Gflops for NAS."""
        return self.n_nodes * self.config.peak_mflops / 1e3

    # ------------------------------------------------------------------
    # Allocation bookkeeping (users got dedicated nodes, §2)
    # ------------------------------------------------------------------
    def allocate(self, n_nodes: int) -> tuple[int, tuple[int, ...]]:
        """Reserve ``n_nodes`` dedicated nodes; returns (alloc_id, node ids).

        Raises :class:`RuntimeError` if not enough nodes are free — the
        scheduler is responsible for not over-committing.
        """
        if n_nodes <= 0:
            raise ValueError("must allocate at least one node")
        if n_nodes > len(self._free):
            raise RuntimeError(
                f"requested {n_nodes} nodes but only {len(self._free)} free"
            )
        chosen = tuple(sorted(self._free)[:n_nodes])
        self._free.difference_update(chosen)
        alloc_id = self._next_alloc_id
        self._next_alloc_id += 1
        self._allocations[alloc_id] = chosen
        return alloc_id, chosen

    def release(self, alloc_id: int) -> tuple[int, ...]:
        """Return an allocation's nodes to the free pool.

        Crashed nodes stay out of the pool — they rejoin at
        :meth:`repair_node`, not when the job that died on them is
        cleaned up.
        """
        try:
            nodes = self._allocations.pop(alloc_id)
        except KeyError:
            raise KeyError(f"unknown allocation id {alloc_id}") from None
        overlap = self._free.intersection(nodes)
        if overlap:
            raise RuntimeError(f"nodes {sorted(overlap)} double-freed")
        self._free.update(n for n in nodes if n not in self._down)
        return nodes

    def busy_node_ids(self) -> set[int]:
        return set(range(self.n_nodes)) - self._free - self._down

    # ------------------------------------------------------------------
    # Failure transitions (driven by repro.faults.injector)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Take a node out of service (hardware failure).

        Idle nodes leave the free pool immediately; a node running a job
        stays in its allocation until the scheduler kills the job, and
        :meth:`release` then withholds it from the pool.
        """
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"no node {node_id} in a {self.n_nodes}-node machine")
        self._down.add(node_id)
        self._free.discard(node_id)

    def repair_node(self, node_id: int) -> None:
        """Return a crashed node to service (and to the free pool)."""
        if node_id not in self._down:
            raise ValueError(f"node {node_id} is not down")
        self._down.discard(node_id)
        if not any(node_id in nodes for nodes in self._allocations.values()):
            self._free.add(node_id)

    # ------------------------------------------------------------------
    # Sampling support
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def read_counters(self, node_ids: Sequence[int], now: float) -> np.ndarray:
        """Sync ``node_ids`` to ``now`` and read their counters.

        Returns an ``(len(node_ids), 44)`` int64 matrix: one row per
        node, in the order given, columns in
        :data:`~repro.power2.counters.FLAT_NAMES` order (broken divide
        counters read 0).  This is the one counter read behind the
        collector's cron pass and the PBS prologue/epilogue: one masked
        sweep of the store plus one gather.  Nodes not listed are
        neither synced nor read.  Every node in node order (the cron pass
        when every daemon answers, which passes :attr:`node_ids` itself)
        sweeps and reads the whole store, with no slot array and no
        gather.  ``node_ids`` may already be the slot index array (slot i
        is node i), as PBS passes a job's.
        """
        all_ids = self.node_ids
        if node_ids is all_ids or (len(node_ids) == len(all_ids) and tuple(node_ids) == all_ids):
            self.store.sync_slots(all_ids, now)
            return self.store.snapshot_matrix()
        slots = np.asarray(node_ids, dtype=np.intp)  # slot i is node i
        self.store.sync_slots(slots, now)
        return self.store.snapshot_matrix(slots)

