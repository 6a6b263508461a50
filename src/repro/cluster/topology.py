"""The SP2 High Performance Switch topology (Stunkel et al., 1995).

The cost model in :mod:`repro.cluster.switch` treats the fabric as a
constant-latency pipe, which is all the campaign needs (§2: "the system
displayed little performance degradation when tested under a full load
of message-passing jobs").  This module builds the *structure* that
claim rests on: SP2 frames of 16 nodes, each frame carrying a switch
board of eight 8-port bidirectional crossbar chips arranged in two
stages (four node-side chips, four link-side chips, fully connected
inside the board), with link-side chips cabled to the other frames.

Built on :mod:`networkx`, it answers the structural questions the cost
model abstracts:

* route/hop counts between any two nodes (intra-frame: 3 chip hops;
  inter-frame: 5);
* bisection width, which is what makes aggregate bandwidth scale
  linearly with node count;
* link-load distribution under uniform traffic (no hot links — the
  "little degradation under full load" property).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

#: Nodes per SP2 frame.
FRAME_SIZE = 16
#: Node-side switch chips per frame (4 nodes each).
NODE_CHIPS_PER_FRAME = 4
#: Link-side chips per frame.
LINK_CHIPS_PER_FRAME = 4
#: Hardware latency per chip hop (the ~45 µs §2 quotes is dominated by
#: software; the wire/chip part is well under a microsecond).
CHIP_HOP_SECONDS = 125e-9


@dataclass(frozen=True)
class Route:
    """One node-to-node route through the fabric."""

    source: int
    destination: int
    path: tuple[str, ...]

    @property
    def chip_hops(self) -> int:
        """Switch chips traversed."""
        return sum(1 for v in self.path if isinstance(v, str) and v.startswith(("nc:", "lc:")))

    @property
    def hardware_latency_seconds(self) -> float:
        return self.chip_hops * CHIP_HOP_SECONDS


class HPSTopology:
    """A frames-of-16 SP2 switch fabric."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.n_frames = (n_nodes + FRAME_SIZE - 1) // FRAME_SIZE
        self.graph = self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def _node(n: int) -> int:
        return n

    @staticmethod
    def _node_chip(frame: int, chip: int) -> str:
        return f"nc:{frame}:{chip}"

    @staticmethod
    def _link_chip(frame: int, chip: int) -> str:
        return f"lc:{frame}:{chip}"

    def _build(self) -> nx.Graph:
        g = nx.Graph()
        for frame in range(self.n_frames):
            # Chips on this frame's switch board.
            ncs = [self._node_chip(frame, c) for c in range(NODE_CHIPS_PER_FRAME)]
            lcs = [self._link_chip(frame, c) for c in range(LINK_CHIPS_PER_FRAME)]
            g.add_nodes_from(ncs, kind="node-chip", frame=frame)
            g.add_nodes_from(lcs, kind="link-chip", frame=frame)
            # Node ports: 4 nodes per node-side chip.
            base = frame * FRAME_SIZE
            for local in range(min(FRAME_SIZE, self.n_nodes - base)):
                node = base + local
                g.add_node(node, kind="node", frame=frame)
                g.add_edge(node, ncs[local // 4], kind="node-link")
            # The board's internal stage: full bipartite nc ↔ lc.
            for nc in ncs:
                for lc in lcs:
                    g.add_edge(nc, lc, kind="board-link")
        # Inter-frame cables: link chip c of frame i ↔ link chip c of
        # every other frame (each chip has enough ports for the NAS
        # scale; larger systems add intermediate switch boards).
        for c in range(LINK_CHIPS_PER_FRAME):
            for i in range(self.n_frames):
                for j in range(i + 1, self.n_frames):
                    g.add_edge(
                        self._link_chip(i, c), self._link_chip(j, c), kind="frame-cable"
                    )
        return g

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> Route:
        """Shortest route between two compute nodes."""
        for n in (src, dst):
            if not 0 <= n < self.n_nodes:
                raise ValueError(f"node {n} out of range")
        path = nx.shortest_path(self.graph, src, dst)
        return Route(source=src, destination=dst, path=tuple(path))

    def chip_hops(self, src: int, dst: int) -> int:
        return self.route(src, dst).chip_hops

    def bisection_width(self) -> int:
        """Frame-cable links crossing a half/half frame split."""
        if self.n_frames < 2:
            # Within one frame the board's bipartite stage is the cut.
            return NODE_CHIPS_PER_FRAME * LINK_CHIPS_PER_FRAME // 2
        half = self.n_frames // 2
        left = set(range(half))
        return sum(
            1
            for u, v, data in self.graph.edges(data=True)
            if data.get("kind") == "frame-cable"
            and ((int(u.split(":")[1]) in left) != (int(v.split(":")[1]) in left))
        )

    def link_load_under_uniform_traffic(self) -> dict[str, float]:
        """Mean shortest-path load per link kind (edge betweenness over
        compute-node pairs), normalized so 1.0 = average load.

        The SP2 claim: no link kind is a hotspot — loads stay within a
        small factor of each other as the machine grows.
        """
        nodes = list(range(self.n_nodes))
        bet = nx.edge_betweenness_centrality_subset(
            self.graph, sources=nodes, targets=nodes, normalized=False
        )
        by_kind: dict[str, list[float]] = {}
        for (u, v), load in bet.items():
            kind = self.graph.edges[u, v].get("kind", "?")
            by_kind.setdefault(kind, []).append(load)
        all_loads = [l for ls in by_kind.values() for l in ls]
        mean = sum(all_loads) / len(all_loads) if all_loads else 1.0
        return {
            kind: (sum(ls) / len(ls)) / mean if mean else 0.0
            for kind, ls in by_kind.items()
        }

    def summary(self) -> str:
        intra = self.chip_hops(0, 1)
        inter = self.chip_hops(0, FRAME_SIZE) if self.n_frames > 1 else intra
        return (
            f"HPS fabric: {self.n_nodes} nodes in {self.n_frames} frames; "
            f"{intra} chip hops intra-frame, {inter} inter-frame; "
            f"bisection width {self.bisection_width()} cables"
        )
