"""The per-node RS2HPM data-collection daemon.

§3: "The RS2HPM daemon, executing on all nodes of the SP2, allows
automatic sampling and data access over the network via TCP."  The
transport is irrelevant to the study (see DESIGN.md substitution 3), so
the daemon here answers "requests" as direct method calls, but keeps the
daemon-shaped behaviour that matters:

* it serves counter snapshots for its node whether or not user processes
  are executing;
* it is individually unreachable when its node is down — the collector
  must tolerate missing nodes (§3 samples "all the SP2 nodes which are
  available").

Reachability is one set of node ids per collector, shared by its
daemons: :meth:`NodeDaemon.mark_down` and :meth:`NodeDaemon.mark_up`
add and remove the daemon's node, so a cron pass tests one set instead
of asking every daemon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hpm.monitor_api import MonitorInterface, MonitorReading
from repro.power2.node import Node


class DaemonUnavailable(ConnectionError):
    """Raised when querying a daemon whose node is down."""


@dataclass
class NodeDaemon:
    """One node's snapshot server."""

    interface: MonitorInterface
    #: Ids of the nodes whose daemon does not answer: shared by every
    #: daemon of one collector, private to a daemon built on its own.
    unreachable: set[int] = field(default_factory=set, repr=False)

    @classmethod
    def for_node(cls, node: Node, unreachable: set[int] | None = None) -> "NodeDaemon":
        return cls(
            interface=MonitorInterface(node),
            unreachable=set() if unreachable is None else unreachable,
        )

    @property
    def node_id(self) -> int:
        return self.interface.node.node_id

    @property
    def available(self) -> bool:
        return self.node_id not in self.unreachable

    def request_snapshot(self, now: float) -> MonitorReading:
        """Serve a counter snapshot (the collector's TCP request)."""
        if not self.available:
            raise DaemonUnavailable(f"node {self.node_id} is not responding")
        return self.interface.read(now)

    def mark_down(self) -> None:
        self.unreachable.add(self.node_id)

    def mark_up(self) -> None:
        self.unreachable.discard(self.node_id)
