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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hpm.monitor_api import MonitorInterface, MonitorReading
from repro.power2.node import Node


class DaemonUnavailable(ConnectionError):
    """Raised when querying a daemon whose node is down."""


@dataclass
class NodeDaemon:
    """One node's snapshot server."""

    interface: MonitorInterface
    available: bool = True

    @classmethod
    def for_node(cls, node: Node) -> "NodeDaemon":
        return cls(interface=MonitorInterface(node))

    @property
    def node_id(self) -> int:
        return self.interface.node.node_id

    def request_snapshot(self, now: float) -> MonitorReading:
        """Serve a counter snapshot (the collector's TCP request)."""
        if not self.available:
            raise DaemonUnavailable(f"node {self.node_id} is not responding")
        return self.interface.read(now)

    def mark_down(self) -> None:
        self.available = False

    def mark_up(self) -> None:
        self.available = True
