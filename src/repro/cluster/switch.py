"""The SP2 High Performance Switch (Stunkel et al., 1995).

§2 gives the operational characteristics the study depends on: ≈45 µs
latency, 34 MB/s node-to-node bandwidth, aggregate bandwidth scaling
linearly with processor count, and little degradation under full
message-passing load.  The model is therefore a contention-light
latency/bandwidth cost model:

* point-to-point message time = latency + bytes / bandwidth;
* nearest-neighbour exchange phases (the dominant CFD pattern, §4) cost
  one message time per neighbour pair, with optional overlap for
  asynchronous message passing (the 40 Mflops/node Navier–Stokes code
  of §6 used asynchronous messaging);
* every byte moved is visible to the *node* as DMA transfers — the §5
  observation that "most of the DMA traffic represents message-passing
  I/O".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power2.config import SP2_SWITCH, SwitchConfig


@dataclass(frozen=True)
class MessageCost:
    """Wall time and DMA traffic for one communication phase on one node."""

    seconds: float
    bytes_sent: float
    bytes_received: float

    @property
    def total_bytes(self) -> float:
        return self.bytes_sent + self.bytes_received


class HighPerformanceSwitch:
    """Latency/bandwidth cost model of the SP2 switch fabric."""

    def __init__(self, config: SwitchConfig | None = None) -> None:
        self.config = config or SP2_SWITCH
        #: Total bytes ever carried (for utilization reporting).
        self.bytes_carried = 0.0
        self.messages_carried = 0
        #: Fabric degradation factor (>= 1): latency is multiplied and
        #: bandwidth divided by it during a degradation episode
        #: (driven by :mod:`repro.faults.injector`).
        self.degradation = 1.0

    @property
    def latency_seconds(self) -> float:
        return self.config.latency_seconds * self.degradation

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.config.bandwidth_bytes_per_s / self.degradation

    def degrade(self, factor: float) -> None:
        """Enter a degradation episode (route faults, contention)."""
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        self.degradation = factor

    def restore(self) -> None:
        """Return the fabric to nominal performance."""
        self.degradation = 1.0

    def message_seconds(self, nbytes: float) -> float:
        """Time for one point-to-point message."""
        if nbytes < 0:
            raise ValueError("message size cannot be negative")
        return self.latency_seconds + nbytes / self.bandwidth_bytes_per_s

    def send(self, nbytes: float) -> MessageCost:
        """Account one message; returns the sender-side cost."""
        t = self.message_seconds(nbytes)
        self.bytes_carried += nbytes
        self.messages_carried += 1
        return MessageCost(seconds=t, bytes_sent=nbytes, bytes_received=0.0)

    def exchange(
        self,
        nbytes_per_neighbor: float,
        n_neighbors: int,
        *,
        asynchronous: bool = False,
        overlap_fraction: float = 0.7,
    ) -> MessageCost:
        """A nearest-neighbour halo exchange as seen by one node.

        Synchronous exchange serializes the per-neighbour messages (each
        send waits for its matching receive); asynchronous messaging
        overlaps all but ``1 - overlap_fraction`` of the transfer time,
        which is how the best codes in §6 sustained their rates.
        """
        if n_neighbors < 0:
            raise ValueError("neighbour count cannot be negative")
        if not 0.0 <= overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0, 1]")
        one = self.message_seconds(nbytes_per_neighbor)
        if asynchronous:
            # Sends proceed concurrently; latency is paid once and the
            # exposed transfer time shrinks by the overlap factor.
            seconds = self.latency_seconds + (
                (one - self.latency_seconds) * n_neighbors * (1.0 - overlap_fraction)
            )
        else:
            seconds = one * n_neighbors
        total = nbytes_per_neighbor * n_neighbors
        self.bytes_carried += 2.0 * total  # sent and received
        self.messages_carried += 2 * n_neighbors
        return MessageCost(seconds=seconds, bytes_sent=total, bytes_received=total)

    def aggregate_bandwidth(self, n_nodes: int) -> float:
        """§2: aggregate bandwidth scales linearly with processors."""
        if n_nodes < 0:
            raise ValueError("node count cannot be negative")
        if not self.config.per_node_scaling:
            return self.bandwidth_bytes_per_s
        return self.bandwidth_bytes_per_s * n_nodes

    def global_sync_seconds(self, n_nodes: int) -> float:
        """A barrier/allreduce: log2(n) latency hops."""
        if n_nodes <= 1:
            return 0.0
        hops = max(1, (n_nodes - 1).bit_length())
        return self.latency_seconds * hops
