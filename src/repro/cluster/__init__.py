"""The SP2 machine substrate: switch and node assembly.

§2 of the paper describes the pieces modelled here:

* :mod:`repro.cluster.switch` — the High Performance Switch: 45 µs
  latency, 34 MB/s node-to-node bandwidth, linearly scaling aggregate
  bandwidth, message-passing cost model;
* :mod:`repro.cluster.machine` — the 144-node assembly with node
  allocation bookkeeping for PBS.

The NFS home filesystems' traffic is costed per job, as checkpoint I/O
in :mod:`repro.workload.profile`.
"""

from repro.cluster.switch import HighPerformanceSwitch, MessageCost
from repro.cluster.machine import SP2Machine

__all__ = [
    "HighPerformanceSwitch",
    "MessageCost",
    "SP2Machine",
]
