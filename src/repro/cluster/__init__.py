"""The SP2 machine substrate: switch, filesystems, and node assembly.

§2 of the paper describes the pieces modelled here:

* :mod:`repro.cluster.switch` — the High Performance Switch: 45 µs
  latency, 34 MB/s node-to-node bandwidth, linearly scaling aggregate
  bandwidth, message-passing cost model;
* :mod:`repro.cluster.filesystem` — the NFS-mounted home filesystems
  (3 × 8 GB) whose traffic also crosses the switch and shows up in the
  DMA counters;
* :mod:`repro.cluster.machine` — the 144-node assembly with node
  allocation bookkeeping for PBS.
"""

from repro.cluster.switch import HighPerformanceSwitch, MessageCost
from repro.cluster.filesystem import NFSFilesystem, FileServer
from repro.cluster.machine import SP2Machine

__all__ = [
    "HighPerformanceSwitch",
    "MessageCost",
    "NFSFilesystem",
    "FileServer",
    "SP2Machine",
]
