"""The host's current speed, from a fixed reference computation.

A shared host runs the same code at very different speeds from one
minute to the next: the other tenants' load moves the clock frequency
and the share of caches and memory bandwidth this machine's cores get.
On a 2-vCPU Xeon host, one paper-study iteration took 1.7 s when the
host was quiet and 3.6–4.3 s under load, and the medians of ten 30 s
runs of one workload spread by 40%.  No number of iterations inside a
run averages that away, because the load lasts longer than a run.

So ``run.py`` times :func:`reference_pass` between the workload's
iterations and reports every time at a nominal host speed: a run's
median seconds divided by its *slowdown*, the median reference pass
over the run divided by :data:`NOMINAL_PASS_S`.  Work the program gains
or loses moves the workload's seconds and not the reference's, so it
shows in full; a busy host moves both, and cancels.

Load does not slow all code alike: a tight interpreter loop slowed 2.7×
where the iterations slowed 2.3× and their set-up (imports) 1.9×.  In
ten runs per workload under fluctuating load, dividing by the geometric
mean of that loop's slowdown and the slowdown of module loading plus
numpy updates left less spread than dividing by either alone, so a pass
does, in about equal shares, all three kinds of work an iteration does:
loading module code
(unmarshal and execute a generated module of functions and classes),
event handling in the interpreter (a heap of events, dict updates,
string formatting, JSON) and small numpy array updates.  It imports
nothing from ``repro``, so no change to the program changes it.
"""

from __future__ import annotations

import heapq
import json
import marshal
import random
import statistics
import time

import numpy as np

#: Seconds of one :func:`reference_pass` at the reference speed, set so
#: that paper-study's wall_s under load reads what a quiet 2-vCPU Xeon
#: host measured (1.69 s, Python 3.11).  Reported times are seconds at
#: this speed; changing it rescales every reported time, so it stays
#: fixed.
NOMINAL_PASS_S = 0.058

#: Passes per sample, taken back to back between two iterations.
PASSES_PER_SAMPLE = 5

#: A module of small functions and classes, compiled once; a pass
#: unmarshals and executes it, as an import does with a cached module.
MODULE = marshal.dumps(
    compile(
        "\n".join(
            f"def f{i}(a, b=({i}, 'x{i}')):\n"
            f"    return [a, b, {{'k{i}': a}}]\n"
            f"class C{i}:\n"
            f"    x = {i}\n"
            f"    def m(self):\n"
            f"        return self.x\n"
            for i in range(300)
        ),
        "<reference>",
        "exec",
    )
)
LOADS = 8
EVENTS, SLOTS = 14_000, 4096
NODES, COUNTERS, UPDATES = 144, 16, 6000


def _load_modules() -> None:
    for _ in range(LOADS):
        exec(marshal.loads(MODULE), {})


def _handle_events() -> None:
    rng = random.Random(20_240_101)
    queue = [(rng.random() * 86_400.0, i) for i in range(EVENTS)]
    heapq.heapify(queue)
    nodes = [{"busy_s": 0.0, "jobs": 0, "last": 0.0} for _ in range(SLOTS)]
    log: list[str] = []
    while queue:
        t, i = heapq.heappop(queue)
        node = nodes[(i * 7919) % SLOTS]
        node["busy_s"] += t - node["last"]
        node["last"] = t
        node["jobs"] += 1
        if i % 4 == 0:
            log.append(f"{i:08d} {t:12.3f} {node['jobs']}")
    json.dumps(nodes)
    "\n".join(log).encode()


def _update_arrays() -> None:
    rates = np.random.default_rng(20_240_101).random((NODES, COUNTERS))
    counters = np.zeros((NODES, COUNTERS))
    for k in range(UPDATES):
        node = k % NODES
        counters += rates * (k % 7)
        counters[node] = np.maximum(counters[node], rates[node])
    float(counters.sum())


def reference_pass() -> float:
    """One fixed computation; returns the seconds it took."""
    start = time.perf_counter()
    _load_modules()
    _handle_events()
    _update_arrays()
    return time.perf_counter() - start


def sample() -> list[float]:
    """Seconds of :data:`PASSES_PER_SAMPLE` back-to-back passes."""
    return [reference_pass() for _ in range(PASSES_PER_SAMPLE)]


def slowdown(passes: list[float]) -> float:
    """How many times slower than nominal the host ran the reference."""
    return statistics.median(passes) / NOMINAL_PASS_S
