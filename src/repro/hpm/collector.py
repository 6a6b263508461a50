"""The 15-minute system-wide collection cron job.

§3: "At 15-minute intervals, the cron daemon runs a script to collect
data from all the SP2 nodes which are available for user jobs and stores
this data for later analysis."  The collector polls every node daemon,
takes one :class:`SystemSample` per interval and differences it against
the one before it as it takes it, into one int64 row of column sums
(:class:`IntervalCounts`).  The telemetry service (through the
sample's bus event) and the analysis layer (the daily/15-minute rate
series behind Figure 1 and the 5.7 Gflops 15-minute maximum) both read
those intervals.

A sample is an ``(n_nodes, 44)`` int64 matrix (user bank then system
bank, see :data:`repro.power2.counters.FLAT_NAMES`).  A 270-day campaign
takes ~26k passes × 144 nodes, so the per-pass path must be vectorized
(profiled: the dict-based path was 30× slower), and keeping every
pass's matrix would hold 1.25 GB.  So the collector holds only the
latest sample, and what the campaign keeps is its interval rows (44
int64 each); ``samples`` keeps every pass only when asked
(``keep_samples``: the shard worker, whose merge rebases and replays
them).  A collector that keeps its samples and publishes to no bus
does not difference them as it takes them: ``intervals()`` differences
them when read.  The shard worker is that collector, and nothing reads
its intervals; the merge's replay differences the merged samples once.

A pass is one :meth:`~repro.cluster.machine.SP2Machine.read_counters`
call over the nodes whose daemon answers — the same read the PBS
prologue and epilogue make.  Which daemons answer is one set of node
ids the daemons keep up to date.  The common pass (everyone answers)
is one test of that set.  Otherwise the pass reuses the reachable ids,
the missing ids and their slot array, which the collector rebuilds only
when the set changes, so the passes between two daemon state changes
share one ``node_ids`` tuple.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.hpm.daemon import NodeDaemon
from repro.power2.counters import FLAT_NAMES
from repro.sim.engine import Simulator
from repro.sim.periodic import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.machine import SP2Machine
    from repro.telemetry.bus import EventBus
    from repro.tracing.tracer import Tracer

#: The paper's sampling cadence.
SAMPLE_INTERVAL_SECONDS = 15 * 60.0


class SystemSample(NamedTuple):
    """One cron pass: per-node counter snapshots at one instant.

    A named tuple, built positionally: the collector makes one per pass."""

    time: float
    node_ids: tuple[int, ...]
    #: Shape (len(node_ids), 44): user bank then system bank per row.
    matrix: np.ndarray
    #: Node ids that did not answer this pass.
    missing: tuple[int, ...] = ()


class IntervalCounts(NamedTuple):
    """Summed counter deltas between two consecutive samples.

    ``sums`` is the interval's one node-wide record: the ``(44,)`` int64
    column sums of the per-node deltas, in
    :data:`~repro.power2.counters.FLAT_NAMES` order.  Every rate is
    derived from it (:func:`repro.hpm.derived.row_rates`).  A named
    tuple, built positionally: the collector makes one per pass.
    """

    start: float
    end: float
    sums: np.ndarray
    n_nodes: int
    #: True when this interval spans one or more dropped collector
    #: passes: its counts are real (the counters kept accumulating) but
    #: cover more than one cadence period, so per-interval *rates* are
    #: effectively interpolated across the gap.
    interpolated: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __eq__(self, other: object) -> bool:
        """Every field; ``sums`` by dtype and values.  Only another
        interval is equal: tuple equality would compare ``sums``
        elementwise."""
        if other.__class__ is not self.__class__:
            return False
        a, b = self.sums, other.sums
        return (self.start, self.end, self.n_nodes, self.interpolated) == (
            other.start, other.end, other.n_nodes, other.interpolated
        ) and (a.dtype == b.dtype and np.array_equal(a, b))

    def __ne__(self, other: object) -> bool:
        # A named tuple inherits tuple.__ne__, not the inverse of __eq__.
        return not self.__eq__(other)


def sample_delta(before: SystemSample, after: SystemSample) -> IntervalCounts:
    """Counter deltas between two samples, summed over the nodes present
    in both (a node missing from either is skipped, as the real scripts
    had to do), as one int64 row.  A counter that went backwards is a
    one-line ``ValueError``.  Used by :class:`SampleSeries` and telemetry
    replay."""
    before_ids, ids = before.node_ids, after.node_ids
    if before_ids is ids or before_ids == ids:
        b, a = before.matrix, after.matrix
    else:
        ids, bi, ai = np.intersect1d(
            before_ids, ids, assume_unique=True, return_indices=True
        )
        b, a = before.matrix[bi], after.matrix[ai]
    diff = a - b
    if diff.min(initial=0) < 0:
        row, col = np.argwhere(diff < 0)[0]
        raise ValueError(
            f"interval ending at {after.time} s: node {ids[row]} counter "
            f"{FLAT_NAMES[col]} went backwards ({b[row, col]} -> {a[row, col]})"
        )
    return IntervalCounts(before.time, after.time, diff.sum(axis=0), len(ids))


def flag_gap(iv: IntervalCounts, cadence: float) -> IntervalCounts:
    """``iv``, flagged ``interpolated`` when it spans well over one
    ``cadence`` period (dropped passes): the rule every interval of a
    live or replayed run follows."""
    return iv._replace(interpolated=True) if iv.seconds > cadence * 1.5 else iv


class SampleSeries:
    """Interval algebra over an ordered run of :class:`SystemSample`.

    Base of :class:`SystemCollector` (which *produces* samples on the
    simulation clock) and of the parallel runner's merged series (which
    *concatenates* rebased shard samples) — both expose the same
    ``intervals()`` surface the analysis layer consumes.  ``samples`` is
    the run, where it is kept.
    """

    def __init__(
        self,
        samples: "list[SystemSample] | None" = None,
        *,
        cadence: float | None = None,
    ) -> None:
        self.samples: list[SystemSample] = samples if samples is not None else []
        #: Interval i spans samples i and i + 1; the list grows in place.
        self._intervals: list[IntervalCounts] = []
        #: Nominal sample spacing; intervals spanning well over one
        #: cadence period (dropped passes) are flagged interpolated.
        #: ``None`` disables flagging.
        self.cadence = cadence

    def intervals(self) -> list[IntervalCounts]:
        """Counter deltas between consecutive samples, summed over the
        nodes present in both (a node missing from either is skipped for
        that interval, as the real scripts had to do).  With a known
        cadence, intervals spanning a collector gap carry
        ``interpolated=True``.  Each sample is differenced once: pairs
        already differenced (by a collector as it took them, or by the
        replay that fed a merged series) are not differenced again, and
        the rest are differenced here."""
        samples = self.samples
        for i in range(len(self._intervals) + 1, len(samples)):
            self._difference(samples[i - 1], samples[i])
        return self._intervals

    def _difference(self, before: SystemSample, after: SystemSample) -> IntervalCounts:
        iv = sample_delta(before, after)
        if self.cadence is not None:
            iv = flag_gap(iv, self.cadence)
        self._intervals.append(iv)
        return iv

    def gap_intervals(self) -> list[IntervalCounts]:
        """The intervals that span dropped collector passes."""
        return [iv for iv in self.intervals() if iv.interpolated]


class SystemCollector(SampleSeries):
    """Collects system-wide samples on the simulation clock and
    differences each against the one before it.

    One :class:`~repro.hpm.daemon.NodeDaemon` per machine node decides
    which nodes a pass reaches (:attr:`daemons`, in node order; a down
    daemon's node id is in their shared reachability set); the counters
    themselves come from one machine-level read.  The collector holds
    the latest sample (:attr:`last_sample`); ``samples`` stays empty
    unless ``keep_samples`` asks for every pass.
    """

    def __init__(
        self,
        machine: "SP2Machine",
        *,
        interval: float = SAMPLE_INTERVAL_SECONDS,
        bus: "EventBus | None" = None,
        tracer: "Tracer | None" = None,
        keep_samples: bool = False,
    ) -> None:
        super().__init__(cadence=interval)
        self.machine = machine
        self.keep_samples = keep_samples
        #: The latest pass taken (None before the baseline): the next
        #: interval starts here.  A dropped pass leaves it in place, so
        #: the next interval spans the gap.
        self.last_sample: SystemSample | None = None
        #: Node ids whose daemon does not answer, kept by the daemons'
        #: ``mark_down``/``mark_up``.
        self._unreachable: set[int] = set()
        self.daemons = [NodeDaemon.for_node(n, self._unreachable) for n in machine.nodes]
        #: Every node, for the common pass where all daemons answer: the
        #: machine's own tuple, so its read tests it by identity.
        self._all_ids = machine.node_ids
        #: The unreachable set :attr:`_reach` was built for.
        self._reach_for: frozenset[int] = frozenset()
        #: (reachable ids, missing ids, the reachable slots to read):
        #: rebuilt only when a daemon goes down or up, so the passes in
        #: between share one ``node_ids`` tuple.
        self._reach: tuple = (self._all_ids, (), self._all_ids)
        self.interval = interval
        self.bus = bus
        #: Span tracer; each cron pass becomes one span on the machine
        #: timeline (sample publication happens inside it, so alerts
        #: fired from the sample carry this span's id).
        self.tracer = tracer
        #: Nodes unreachable as of the latest pass (transition tracking
        #: for the node.down / node.up bus topics).
        self._down: set[int] = set()
        #: Fault-injection hook: when set, the next cron pass is lost
        #: (no sample taken) — the §3 pipeline's missing data files.
        self._drop_next = False
        self.passes_dropped = 0

    def attach(self, sim: Simulator) -> PeriodicTask:
        """Arm the cron job; also takes the t=0 baseline sample."""
        self.collect(sim.now)
        return PeriodicTask(sim, self.interval, lambda s: self.collect(s.now), name="rs2hpm-cron")

    def drop_next_pass(self) -> None:
        """Suppress the next cron pass (fault injection)."""
        self._drop_next = True

    def collect(self, now: float) -> SystemSample | None:
        """One cron pass over all node daemons.

        Returns ``None`` (and takes nothing) when the pass was dropped
        by fault injection; the next successful pass's interval then
        spans the gap and is flagged interpolated.
        """
        if self._drop_next:
            self._drop_next = False
            self.passes_dropped += 1
            if self.bus is not None:
                from repro.telemetry.bus import TOPIC_COLLECTOR_GAP, CollectorGap

                self.bus.publish(
                    TOPIC_COLLECTOR_GAP,
                    CollectorGap(time=now, passes_dropped=self.passes_dropped),
                )
            return None
        if self.tracer is None or not self.tracer.enabled:
            return self._collect(now)
        from repro.tracing.span import CAT_HPM

        with self.tracer.span("cron-pass", CAT_HPM) as span:
            sample = self._collect(now)
            span.args["nodes"] = len(sample.node_ids)
            span.args["missing"] = len(sample.missing)
        return sample

    def _collect(self, now: float) -> SystemSample:
        """Read every node whose daemon answers.

        An unreachable node is left out of the read entirely — neither
        synced nor read — as a cron script that cannot contact its
        daemon never touches it.  That is load-bearing for the store
        backend: advancing a down node's clock in two steps instead of
        one would change its accumulators bitwise.
        """
        if self._unreachable != self._reach_for:
            self._reach = self._reachable()
        ids, missing, slots = self._reach
        sample = SystemSample(now, ids, self.machine.read_counters(slots, now), missing)
        if self.keep_samples and self.bus is None:
            # Kept for a reader and published to no one (a shard worker):
            # ``intervals()`` differences the samples where they are read.
            self.last_sample = sample
            self.samples.append(sample)
            return sample
        last = self.last_sample
        interval = self._difference(last, sample) if last is not None else None
        self.last_sample = sample
        if self.keep_samples:
            self.samples.append(sample)
        self._publish(sample, interval)
        return sample

    def _reachable(self) -> tuple:
        """(reachable ids, missing ids, reachable slots) for the current
        unreachable set.  Every node answering reads the machine's own
        tuple; otherwise the slots are an index array (slot i is node
        i), so the read converts nothing."""
        unreachable = self._reach_for = frozenset(self._unreachable)
        if not unreachable:
            return self._all_ids, (), self._all_ids
        ids = tuple(i for i in self._all_ids if i not in unreachable)
        return ids, tuple(sorted(unreachable)), np.array(ids, dtype=np.intp)

    def _publish(self, sample: SystemSample, interval: IntervalCounts | None) -> None:
        """Feed the streaming side: the sample and the interval it
        closes, plus node reachability transitions (down on first missed
        pass, up on the first answered one)."""
        bus = self.bus
        if bus is None:
            return
        events = _bus_events()
        taken = events.SampleTaken(sample.time, sample, interval)
        if not sample.missing and not self._down:
            # The common pass: every node answered, now and before.
            bus.publish(events.TOPIC_SAMPLE, taken)
            return
        now_down = set(sample.missing)
        for node_id in sorted(now_down - self._down):
            bus.publish(
                events.TOPIC_NODE_DOWN,
                events.NodeStateChanged(time=sample.time, node_id=node_id, up=False),
            )
        for node_id in sorted(self._down - now_down):
            bus.publish(
                events.TOPIC_NODE_UP,
                events.NodeStateChanged(time=sample.time, node_id=node_id, up=True),
            )
        self._down = now_down
        bus.publish(events.TOPIC_SAMPLE, taken)


@functools.cache
def _bus_events():
    """:mod:`repro.telemetry.bus`, imported on the first publish:
    ``repro.telemetry`` imports this module, so importing it at load
    time would be a cycle, and an ``import`` statement on every pass
    costs more than the publish it guards."""
    import repro.telemetry.bus as events

    return events
