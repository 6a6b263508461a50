"""Wall-clock probe: timing wrappers around the simulator's layer entry points.

A :class:`Recorder` patches the public functions and methods through
which one layer of ``repro`` calls another, times every call on
``time.perf_counter`` and puts the originals back when the run ends.
Nothing under ``src/`` changes: every wrapper is installed from here, on
the name its caller looks up (``repro.telemetry.service`` imports
``sample_delta`` by name, so that module's binding is the one patched).

Each call opens a frame; when it returns, its inclusive time is added to
its name and charged to the enclosing frame as child time, so a name's
self time is its inclusive time minus the time spent in wrapped callees
— a span's duration minus the part its child spans cover.  Coarse entry
points (once per campaign, shard, sweep cell or report) also become
spans of a benchmark-owned :class:`~repro.tracing.tracer.Tracer`; the
per-event, per-interval, per-job and per-node ones are too fine to span
cheaply (``CounterStore.sync_one`` runs ~54k times a 30-day campaign)
and are only counted and timed.

Shard workers forked by the parallel runner inherit the installed
wrappers.  The shard task is replaced by :func:`_shard_task`, which
records the shard in the worker and ships the worker's account back
attached to the :class:`~repro.parallel.worker.ShardResult`; the parent
takes it off again before the merge sees the result.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import resource
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.tracing.span import Span
from repro.tracing.tracer import Tracer

MIB = float(1 << 20)

#: Attribute a worker's account travels under on a ShardResult.
REPORT_ATTR = "perfbench_report"

#: Span-id stride between absorbed worker accounts (the program's shard
#: merge uses the same ``s<n + k × stride>`` scheme).
WORKER_ID_STRIDE = 1_000_000_000

#: Simulator event names → handler bucket (prefix match).
HANDLER_BUCKETS = (
    ("rs2hpm-cron", "sim.cron"),
    ("end-job-", "sim.end_job"),
    ("submit-", "sim.submit"),
    ("utilization-probe", "sim.probe"),
    ("fault-", "sim.fault"),
)


def _tally_trace(rec: "Recorder", trace) -> None:
    rec.tally("workload.submissions", len(trace.submissions))


def _tally_campaign(rec: "Recorder", dataset) -> None:
    rec.tally("hpm.sample_bytes", sum(s.matrix.nbytes for s in dataset.collector.samples))
    rec.tally("pbs.jobs", len(dataset.accounting))
    rec.tally("pbs.jobs_killed", dataset.faults.jobs_killed if dataset.faults else 0)
    rec.tally("telemetry.alerts", len(dataset.telemetry.alerts) if dataset.telemetry else 0)


def _tally_replay(rec: "Recorder", service) -> None:
    rec.tally("telemetry.alerts", len(service.alerts))


def _tally_cache_load(rec: "Recorder", document) -> None:
    rec.tally("sweep.cache_hits", 1 if document is not None else 0)


#: (frame name, where the caller looks the name up, becomes a span,
#: what to read off the return value).  Only entry points the three
#: workloads reach are listed; the benchmark's tests fail if one of them
#: records nothing.
ENTRY_POINTS = (
    ("workload.trace", "repro.core.study:generate_trace", True, _tally_trace),
    ("workload.trace", "repro.parallel.worker:generate_shard_trace", True, _tally_trace),
    ("core.campaign", "repro.core.study:WorkloadStudy.run", True, _tally_campaign),
    ("sim.run", "repro.sim.engine:Simulator.run", True, None),
    ("sim.step", "repro.sim.engine:Simulator.step", False, None),
    ("hpm.collect", "repro.hpm.collector:SystemCollector.collect", False, None),
    ("hpm.intervals", "repro.hpm.collector:SampleSeries.intervals", False, None),
    ("hpm.intervals", "repro.hpm.collector:sample_delta", False, None),
    ("hpm.intervals", "repro.telemetry.service:sample_delta", False, None),
    ("pbs.schedule", "repro.pbs.scheduler:PBSServer.submit", False, None),
    ("pbs.schedule", "repro.pbs.scheduler:PBSServer.schedule_pass", False, None),
    ("pbs.delta_sum", "repro.pbs.job:JobRecord.summed_deltas", False, None),
    ("telemetry.publish", "repro.telemetry.bus:EventBus.publish", False, None),
    ("telemetry.store", "repro.telemetry.store:MetricStore.append", False, None),
    ("telemetry.rules", "repro.telemetry.rules:AnomalyEngine.observe", False, None),
    ("telemetry.rollup", "repro.telemetry.rollup:RollupTable.on_end", False, None),
    ("parallel.merge", "repro.parallel.runner:merge_shard_results", True, None),
    ("parallel.replay", "repro.telemetry.service:TelemetryService.replay", True, _tally_replay),
    ("sweep.cell", "repro.sweep.executor:execute_cell", True, None),
    ("sweep.cache_load", "repro.sweep.executor:load_cell", True, _tally_cache_load),
    ("sweep.cache_save", "repro.sweep.executor:save_cell", True, None),
    ("stats.metrics", "repro.stats.campaign:collect_metrics", True, None),
)

#: Entry points an untraced run keeps: O(1) per campaign or shard, they
#: give the first simulated event (``setup_s``) in whichever process it
#: happens.
UNTRACED = ("sim.run",)

#: CounterStore methods that advance accrual clocks (``power2.sync``);
#: every other public store method is ``power2.store``.
STORE_SYNCS = ("sync_one", "sync_slots")

#: The recorder whose wrappers are installed in this process.  Patches
#: are process-global, so the handle to them is too; a forked shard
#: worker finds its inherited recorder here.
_ACTIVE: "Recorder | None" = None


def _resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` → (owner, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type) and attr not in owner.__dict__:
        raise AttributeError(f"{target}: not defined on {owner.__name__}")
    if not hasattr(owner, attr):
        raise AttributeError(f"{target}: no such attribute")
    return owner, attr


def _rewrap(original: Any, make: Callable[[Callable], Callable]) -> Any:
    """Wrap a function, keeping its classmethod/staticmethod binding."""
    if isinstance(original, classmethod):
        return classmethod(make(original.__func__))
    if isinstance(original, staticmethod):
        return staticmethod(make(original.__func__))
    return make(original)


def bucket_for(event_name: str) -> str | None:
    """The handler bucket a simulator event's time is charged to."""
    for prefix, bucket in HANDLER_BUCKETS:
        if event_name.startswith(prefix):
            return bucket
    return None


def percentile(values: Any, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])


class Recorder:
    """Per-process account of calls into the wrapped entry points.

    ``full=False`` installs only :data:`UNTRACED` (plus the shard hooks
    when the parallel runner is loaded), for end-to-end runs; ``full``
    installs every entry point.  :meth:`span` times a call the benchmark
    itself makes into a layer.
    """

    def __init__(
        self, run_id: str, *, full: bool, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.run_id = run_id
        self.full = full
        self.clock = clock
        self.pid = os.getpid()
        self._patches: list[tuple[Any, str, Any]] = []
        self._shard_task: Callable | None = None
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts here)."""
        self.tracer = Tracer(clock=self.clock)
        #: name → [calls, inclusive seconds, self seconds]
        self.calls: dict[str, list] = {}
        #: Quantities read off return values (jobs, submissions, bytes).
        self.tallies: dict[str, float] = {}
        #: Inclusive duration of every ``Simulator.step``.
        self.step_seconds = array("d")
        #: Clock reading at the first ``Simulator.run`` (None = none yet).
        self.first_event: float | None = None
        self.worker_peak_rss_kb = 0
        self._frames: list[list] = []
        self._open_spans: list[Span] = []
        self._absorbed = 0

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _enter(self, name: str, spanned: bool) -> list:
        start = self.clock()
        span = None
        if spanned:
            parent = self._open_spans[-1] if self._open_spans else None
            span = self.tracer.begin(
                name, name.split(".")[0], parent=parent, start=start, run=self.run_id
            )
            self._open_spans.append(span)
        frame = [name, start, 0.0, span]
        self._frames.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = self.clock()
        name, start, child, span = frame
        self._frames.pop()
        inclusive = end - start
        own = inclusive - child
        entry = self.calls.get(name)
        if entry is None:
            entry = self.calls[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += inclusive
        entry[2] += own
        if self._frames:
            self._frames[-1][2] += inclusive
        if span is not None:
            self._open_spans.pop()
            span.args["self_s"] = own
            self.tracer.finish(span, end=end)
        return inclusive

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block in which the benchmark calls into one layer."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def tally(self, key: str, amount: float) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def _wrap(
        self,
        fn: Callable,
        name: str,
        *,
        spanned: bool,
        tally: Callable[["Recorder", Any], None] | None = None,
    ) -> Callable:
        rec = self
        first_event = name == "sim.run"
        keep_duration = name == "sim.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = rec._enter(name, spanned)
            if first_event and rec.first_event is None:
                rec.first_event = frame[1]
            try:
                result = fn(*args, **kwargs)
            finally:
                inclusive = rec._exit(frame)
                if keep_duration:
                    rec.step_seconds.append(inclusive)
            if tally is not None:
                tally(rec, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_call(self, target: str, name: str, spanned: bool, tally=None) -> None:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrap = functools.partial(self._wrap, name=name, spanned=spanned, tally=tally)
        self._patch(owner, attr, _rewrap(original, wrap))

    def install(self) -> None:
        """Put the wrappers in place (full: every entry point)."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another Recorder is already installed in this process")
        _ACTIVE = self
        try:
            for name, target, spanned, tally in ENTRY_POINTS:
                if self.full or name in UNTRACED:
                    self._patch_call(target, name, spanned, tally)
            if self.full:
                self._install_store()
                self._install_handler_buckets()
            # The shard hooks go in whenever the runner is loaded: the
            # first simulated event of a sharded campaign is in a worker.
            if self.full or "repro.parallel.runner" in sys.modules:
                self._install_shard_hooks()
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original, last patched first."""
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None

    @property
    def patched(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) for every live patch."""
        return list(self._patches)

    def _install_store(self) -> None:
        from repro.power2.batch import CounterStore

        classes, pending = [], [CounterStore]
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in classes:
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not callable(value):
                    continue
                name = "power2.sync" if attr in STORE_SYNCS else "power2.store"
                self._patch(cls, attr, self._wrap(value, name, spanned=False))

    def _install_handler_buckets(self) -> None:
        from repro.sim.engine import Simulator

        rec = self
        original = Simulator.__dict__["schedule_at"]

        def timed(handler: Callable, bucket: str) -> Callable:
            def run_handler(sim):
                frame = rec._enter(bucket, False)
                try:
                    return handler(sim)
                finally:
                    rec._exit(frame)

            return run_handler

        @functools.wraps(original)
        def schedule_at(sim, time, handler, *, name="", **kwargs):
            bucket = bucket_for(name)
            if bucket is not None:
                handler = timed(handler, bucket)
            return original(sim, time, handler, name=name, **kwargs)

        self._patch(Simulator, "schedule_at", schedule_at)

    def _install_shard_hooks(self) -> None:
        import repro.parallel.runner as runner

        rec = self
        self._shard_task = runner._run_shard_task
        execute = runner.execute_shards

        @functools.wraps(execute)
        def execute_shards(*args, **kwargs):
            frame = rec._enter("parallel.execute", True)
            try:
                results = execute(*args, **kwargs)
            finally:
                rec._exit(frame)
            for result in results:
                report = result.__dict__.pop(REPORT_ATTR, None)
                if report is not None:
                    rec.absorb(report, parent=frame[3])
            return results

        self._patch(runner, "execute_shards", execute_shards)
        self._patch(runner, "_run_shard_task", _shard_task)

    # ------------------------------------------------------------------
    # Worker accounts
    # ------------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """This process's account, picklable, for the parent to absorb."""
        return {
            "calls": self.calls,
            "tallies": self.tallies,
            "step_seconds": self.step_seconds,
            "first_event": self.first_event,
            "spans": [s.to_dict() for s in self.tracer.spans],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    def absorb(self, report: dict[str, Any], *, parent: Span | None) -> None:
        """Add a worker's account; its root spans hang under ``parent``."""
        for name, (count, inclusive, own) in report["calls"].items():
            entry = self.calls.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += inclusive
            entry[2] += own
        for key, amount in report["tallies"].items():
            self.tally(key, amount)
        self.step_seconds.extend(report["step_seconds"])
        first = report["first_event"]
        if first is not None and (self.first_event is None or first < self.first_event):
            self.first_event = first
        self.worker_peak_rss_kb = max(self.worker_peak_rss_kb, report["peak_rss_kb"])
        self._absorbed += 1
        for row in report["spans"]:
            span = Span.from_dict(row).rebase(id_offset=self._absorbed * WORKER_ID_STRIDE)
            if span.parent_id is None and parent is not None:
                span.parent_id = parent.span_id
            self.tracer.spans.append(span)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def root_seconds(self) -> float:
        """Wall time under this process's root spans (they never overlap)."""
        return sum(s.duration for s in self.tracer.spans if s.parent_id is None)


def _shard_task(payload: tuple):
    """Pool entry point installed in place of the runner's shard task.

    In a forked worker the inherited recorder is reset, the shard runs
    under a ``parallel.shard`` span, and the worker's account rides back
    on the result.  Run in-process (one worker), it is a plain span.
    """
    rec = _ACTIVE
    if rec is None or rec._shard_task is None:
        raise RuntimeError(
            "shard task has no installed Recorder; pool workers must be forked"
        )
    in_worker = os.getpid() != rec.pid
    if in_worker:
        rec.reset()
    frame = rec._enter("parallel.shard", True)
    try:
        result = rec._shard_task(payload)
    finally:
        rec._exit(frame)
    if in_worker:
        if rec.full:
            from multiprocessing.reduction import ForkingPickler

            # What the pool pickles back to the parent, before the
            # account rides along on it.
            rec.tally("parallel.result_bytes", len(ForkingPickler.dumps(result)))
        setattr(result, REPORT_ATTR, rec.report())
    return result


def layer_metrics(rec: Recorder, *, workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced iteration (see catalog.py)."""

    def count(name: str) -> int:
        return rec.calls.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return rec.calls.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return rec.calls.get(name, (0, 0.0, 0.0))[2]

    tallies = rec.tallies
    execute = inclusive("parallel.execute")
    busy = inclusive("parallel.shard")
    cells = count("sweep.cache_load")
    return {
        "workload.trace_s": own("workload.trace"),
        "workload.submissions": tallies.get("workload.submissions", 0),
        "sim.events": count("sim.step"),
        "sim.dispatch_s": own("sim.step"),
        "sim.step_p50_us": percentile(rec.step_seconds, 50) * 1e6,
        "sim.step_p99_us": percentile(rec.step_seconds, 99) * 1e6,
        "sim.cron_s": inclusive("sim.cron"),
        "sim.end_job_s": inclusive("sim.end_job"),
        "sim.submit_s": inclusive("sim.submit"),
        "sim.probe_s": inclusive("sim.probe"),
        "sim.fault_s": inclusive("sim.fault"),
        "power2.store_syncs": count("power2.sync"),
        "power2.accrual_s": own("power2.sync") + own("power2.store"),
        "hpm.passes": count("hpm.collect"),
        "hpm.collect_s": own("hpm.collect"),
        "hpm.sample_mb": tallies.get("hpm.sample_bytes", 0) / MIB,
        "hpm.intervals_s": own("hpm.intervals"),
        "pbs.jobs": tallies.get("pbs.jobs", 0),
        "pbs.jobs_killed": tallies.get("pbs.jobs_killed", 0),
        "pbs.schedule_s": own("pbs.schedule"),
        "pbs.delta_sums": count("pbs.delta_sum"),
        "pbs.delta_sum_s": own("pbs.delta_sum"),
        "telemetry.publishes": count("telemetry.publish"),
        "telemetry.publish_s": own("telemetry.publish"),
        "telemetry.appends": count("telemetry.store"),
        "telemetry.store_s": own("telemetry.store"),
        "telemetry.rules_s": own("telemetry.rules"),
        "telemetry.rollup_s": own("telemetry.rollup"),
        "telemetry.alerts": tallies.get("telemetry.alerts", 0),
        "faults.injected": count("sim.fault"),
        "parallel.shards": count("parallel.shard"),
        "parallel.execute_s": own("parallel.execute"),
        "parallel.shard_busy_s": busy,
        "parallel.efficiency": busy / (workers * execute) if busy and execute else 0.0,
        "parallel.result_mb": tallies.get("parallel.result_bytes", 0) / MIB,
        "parallel.merge_s": own("parallel.merge"),
        "parallel.replay_s": own("parallel.replay"),
        "parallel.worker_peak_rss_mb": rec.worker_peak_rss_kb / 1024.0,
        "sweep.cells": cells,
        "sweep.executed": count("sweep.cell"),
        "sweep.cache_hit_ratio": tallies.get("sweep.cache_hits", 0) / cells if cells else 0.0,
        "sweep.plan_s": own("sweep.plan"),
        "sweep.cache_io_s": own("sweep.cache_load") + own("sweep.cache_save"),
        "stats.campaigns": count("stats.metrics"),
        "stats.metrics_s": own("stats.metrics"),
        "analysis.headlines_s": own("analysis.headlines"),
        "analysis.tables_s": own("analysis.tables"),
        "analysis.figures_s": own("analysis.figures"),
        "analysis.json_s": own("analysis.json"),
    }
