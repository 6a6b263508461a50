"""The probe's arithmetic and its wrappers, on synthetic calls and tiny campaigns."""

from __future__ import annotations

import functools

import pytest

from perfbench import probe
from perfbench.probe import Recorder, layer_metrics
from perfbench.workloads import PaperStudy, ShardedFaults, SmallSweep


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_on_a_synthetic_span_tree():
    """campaign [0, 10] holds step [1, 4] and step [5, 9]; each step holds
    a counted store call of 1 s and 2 s.  Self time is duration minus
    the part covered by children, at every level."""
    clock = FakeClock()
    rec = Recorder("t", full=True, clock=clock)

    def store(seconds: float) -> None:
        clock.advance(seconds)

    store = rec._wrap(store, "power2.store", spanned=False)

    def step(before: float, inner: float, after: float) -> None:
        clock.advance(before)
        store(inner)
        clock.advance(after)

    step = rec._wrap(step, "sim.step", spanned=False)

    with rec.span("core.campaign"):
        clock.advance(1)
        step(0.5, 1.0, 1.5)
        clock.advance(1)
        step(1.0, 2.0, 1.0)
        clock.advance(1)

    assert rec.calls["core.campaign"] == [1, 10.0, 3.0]
    assert rec.calls["sim.step"] == [2, 7.0, 4.0]
    assert rec.calls["power2.store"] == [2, 3.0, 3.0]
    (campaign,) = rec.tracer.spans
    assert (campaign.start, campaign.end, campaign.parent_id) == (0.0, 10.0, None)
    assert campaign.args == {"run": "t", "self_s": 3.0}
    assert rec.root_seconds() == 10.0
    assert list(rec.step_seconds) == [3.0, 4.0]
    # Self times partition the root span's wall time.
    assert sum(own for _, _, own in rec.calls.values()) == 10.0


def test_nested_spans_link_to_their_parent():
    clock = FakeClock()
    rec = Recorder("t", full=True, clock=clock)
    with rec.span("parallel.merge"):
        clock.advance(2)
        with rec.span("parallel.replay"):
            clock.advance(3)
    replay, merge = rec.tracer.spans
    assert replay.parent_id == merge.span_id
    assert merge.args["self_s"] == 2.0 and replay.args["self_s"] == 3.0
    assert layer_metrics(rec, workers=1)["parallel.merge_s"] == 2.0


def test_absorbed_worker_spans_hang_under_the_parent():
    clock = FakeClock()
    worker = Recorder("t", full=True, clock=clock)
    with worker.span("parallel.shard"):
        clock.advance(4)
    parent = Recorder("t", full=True, clock=clock)
    with parent.span("parallel.execute") as _:
        clock.advance(1)
    execute = parent.tracer.spans[0]
    parent.absorb(worker.report(), parent=execute)
    shard = parent.tracer.spans[1]
    assert shard.parent_id == execute.span_id
    assert shard.span_id != execute.span_id
    assert parent.calls["parallel.shard"] == [1, 4.0, 4.0]


def test_percentile_is_nearest_rank():
    assert probe.percentile([], 50) == 0.0
    assert probe.percentile([5, 1, 3, 2, 4], 50) == 3
    assert probe.percentile(range(1, 101), 99) == 99


class BindingCounter(Recorder):
    """A Recorder that also counts calls per patched binding, so a
    wrapper on a name its caller never looks up shows as zero calls."""

    def install(self) -> None:
        super().install()
        self.hits: dict[str, int] = {}
        for owner, attr, _ in self.patched:
            key = f"{getattr(owner, '__module__', owner.__name__)}.{owner.__name__}.{attr}"
            self.hits.setdefault(key, 0)
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

            def count(fn, key=key):
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    self.hits[key] += 1
                    return fn(*args, **kwargs)

                return counted

            setattr(owner, attr, probe._rewrap(current, count))


TINY = (
    PaperStudy(days=2, nodes=16, users=4),
    ShardedFaults(days=2, shard_days=1, workers=1, nodes=16, users=4),
    SmallSweep(days=2, nodes=8, users=2),
)


def _run(workload, workdir, rec):
    try:
        outcome = workload.run(0, workdir, rec)
        patches = rec.patched
    finally:
        rec.uninstall()
    return outcome, patches


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload on a 2-day campaign, in-process, every wrapper
    installed: (workload, recorder, outcome, patches before removal)."""
    runs = []
    for workload in TINY:
        rec = BindingCounter("tiny", full=True)
        outcome, patches = _run(workload, tmp_path_factory.mktemp(workload.name), rec)
        runs.append((workload, rec, outcome, patches))
    return runs


def test_tiny_workloads_complete(tiny_runs):
    for workload, rec, outcome, _ in tiny_runs:
        assert outcome.done is not None and outcome.sim_s, workload.name
        assert outcome.digest is not None, workload.name
        assert rec.first_event is not None, workload.name


def test_every_wrapped_entry_point_records(tiny_runs):
    """Each frame name has calls, each span-kind entry point has spans,
    and each patched binding was called through at least once: a
    wrapper on ``repro.hpm.collector.sample_delta`` alone would miss
    the telemetry service, which calls its own imported binding."""
    calls: dict[str, int] = {}
    spans: set[str] = set()
    hits: dict[str, int] = {}
    for _, rec, _, _ in tiny_runs:
        for name, (count, _, _) in rec.calls.items():
            calls[name] = calls.get(name, 0) + count
        spans |= {s.name for s in rec.tracer.spans}
        for key, n in rec.hits.items():
            hits[key] = hits.get(key, 0) + n
    expected = {name for name, _, _, _ in probe.ENTRY_POINTS}
    expected |= {bucket for _, bucket in probe.HANDLER_BUCKETS}
    expected |= {"power2.sync", "power2.store", "parallel.execute", "parallel.shard"}
    missing = sorted(name for name in expected if not calls.get(name))
    assert not missing, f"wrapped entry points that recorded nothing: {missing}"
    spanned = {name for name, _, is_span, _ in probe.ENTRY_POINTS if is_span}
    spanned |= {"parallel.execute", "parallel.shard"}
    assert spanned <= spans, f"no span for {sorted(spanned - spans)}"
    # Store methods are wrapped by class, whichever backend runs; every
    # other binding is wrapped because a caller looks it up.
    unhit = sorted(k for k, n in hits.items() if not n and "CounterStore" not in k)
    assert not unhit, f"patched bindings never called: {unhit}"


def test_forked_workers_ship_their_account(tmp_path):
    workload = ShardedFaults(days=2, shard_days=1, workers=2, nodes=16, users=4)
    rec = Recorder("fork", full=True)
    outcome, _ = _run(workload, tmp_path, rec)
    assert outcome.digest is not None, outcome.errors
    assert rec._absorbed == 2
    assert rec.worker_peak_rss_kb > 0 and rec.tallies["parallel.result_bytes"] > 0
    by_id = {s.span_id: s for s in rec.tracer.spans}
    shards = [s for s in rec.tracer.spans if s.name == "parallel.shard"]
    assert len(shards) == 2
    assert all(by_id[s.parent_id].name == "parallel.execute" for s in shards)
    assert rec.calls["sim.step"][0] > 0 and rec.first_event is not None


def test_wrappers_are_gone_after_the_run(tiny_runs):
    for _, _, _, patches in tiny_runs:
        assert patches, "nothing was patched"
        for owner, attr, original in patches:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is original, f"{owner!r}.{attr} still wrapped"
    assert probe._ACTIVE is None


def test_untraced_recorder_patches_only_campaign_hooks():
    rec = Recorder("light", full=False)
    rec.install()
    try:
        names = {attr for _, attr, _ in rec.patched}
    finally:
        rec.uninstall()
    assert "run" in names and "step" not in names and "publish" not in names
    assert not rec.patched


def test_layer_metrics_cover_the_catalog(tiny_runs):
    from perfbench import catalog

    for workload, rec, _, _ in tiny_runs:
        names = set(layer_metrics(rec, workers=workload.workers)) | {
            "trace.coverage",
            "trace.overhead",
        }
        assert names == {m.name for m in catalog.PER_LAYER}


def test_counts_are_deterministic(tmp_path):
    """Two traced runs of one seed agree on every exact count."""
    from perfbench import catalog

    workload = SmallSweep(days=1, nodes=8, users=2)
    seen = []
    for k in range(2):
        rec = Recorder("det", full=True)
        (tmp_path / str(k)).mkdir()
        try:
            workload.run(3, tmp_path / str(k), rec)
        finally:
            rec.uninstall()
        layers = layer_metrics(rec, workers=1)
        seen.append({m.name: layers[m.name] for m in catalog.PER_LAYER if m.exact
                     and m.name in layers})
    assert seen[0] == seen[1]
