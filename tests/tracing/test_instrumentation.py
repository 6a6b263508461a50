"""Instrumented campaign: one tree per job, byte-stable untraced output."""

import pytest

from repro.analysis.opsreport import campaign_ops_digest, day_ops, render_day_report
from repro.core.study import StudyConfig, WorkloadStudy
from repro.hpm.derived import workload_rates
from repro.telemetry.rules import AnomalyEngine, Observation, PagingRule
from repro.tracing import Tracer, span_index, spans_to_jsonl
from repro.tracing.span import CAT_CAMPAIGN, CAT_JOB_PHASE, CAT_JOB_STATE

_CFG = StudyConfig(seed=42, n_days=1, n_nodes=16, n_users=6)


def _traced_run():
    tracer = Tracer()
    dataset = WorkloadStudy(_CFG, tracer=tracer).run()
    return tracer, dataset


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestJobTrees:
    def test_one_tree_per_accounted_job(self, traced):
        tracer, dataset = traced
        roots = tracer.job_roots()
        assert len(roots) > 0
        assert len(roots) == len(dataset.accounting)
        assert [r.args["job_id"] for r in roots] == sorted(
            rec.job_id for rec in dataset.accounting.records
        )

    def test_root_args_describe_the_job(self, traced):
        tracer, dataset = traced
        by_id = {rec.job_id: rec for rec in dataset.accounting.records}
        for root in tracer.job_roots():
            rec = by_id[root.args["job_id"]]
            assert root.args["app"] == rec.app_name
            assert root.args["nodes"] == rec.nodes_requested
            assert root.args["user"] == rec.user
            assert root.args["mflops"] == pytest.approx(rec.total_mflops, abs=1e-3)

    def test_lifecycle_states_partition_the_root(self, traced):
        tracer, _ = traced
        _, children = span_index(tracer.spans)
        for root in tracer.job_roots():
            states = {
                s.name: s
                for s in children[root.span_id]
                if s.category == CAT_JOB_STATE
            }
            assert set(states) == {"queued", "running"}
            q, r = states["queued"], states["running"]
            assert q.start == root.start
            assert q.end == r.start  # queued hands off to running exactly
            assert r.end == root.end

    def test_phase_segments_cover_the_running_span(self, traced):
        tracer, _ = traced
        _, children = span_index(tracer.spans)
        covered_any = False
        for root in tracer.job_roots():
            running = next(
                s for s in children[root.span_id]
                if s.category == CAT_JOB_STATE and s.name == "running"
            )
            phases = [
                s for s in children.get(running.span_id, [])
                if s.category == CAT_JOB_PHASE
            ]
            if not phases:
                continue
            covered_any = True
            assert sum(p.duration for p in phases) == pytest.approx(
                running.duration, rel=1e-9
            )
            # Laid end-to-end, no overlap.
            cursor = running.start
            for p in sorted(phases, key=lambda s: s.start):
                assert p.start == pytest.approx(cursor)
                cursor = p.end
        assert covered_any, "at least one job must carry phase segments"

    def test_campaign_root_encloses_everything(self, traced):
        tracer, dataset = traced
        (campaign,) = [s for s in tracer.spans if s.category == CAT_CAMPAIGN]
        assert campaign.args["seed"] == dataset.config.seed
        assert campaign.parent_id is None
        for span in tracer.spans:
            if span is not campaign:
                assert span.end <= campaign.end


class TestTelemetryIntegration:
    def test_service_counts_every_span(self, traced):
        tracer, dataset = traced
        assert dataset.telemetry.spans_seen == len(tracer.spans)

    def test_every_job_root_indexed_by_service(self, traced):
        tracer, dataset = traced
        expected = {r.args["job_id"]: r.span_id for r in tracer.job_roots()}
        assert dataset.telemetry.job_span_ids == expected

    def test_alerts_reference_the_enclosing_span(self):
        tracer = Tracer()
        engine = AnomalyEngine(rules=[PagingRule()], tracer=tracer)
        pathological = workload_rates(
            {"user.fxu0": 2_000_000_000, "system.fxu0": 1_500_000_000}, 900.0, 1
        )
        obs = Observation(time=900.0, rates=pathological, nodes_reporting=1)
        with tracer.span("cron-pass", "hpm.collect") as span:
            (alert,) = engine.observe(obs)
        assert alert.span_id == span.span_id

    def test_alerts_without_tracer_have_no_span(self):
        engine = AnomalyEngine(rules=[PagingRule()])
        pathological = workload_rates(
            {"user.fxu0": 2_000_000_000, "system.fxu0": 1_500_000_000}, 900.0, 1
        )
        (alert,) = engine.observe(
            Observation(time=900.0, rates=pathological, nodes_reporting=1)
        )
        assert alert.span_id is None


class TestOverheadIsZero:
    def test_determinism_same_seed_same_trace(self, traced):
        tracer, _ = traced
        again, _ = _traced_run()
        assert spans_to_jsonl(tracer.spans) == spans_to_jsonl(again.spans)

    def test_opsreport_byte_identical_traced_vs_untraced(self, traced):
        """The ISSUE's overhead bar: tracing must not perturb results."""
        _, with_trace = traced
        without = WorkloadStudy(_CFG).run()
        assert without.tracer is None
        assert without.telemetry.spans_seen == 0
        for day in range(_CFG.n_days):
            assert render_day_report(day_ops(with_trace, day)) == render_day_report(
                day_ops(without, day)
            )
        assert campaign_ops_digest(with_trace) == campaign_ops_digest(without)

    def test_measured_data_identical_traced_vs_untraced(self, traced):
        _, with_trace = traced
        without = WorkloadStudy(_CFG).run()
        assert (
            with_trace.daily_gflops().tolist() == without.daily_gflops().tolist()
        )
        assert len(with_trace.accounting) == len(without.accounting)
        assert with_trace.events_processed == without.events_processed
