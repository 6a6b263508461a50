"""Per-job report files: render + parse round-trip, and malformed reports."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.study import StudyConfig, run_study
from repro.hpm.jobreport import parse_job_report, render_job_report
from repro.pbs.job import JobRecord
from repro.power2.counters import FLAT_NAMES
from tests.pbs.counter_deltas import counter_deltas


def record() -> JobRecord:
    return JobRecord.from_counter_deltas(
        {
            3: {"user.fpu0_fp_add": 1000, "user.fxu0": 2000, "system.fxu0": 10},
            5: {"user.fpu0_fp_add": 1500, "user.fxu0": 2500, "system.fxu0": 20},
        },
        job_id=42,
        user=7,
        app_name="multiblock_cfd",
        nodes_requested=2,
        node_ids=(3, 5),
        submit_time=10.0,
        start_time=100.0,
        end_time=1100.0,
    )


@functools.lru_cache(maxsize=None)
def campaign_report() -> str:
    """The first job report of a 2-day, 16-node campaign."""
    dataset = run_study(StudyConfig(seed=1, n_days=2, n_nodes=16, n_users=4))
    return render_job_report(dataset.accounting.records[0])


class TestRender:
    def test_contains_header_and_meta(self):
        text = render_job_report(record())
        assert text.startswith("# RS2HPM job report v1")
        assert "job_id: 42" in text
        assert "app: multiblock_cfd" in text
        assert "[node 3]" in text and "[node 5]" in text

    def test_contains_derived_rates(self):
        text = render_job_report(record())
        assert "mflops_per_node:" in text
        assert "system_user_fxu_ratio:" in text


class TestRoundTrip:
    def test_parse_recovers_record(self):
        r = record()
        parsed = parse_job_report(render_job_report(r))
        assert parsed.job_id == r.job_id
        assert parsed.node_ids == r.node_ids
        assert counter_deltas(parsed) == counter_deltas(r)
        assert parsed.walltime_seconds == pytest.approx(r.walltime_seconds)

    def test_derived_rates_recomputed_not_trusted(self):
        text = render_job_report(record())
        # Tamper with the derived line; counters win on re-parse.
        tampered = text.replace("mflops_per_node:", "mflops_per_node: 99999 #")
        parsed = parse_job_report(tampered)
        assert parsed.total_mflops < 1.0

    def test_campaign_report_round_trips_byte_identically(self):
        text = campaign_report()
        assert render_job_report(parse_job_report(text)) == text


def _replace_line(text: str, old: str, new: str) -> str:
    lines = text.splitlines()
    lines[lines.index(old)] = new
    return "\n".join(lines) + "\n"


class TestParseErrors:
    def test_rejects_non_report(self):
        with pytest.raises(ValueError, match="not an RS2HPM"):
            parse_job_report("hello world")

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing fields"):
            parse_job_report("# RS2HPM job report v1\njob_id: 1")

    def test_rejects_malformed_counter_line(self):
        text = render_job_report(record()) + "user.bad_line\n"
        with pytest.raises(ValueError, match="malformed counter"):
            parse_job_report(text)

    def test_rejects_duplicated_node_section(self):
        text = campaign_report()
        lines = text.splitlines()
        first = lines.index(next(ln for ln in lines if ln.startswith("[node ")))
        section = lines[first : first + 1 + len(FLAT_NAMES)]
        duplicated = "\n".join(lines + section) + "\n"
        with pytest.raises(ValueError, match=rf"line {len(lines) + 1}: second section for node"):
            parse_job_report(duplicated)

    def test_rejects_unknown_counter(self):
        text = campaign_report()
        line = next(ln for ln in text.splitlines() if ln.startswith("user.fxu0 = "))
        renamed = _replace_line(text, line, line.replace("user.fxu0", "user.fxu9"))
        with pytest.raises(ValueError, match=r"node \d+: unknown counter 'user.fxu9'"):
            parse_job_report(renamed)

    def test_rejects_section_for_a_node_outside_the_job(self):
        text = campaign_report() + "[node 9999]\nuser.fxu0 = 5\n"
        with pytest.raises(ValueError, match="counters for node 9999, which is not in node_ids"):
            parse_job_report(text)

    def test_rejects_missing_node_section(self):
        lines = campaign_report().splitlines()
        last = max(i for i, ln in enumerate(lines) if ln.startswith("[node "))
        node = lines[last][len("[node ") : -1]
        truncated = "\n".join(lines[:last]) + "\n"
        with pytest.raises(ValueError, match=rf"no counters for node {node}$"):
            parse_job_report(truncated)

    def test_bad_counter_value_names_the_line(self):
        text = campaign_report()
        lines = text.splitlines()
        n = next(i for i, ln in enumerate(lines) if ln.startswith("user.fxu0 = "))
        corrupt = _replace_line(text, lines[n], "user.fxu0 = 12x4")
        with pytest.raises(ValueError, match=rf"^line {n + 1}: invalid literal .*'12x4'$"):
            parse_job_report(corrupt)

    def test_rejects_repeated_counter_in_a_section(self):
        text = campaign_report()
        line = next(ln for ln in text.splitlines() if ln.startswith("user.fxu1 = "))
        repeated = _replace_line(text, line, line.replace("user.fxu1", "user.fxu0"))
        with pytest.raises(ValueError, match=r"counter 'user.fxu0' repeated"):
            parse_job_report(repeated)

    def test_bad_header_value_names_the_line(self):
        text = _replace_line(campaign_report(), "job_id: 1", "job_id: one")
        with pytest.raises(ValueError, match=r"^line 2: invalid literal .*'one'$"):
            parse_job_report(text)

    def test_rejects_counter_overflowing_int64(self):
        text = campaign_report()
        line = next(ln for ln in text.splitlines() if ln.startswith("user.fxu0 = "))
        big = _replace_line(text, line, f"user.fxu0 = {2**63}")
        with pytest.raises(ValueError, match="overflows int64"):
            parse_job_report(big)


#: One edit to a report's lines: (kind, line position in [0, 1), payload).
MUTATION = st.tuples(
    st.sampled_from(["drop", "duplicate", "rename", "corrupt"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.one_of(st.text(max_size=30), st.sampled_from(FLAT_NAMES), st.integers(-5, 2**64)),
)


def mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, where, payload in mutations:
        if not lines:
            break
        i = int(where * len(lines))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(int(where * 7919) % (len(lines) + 1), lines[i])
        elif kind == "rename":
            line = lines[i]
            if line.startswith("[node "):
                lines[i] = f"[node {payload}]"
            else:
                sep = " = " if " = " in line else ": "
                lines[i] = f"{payload}{sep}{line.partition(sep)[2]}"
        else:
            lines[i] = str(payload)
    return "\n".join(lines) + "\n"


class TestMutatedReports:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(MUTATION, min_size=1, max_size=3))
    def test_parsed_record_or_one_line_error(self, mutations):
        """Dropped, duplicated, renamed or corrupted lines either still
        describe a job or fail with a one-line ``ValueError``."""
        try:
            parsed = parse_job_report(mutate(campaign_report(), mutations))
        except ValueError as exc:
            assert len(str(exc).splitlines()) == 1, str(exc)
        else:
            assert parsed.deltas.shape == (len(parsed.node_ids), len(FLAT_NAMES))
            assert sorted(counter_deltas(parsed)) == sorted(parsed.node_ids)
