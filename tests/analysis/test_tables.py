"""Tables 1-4 generators."""

import pytest

from repro.analysis.tables import BUSY_DAY_GFLOPS, busy_days, table1, table2, table3, table4
from repro.core.study import StudyConfig, run_study


class TestTable1:
    def test_22_counter_rows(self):
        t = table1()
        assert len(t.rows) == 22

    def test_paper_labels_present(self):
        counters = table1().column("Counter")
        for label in ("user.fxu0", "user.dcache_mis", "fpop.fp_muladd", "user.dma_write"):
            assert label in counters

    def test_renders(self):
        out = table1().render()
        assert "FXU[4]" in out and "SCU[0]" in out


class TestBusyDayFilter:
    def test_filter_threshold(self, month_dataset):
        idx, rates = busy_days(month_dataset)
        assert len(idx) == len(rates)
        for r in rates:
            assert r.gflops_system() > BUSY_DAY_GFLOPS

    def test_some_days_pass_on_month_campaign(self, month_dataset):
        idx, _ = busy_days(month_dataset)
        assert len(idx) >= 3


class TestTable2:
    def test_rows_and_columns(self, month_dataset):
        t = table2(month_dataset)
        assert list(t.columns) == ["Rates", "Day 45.0", "Avg Rate", "Std"]
        assert t.column("Rates") == ["Mips", "Mops", "Mflops"]

    def test_rates_in_paper_band(self, month_dataset):
        """Table 2: Mips 45.7±10.5, Mops 48.3±10.2, Mflops 17.4±3.8."""
        t = month_dataset and table2(month_dataset)
        avg = {row[0]: row[2] for row in t.rows}
        assert 30.0 <= avg["Mips"] <= 60.0
        assert 35.0 <= avg["Mops"] <= 65.0
        assert 12.0 <= avg["Mflops"] <= 24.0

    def test_mops_exceeds_mips(self, month_dataset):
        t = table2(month_dataset)
        avg = {row[0]: row[2] for row in t.rows}
        assert avg["Mops"] > avg["Mips"]

    def test_raises_without_busy_days(self):
        tiny = run_study(StudyConfig(seed=99, n_days=1, n_nodes=4, n_users=2))
        with pytest.raises(ValueError):
            table2(tiny)


class TestTable3:
    def test_sections_present(self, month_dataset):
        out = table3(month_dataset).render()
        for section in ("OPS", "INST", "CACHE", "I/O"):
            assert section in out

    def test_flop_rows_sum(self, month_dataset):
        t = table3(month_dataset)
        avg = {row[0]: row[2] for row in t.rows if not str(row[0]).startswith("--")}
        total = avg["Mflops-add"] + avg["Mflops-div"] + avg["Mflops-mult"] + avg["Mflops-fma"]
        assert total == pytest.approx(avg["Mflops-All"], rel=1e-6)

    def test_divide_row_is_zero(self, month_dataset):
        """§3: the broken divide counter ⇒ Mflops-div = 0."""
        t = table3(month_dataset)
        avg = {row[0]: row[2] for row in t.rows if not str(row[0]).startswith("--")}
        assert avg["Mflops-div"] == 0.0

    def test_fpu0_exceeds_fpu1(self, month_dataset):
        t = table3(month_dataset)
        avg = {row[0]: row[2] for row in t.rows if not str(row[0]).startswith("--")}
        assert avg["Mips-Floating Point (Unit 0)"] > avg["Mips-Floating Point (Unit 1)"]

    def test_cache_rates_in_band(self, month_dataset):
        """Table 3: dcache 0.30 M/s, TLB 0.04 M/s per node."""
        t = table3(month_dataset)
        avg = {row[0]: row[2] for row in t.rows if not str(row[0]).startswith("--")}
        assert 0.1 <= avg["Data Cache Misses-Million/S"] <= 0.6
        assert 0.005 <= avg["TLB-Million/S"] <= 0.12


class TestTable4:
    def test_columns(self, month_dataset):
        t = table4(month_dataset)
        assert "NAS Workload" in t.columns
        assert "Sequential Access" in t.columns
        assert "NPB BT on 49 CPUs" in t.columns

    def test_sequential_column_is_analytic(self, month_dataset):
        t = table4(month_dataset)
        cache_row = t.rows[0]
        assert cache_row[2] == "3.1%"  # 8/256

    def test_bt_mflops_near_44(self, month_dataset):
        t = table4(month_dataset)
        bt_mflops = t.rows[2][3]
        assert 38.0 <= bt_mflops <= 50.0

    def test_ordering_matches_paper(self, month_dataset):
        """Sequential access misses more than the workload; BT's TLB
        ratio is the best of the three."""
        t = table4(month_dataset)
        wl_tlb = float(t.rows[1][1].rstrip("%"))
        seq_tlb = float(t.rows[1][2].rstrip("%"))
        bt_tlb = float(t.rows[1][3].rstrip("%"))
        assert bt_tlb < wl_tlb
        assert bt_tlb < seq_tlb
