"""Cross-module integration tests: the full pipeline on small inputs."""

import pytest

from repro.baselines.handfp import place_handfp
from repro.baselines.indeda import place_indeda
from repro.core import HiDaP, HiDaPConfig
from repro.core.config import Effort
from repro.api import (
    RunOptions,
    evaluate_placement,
    format_table2,
    format_table3,
    run_suite,
)


class TestThreeFlowComparison:
    """A miniature of the paper's evaluation on one tiny circuit."""

    @pytest.fixture(scope="class")
    def metrics(self, tiny_c1, tiny_c1_flat):
        _design, truth, die_w, die_h = tiny_c1
        flat = tiny_c1_flat
        flows = {}
        flows["indeda"] = place_indeda(flat, die_w, die_h)
        flows["handfp"] = place_handfp(flat, truth, die_w, die_h)
        flows["hidap"] = HiDaP(
            HiDaPConfig(seed=1, effort=Effort.FAST)).place(
                flat, die_w, die_h, flow_name="hidap")
        return {name: evaluate_placement(flat, placement)
                for name, placement in flows.items()}

    def test_all_flows_legal(self, metrics):
        for name, m in metrics.items():
            assert m.macro_overlap == pytest.approx(0.0), name

    def test_metrics_comparable(self, metrics):
        """All flows are measured by the same referee: same clock, same
        cell placement pipeline; values are finite and plausible."""
        for m in metrics.values():
            assert 0 < m.wl_meters < 100
            assert 0 <= m.grc_percent < 100
            assert -120 <= m.wns_percent <= 0
            assert m.tns <= 0

    def test_hidap_competitive(self, metrics):
        """HiDaP must beat the flat baseline on this macro-dominated
        circuit (the paper's core claim at circuit level)."""
        assert metrics["hidap"].wl_meters < metrics["indeda"].wl_meters


class TestSuiteRunner:
    def test_subset_suite(self):
        result = run_suite(scale="tiny", designs=["c1"],
                           flows=("indeda", "handfp-strip"),
                           options=RunOptions(effort=Effort.FAST))
        assert len(result.rows) == 2
        assert {r.flow for r in result.rows} == {"indeda", "handfp"}
        handfp_rows = [r for r in result.rows if r.flow == "handfp"]
        assert handfp_rows[0].wl_norm == pytest.approx(1.0)
        assert "c1" in result.design_info

    def test_tables_render_from_suite(self):
        result = run_suite(scale="tiny", designs=["c1"],
                           flows=("indeda", "handfp-strip"),
                           options=RunOptions(effort=Effort.FAST))
        t2 = format_table2(result.rows)
        t3 = format_table3(result.rows, result.design_info)
        assert "indeda" in t2
        assert "c1" in t3
