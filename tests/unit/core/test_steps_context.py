"""Unit tests for MergeContext / StepReport plumbing."""

import pytest

from repro.core.steps import Conflict, MergeContext, StepReport
from repro.sdc import SetCaseAnalysis, ObjectRef, parse_mode

CLK = "create_clock -name c -period 10 [get_ports clk]\n"


class TestStepReport:
    def test_add_drop_note_conflict(self):
        report = StepReport("step")
        constraint = SetCaseAnalysis(0, ObjectRef.ports("x"))
        report.add(constraint)
        report.drop("A", constraint)
        report.note("hello")
        report.conflict(("A", "B"), "bad")
        assert report.added == [constraint]
        assert report.dropped == [("A", constraint)]
        assert "step" in report.summary()
        assert "+1" in report.summary()
        assert str(report.conflicts[0]) == "[A, B] bad"


class TestMergeContext:
    def test_merged_name(self, pipeline_netlist):
        ctx = MergeContext(pipeline_netlist,
                           [parse_mode(CLK, "A"), parse_mode(CLK, "B")])
        assert ctx.merged_name == "A+B"
        assert ctx.mode_names() == ("A", "B")

    def test_requires_modes(self, pipeline_netlist):
        with pytest.raises(ValueError):
            MergeContext(pipeline_netlist, [])

    def test_bound_individuals_cached(self, pipeline_netlist):
        mode = parse_mode(CLK, "A")
        first = MergeContext(pipeline_netlist, [mode]).bound_individuals()
        second = MergeContext(pipeline_netlist, [mode]).bound_individuals()
        assert first[0] is second[0]  # kept on the netlist's graph

    def test_bind_merged_always_fresh(self, pipeline_netlist):
        ctx = MergeContext(pipeline_netlist, [parse_mode(CLK, "A")])
        assert ctx.bind_merged() is not ctx.bind_merged()

    def test_all_conflicts_aggregates(self, pipeline_netlist):
        ctx = MergeContext(pipeline_netlist, [parse_mode(CLK, "A")])
        ctx.report("s1").conflict(("A",), "one")
        ctx.report("s2").conflict(("A",), "two")
        assert [c.reason for c in ctx.all_conflicts()] == ["one", "two"]

    def test_mapped_clocks(self, pipeline_netlist):
        mode = parse_mode(CLK, "A")
        ctx = MergeContext(pipeline_netlist, [mode])
        ctx.clock_maps["A"]["c"] = "c_1"
        assert ctx.mapped_clocks(mode) == ["c_1"]
