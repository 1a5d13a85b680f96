"""Memos live on the objects they derive from and die with them.

The netlist owns its timing graph and clockless resolver; the graph
owns the constant-propagation memo and the bound individual modes.
"""

import gc
import weakref

from repro.core import merge_all
from repro.core.steps import MergeContext
from repro.netlist import NetlistBuilder, PinDirection
from repro.sdc import parse_mode
from repro.sdc.object_query import resolver_for
from repro.timing import BoundMode, build_graph

CLK = "create_clock -name c -period 10 [get_ports clk]\n"


def pipeline():
    b = NetlistBuilder("pipe")
    b.inputs("clk", "in1")
    r_a = b.dff("rA", d="in1", clk="clk")
    inv1 = b.inv("inv1", r_a.q)
    r_b = b.dff("rB", d=inv1.out, clk="clk")
    b.output("out1", r_b.q)
    return b.build()


class TestConstantsMemo:
    def test_equal_case_content_shares_one_analysis(self, pipeline_netlist):
        case = CLK + "set_case_analysis 0 [get_ports in1]\n"
        first = BoundMode(pipeline_netlist, parse_mode(case, "A"))
        # A different mode object (and different non-case content).
        second = BoundMode(pipeline_netlist, parse_mode(
            case + "set_input_transition 0.1 [get_ports in1]\n", "B"))
        assert first.mode is not second.mode
        assert first.constants is second.constants

    def test_changed_case_value_gets_a_fresh_analysis(
            self, pipeline_netlist):
        zero = BoundMode(pipeline_netlist, parse_mode(
            CLK + "set_case_analysis 0 [get_ports in1]\n", "A"))
        one = BoundMode(pipeline_netlist, parse_mode(
            CLK + "set_case_analysis 1 [get_ports in1]\n", "B"))
        graph = build_graph(pipeline_netlist)
        assert zero.constants is not one.constants
        assert zero.constants.value(graph.node("rA/D")) == 0
        assert one.constants.value(graph.node("rA/D")) == 1

    def test_disabled_arcs_are_part_of_the_key(self, pipeline_netlist):
        plain = BoundMode(pipeline_netlist, parse_mode(CLK, "A"))
        disabled = BoundMode(pipeline_netlist, parse_mode(
            CLK + "set_disable_timing [get_cells inv1]\n", "B"))
        assert disabled.disabled_arcs
        assert plain.constants is not disabled.constants

    def test_memo_is_per_graph(self):
        mode = parse_mode(CLK, "A")
        assert BoundMode(pipeline(), mode).constants \
            is not BoundMode(pipeline(), mode).constants


class TestNetlistOwnedViews:
    def test_graph_rebuilt_after_add_port(self, pipeline_netlist):
        first = build_graph(pipeline_netlist)
        pipeline_netlist.add_port("spare", PinDirection.INPUT)
        second = build_graph(pipeline_netlist)
        assert second is not first
        assert second.node_of("spare") is not None
        assert build_graph(pipeline_netlist) is second

    def test_resolver_rebuilt_after_add_instance(self, pipeline_netlist):
        first = resolver_for(pipeline_netlist)
        assert resolver_for(pipeline_netlist) is first
        pipeline_netlist.add_instance("extra", "INV")
        second = resolver_for(pipeline_netlist)
        assert second is not first
        assert second.cell_names(["extra"]) == ["extra"]

    def test_bound_individuals_live_on_the_graph(self, pipeline_netlist):
        mode = parse_mode(CLK, "A")
        context = MergeContext(pipeline_netlist, [mode])
        (bound,) = context.bound_individuals()
        assert context.graph.bound_modes[mode] == (1, bound)
        mode.add(parse_mode("set_case_analysis 0 [get_ports in1]",
                            "x").constraints[0])
        (rebound,) = MergeContext(pipeline_netlist,
                                  [mode]).bound_individuals()
        assert rebound is not bound  # the length guard


class TestLifetime:
    def _assert_run_leaves_nothing_alive(self, **kwargs):
        netlist = pipeline()
        modes = [parse_mode(CLK, "A"),
                 parse_mode(CLK + "set_false_path -to [get_pins rB/D]",
                            "B"),
                 parse_mode(CLK + "set_input_transition 0.5 "
                                  "[get_ports in1]", "C")]
        run = merge_all(netlist, modes, **kwargs)
        assert run.merged_count == 2
        netlist_ref = weakref.ref(netlist)
        graph_ref = weakref.ref(build_graph(netlist))
        del netlist, modes, run
        gc.collect()
        assert netlist_ref() is None
        assert graph_ref() is None

    def test_merge_all_leaves_nothing_alive(self):
        self._assert_run_leaves_nothing_alive()

    def test_pooled_run_rerun_in_process_leaves_nothing_alive(
            self, monkeypatch):
        # Every pooled attempt crashes, so each scan and group task ends
        # in the supervising process's last-resort rerun (EXE004): the
        # path that must not park the design in module state.
        monkeypatch.setenv("REPRO_CHAOS",
                           "crash@*@1;crash@*@2;crash@*@3")
        self._assert_run_leaves_nothing_alive(jobs=2)
