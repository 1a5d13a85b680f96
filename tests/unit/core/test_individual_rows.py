"""One individual side per merge group: the three-pass refinement and the
Section 2 check share one :class:`IndividualRows` value."""

import gc
import weakref

import pytest

import repro.core.equivalence as equivalence
from repro.core import merge_all, merge_clocks, merge_modes
from repro.core.equivalence import check_equivalence
from repro.core.steps import MergeContext
from repro.core.three_pass import IndividualRows, run_three_pass
from repro.sdc import parse_mode
from repro.timing.relationships import RelationshipExtractor
from repro.workloads.designs import load_design
from repro.workloads.seeding import SEED_ENV

CLK = "create_clock -name c -period 10 [get_ports clk]\n"


@pytest.fixture
def extractions(monkeypatch):
    """Mode name per ``endpoint_relationships`` call, split by side:
    individual (aligned to a merged structure) and merged."""
    calls = {"individual": [], "merged": []}
    original = RelationshipExtractor.endpoint_relationships

    def counting(self):
        side = "merged" if self.structure is None else "individual"
        calls[side].append(self.bound.mode.name)
        return original(self)

    monkeypatch.setattr(RelationshipExtractor, "endpoint_relationships",
                        counting)
    return calls


@pytest.fixture
def checks(monkeypatch):
    """Run every Section 2 check of ``merge_modes`` twice: once with the
    value it was handed and once with rows of its own."""
    seen = []
    real = equivalence.check_equivalence

    def both(context, budget=None, *, individual_rows=None):
        shared = real(context, budget, individual_rows=individual_rows)
        own = real(context, budget)
        seen.append((context, individual_rows, shared, own))
        return shared

    monkeypatch.setattr(equivalence, "check_equivalence", both)
    return seen


def _refined(figure1, cs6_modes):
    """A figure-1 context after the three-pass refinement, and the rows
    the refinement filled."""
    context = MergeContext(figure1, list(cs6_modes))
    merge_clocks(context)
    rows = IndividualRows()
    _report, outcome = run_three_pass(context, individual_rows=rows)
    assert outcome.clean and outcome.added
    return context, rows, outcome


#: Per fixture netlist: two modes whose exceptions the preliminary merge
#: cannot keep, so the refinement has fixes to synthesize.
FIXTURE_MODES = {
    "pipeline_netlist": (
        CLK + "set_false_path -to [get_pins rB/D]\n",
        CLK + "set_false_path -from [get_pins rA/CP]\n"),
    "reconvergent_netlist": (
        CLK + "set_false_path -through [get_pins p1/Z]\n",
        CLK + "set_false_path -to [get_pins rE/D]\n"),
}


def _fixture_modes(fixture):
    return [parse_mode(text, name)
            for name, text in zip("AB", FIXTURE_MODES[fixture])]


class TestSharedCheckAgreesWithOwnRows:
    def _assert_agree(self, seen, groups):
        assert len(seen) == groups
        for context, rows, shared, own in seen:
            assert rows is not None and rows.context is context
            assert shared.mismatches == own.mismatches
            assert shared.equivalent == own.equivalent

    def test_every_design_c_group(self, checks, monkeypatch):
        monkeypatch.delenv(SEED_ENV, raising=False)
        design = load_design("C")
        run = merge_all(design.netlist, design.modes)
        self._assert_agree(checks, len(run.outcomes))

    @pytest.mark.parametrize("fixture", sorted(FIXTURE_MODES))
    def test_pipeline_fixtures(self, checks, request, fixture):
        netlist = request.getfixturevalue(fixture)
        run = merge_all(netlist, _fixture_modes(fixture))
        assert run.merged_count == 1
        assert all(o.result.outcome.added for o in run.outcomes)
        self._assert_agree(checks, 1)

    def test_figure1(self, checks, figure1, cs6_modes):
        merge_modes(figure1, list(cs6_modes))
        self._assert_agree(checks, 1)


class TestSharedCheckStaysACheck:
    def test_deleted_fix_is_still_reported(self, figure1, cs6_modes,
                                           extractions):
        context, rows, outcome = _refined(figure1, cs6_modes)
        assert check_equivalence(context, individual_rows=rows).equivalent
        context.merged.remove(outcome.added[0])
        extractions["individual"].clear()
        shared = check_equivalence(context, individual_rows=rows)
        # The rows were shared (removing an exception keeps the key) ...
        assert extractions["individual"] == []
        assert rows.align(context)
        # ... and the merged side was re-extracted, so the gap shows.
        assert not shared.equivalent
        assert shared.mismatches == check_equivalence(context).mismatches

    def test_non_exception_change_rebuilds_the_rows(self, figure1,
                                                    cs6_modes, extractions):
        context, rows, _outcome = _refined(figure1, cs6_modes)
        context.merged.add(parse_mode(
            "set_case_analysis 0 [get_ports sel2]", "x").constraints[0])
        assert not rows.align(context)
        extractions["individual"].clear()
        shared = check_equivalence(context, individual_rows=rows)
        assert sorted(extractions["individual"]) == ["A", "B"]
        assert shared.mismatches == check_equivalence(context).mismatches

    def test_rows_of_another_context_are_not_used(self, figure1, cs6_modes,
                                                  extractions):
        _context, rows, _outcome = _refined(figure1, cs6_modes)
        other = MergeContext(figure1, list(cs6_modes))
        merge_clocks(other)
        assert not rows.align(other)
        extractions["individual"].clear()
        check_equivalence(other, individual_rows=rows)
        assert sorted(extractions["individual"]) == ["A", "B"]


class TestOnePerGroup:
    def test_validated_merge_extracts_each_mode_once(self, pipeline_netlist,
                                                     extractions):
        result = merge_modes(pipeline_netlist,
                             _fixture_modes("pipeline_netlist"))
        assert result.validated and result.ok
        assert result.outcome.iterations >= 2
        assert sorted(extractions["individual"]) == ["A", "B"]
        # Every refinement iteration and the check extract the merged
        # side afresh.
        assert len(extractions["merged"]) == result.outcome.iterations + 1

    def test_no_extractor_outlives_merge_modes(self, pipeline_netlist,
                                               monkeypatch):
        made = []
        original = RelationshipExtractor.__init__

        def tracking(self, *args, **kwargs):
            original(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(RelationshipExtractor, "__init__", tracking)
        result = merge_modes(pipeline_netlist,
                             _fixture_modes("pipeline_netlist"))
        gc.collect()
        assert made
        assert [ref for ref in made if ref() is not None] == []
        assert result.validated  # the result itself is still alive
