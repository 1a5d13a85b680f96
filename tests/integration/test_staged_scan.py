"""The staged mergeability scan against the full mock merge, on the
paper suite's design C (12 modes, 66 pairs)."""

import pytest

from repro.core import merge_all
from repro.core.merger import MergeOptions
from repro.fuzz.oracles import full_mock_merge
from repro.timing.constants import ConstantAnalysis
from repro.workloads.designs import load_design
from repro.workloads.seeding import SEED_ENV


@pytest.fixture
def counted_constants(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    calls = []
    original = ConstantAnalysis.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ConstantAnalysis, "__init__", counting)
    return calls


def test_design_c_scan_equals_full_mock_merge(counted_constants):
    design = load_design("C")
    run = merge_all(design.netlist, design.modes)
    # One constant propagation per distinct (case values, disabled
    # arcs) content on the design's graph; 74 before the graph-owned
    # memo (56 of them in the scan).
    assert len(counted_constants) == 22
    analysis = run.analysis
    assert analysis.graph.number_of_edges() == 22
    modes = design.modes
    options = MergeOptions()
    for index, mode_a in enumerate(modes):
        for mode_b in modes[index + 1:]:
            ok, reason, raised = full_mock_merge(
                design.netlist, mode_a, mode_b, options)
            assert not raised
            assert analysis.mergeable(mode_a.name, mode_b.name) == ok
            assert analysis.reason(mode_a.name, mode_b.name) == reason
