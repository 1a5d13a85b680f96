"""Unit tests for merge-run checkpoint/resume."""

import json

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    MergeCheckpoint,
    serialize_outcome,
)
from repro.core import merge_all, merge_modes
from repro.core.merger import MergeOptions
from repro.diagnostics import (
    DegradationPolicy,
    Diagnostic,
    DiagnosticCollector,
    Severity,
)
from repro.sdc import parse_mode, write_mode
from repro.store import (
    TEMP_GLOB,
    content_hash,
    group_key,
    key_space,
    mode_fingerprint,
    netlist_fingerprint,
)

MODE_A = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -to [get_pins rB/D]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
"""


def _modes():
    return [parse_mode(MODE_A, "A"), parse_mode(MODE_B, "B")]


def _group_key(netlist, modes, options):
    """The per-group hash ``merge_all`` checkpoints (the cache's key)."""
    return group_key(key_space(netlist, options),
                     [mode_fingerprint(mode) for mode in modes])


class TestContentHash:
    def test_stable(self):
        assert content_hash("a", "b") == content_hash("a", "b")

    def test_order_and_boundaries_matter(self):
        assert content_hash("a", "b") != content_hash("b", "a")
        assert content_hash("ab", "c") != content_hash("a", "bc")

    def test_netlist_fingerprint_tracks_content(self, pipeline_netlist,
                                                reconvergent_netlist):
        assert netlist_fingerprint(pipeline_netlist) == \
            netlist_fingerprint(pipeline_netlist)
        assert netlist_fingerprint(pipeline_netlist) != \
            netlist_fingerprint(reconvergent_netlist)


class TestOpen:
    def test_missing_file_is_a_fresh_checkpoint(self, tmp_path):
        checkpoint = MergeCheckpoint.open(tmp_path / "run.ckpt")
        assert checkpoint.groups == {}

    def test_corrupt_file_is_discarded_with_sgn008(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text("{not json")
        collector = DiagnosticCollector()
        checkpoint = MergeCheckpoint.open(path, collector=collector)
        assert checkpoint.groups == {}
        assert [d.code for d in collector] == ["SGN008"]

    def test_non_object_json_is_discarded_with_sgn008(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text("[1]")
        collector = DiagnosticCollector()
        checkpoint = MergeCheckpoint.open(path, collector=collector)
        assert checkpoint.groups == {}
        assert [d.code for d in collector] == ["SGN008"]

    def test_schema_mismatch_is_discarded(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text(json.dumps({
            "schema_version": CHECKPOINT_SCHEMA_VERSION + 1,
            "groups": {"A": {}},
        }))
        collector = DiagnosticCollector()
        checkpoint = MergeCheckpoint.open(path, collector=collector)
        assert checkpoint.groups == {}
        assert [d.code for d in collector] == ["SGN008"]

    def test_stale_input_hash_is_discarded(self, tmp_path):
        path = tmp_path / "run.ckpt"
        stale = MergeCheckpoint(path, input_hash="old")
        stale.groups = {"A": {"hash": "h", "outcomes": []}}
        stale.save()
        collector = DiagnosticCollector()
        checkpoint = MergeCheckpoint.open(path, input_hash="new",
                                          collector=collector)
        assert checkpoint.groups == {}
        assert [d.code for d in collector] == ["SGN008"]

    def test_matching_checkpoint_round_trips(self, tmp_path):
        path = tmp_path / "run.ckpt"
        original = MergeCheckpoint(path, input_hash="h1")
        original.groups = {"A+B": {"hash": "g", "outcomes": []}}
        original.save()
        reloaded = MergeCheckpoint.open(path, input_hash="h1")
        assert reloaded.groups == original.groups

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint = MergeCheckpoint(path)
        checkpoint.save()
        assert not list(tmp_path.glob(TEMP_GLOB))
        assert json.loads(path.read_text())["schema_version"] == \
            CHECKPOINT_SCHEMA_VERSION


class TestGroupHash:
    def test_sensitive_to_mode_text(self, pipeline_netlist):
        opts = MergeOptions()
        first = _group_key(pipeline_netlist, _modes(), opts)
        changed = [parse_mode(MODE_A + "set_false_path -from rA/CP\n", "A"),
                   parse_mode(MODE_B, "B")]
        assert first != _group_key(pipeline_netlist, changed, opts)

    def test_sensitive_to_options(self, pipeline_netlist):
        first = _group_key(pipeline_netlist, _modes(), MergeOptions())
        second = _group_key(pipeline_netlist, _modes(),
                            MergeOptions(budget_seconds=5.0))
        assert first != second

    def test_stable_across_reparses(self, pipeline_netlist):
        opts = MergeOptions()
        assert _group_key(pipeline_netlist, _modes(), opts) \
            == _group_key(pipeline_netlist, _modes(), opts)


class TestRecordRestore:
    def test_outcome_round_trips_byte_identically(self, pipeline_netlist,
                                                  tmp_path):
        result = merge_modes(pipeline_netlist, _modes())
        checkpoint = MergeCheckpoint(tmp_path / "run.ckpt")

        class Outcome:
            mode_names = ["A", "B"]
            error = ""
            repaired = False

        Outcome.result = result
        diag = Diagnostic(code="SGN003", message="m",
                          severity=Severity.WARNING, source="A")
        checkpoint.record_serialized("A+B", "g1",
                                     [serialize_outcome(Outcome())],
                                     [diag.to_dict()])
        checkpoint.save()

        reloaded = MergeCheckpoint.open(tmp_path / "run.ckpt")
        entry = reloaded.lookup("A+B", "g1")
        assert entry is not None
        assert reloaded.lookup("A+B", "other-hash") is None
        names, restored, error, repaired = \
            MergeCheckpoint.restore_outcome(entry["outcomes"][0])
        assert names == ["A", "B"]
        assert error == ""
        assert not repaired
        assert restored.ok
        assert restored.validated
        assert write_mode(restored.merged) == write_mode(result.merged)
        assert restored.to_dict() == result.to_dict()
        restored_diags = MergeCheckpoint.restore_diagnostics(entry)
        assert restored_diags == [diag]


class TestMergeAllIntegration:
    def test_second_run_restores_and_matches(self, pipeline_netlist,
                                             tmp_path):
        path = tmp_path / "run.ckpt"
        first = merge_all(pipeline_netlist, _modes(), MergeOptions(),
                          checkpoint=MergeCheckpoint(path))
        assert first.restored_count == 0
        assert path.exists()

        resumed = merge_all(pipeline_netlist, _modes(), MergeOptions(),
                            checkpoint=MergeCheckpoint.open(path))
        assert resumed.restored_count == len(resumed.outcomes) == 1
        assert any(d.code == "SGN007" for d in resumed.diagnostics)
        assert write_mode(resumed.outcomes[0].result.merged) == \
            write_mode(first.outcomes[0].result.merged)
        assert resumed.to_dict()["groups"][0]["restored"]

    def test_changed_mode_invalidates_only_its_group(self, pipeline_netlist,
                                                     tmp_path):
        path = tmp_path / "run.ckpt"
        merge_all(pipeline_netlist, _modes(), MergeOptions(),
                  checkpoint=MergeCheckpoint(path))
        edited = [parse_mode(MODE_A + "set_false_path -from rA/CP\n", "A"),
                  parse_mode(MODE_B, "B")]
        resumed = merge_all(pipeline_netlist, edited, MergeOptions(),
                            checkpoint=MergeCheckpoint.open(path))
        assert resumed.restored_count == 0


MODE_C = """
create_clock -name CK -period 10 [get_ports clk]
set_input_transition 0.5 [get_ports in1]
"""


def _three_modes():
    # A and B merge; C's input transition keeps it in a group of its own.
    return _modes() + [parse_mode(MODE_C, "C")]


def _sdc(run):
    return [write_mode(mode) for mode in run.merged_modes()]


class TestTornTail:
    def torn_checkpoint(self, netlist, path):
        """A real two-group checkpoint whose last record was cut
        mid-line, as a crash mid-append leaves it."""
        merge_all(netlist, _three_modes(), MergeOptions(),
                  checkpoint=MergeCheckpoint(path))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 3  # header + one record per group
        torn = lines[2][:len(lines[2]) // 2]
        path.write_text("".join(lines[:2]) + torn)
        return torn

    def test_open_reports_sgn009_with_recovered_count(
            self, pipeline_netlist, tmp_path):
        path = tmp_path / "run.ckpt"
        self.torn_checkpoint(pipeline_netlist, path)
        collector = DiagnosticCollector()
        checkpoint = MergeCheckpoint.open(path, collector=collector)
        assert [d.code for d in collector] == ["SGN009"]
        assert "recovered 1 group(s)" in collector.diagnostics[0].message
        assert list(checkpoint.groups) == ["A+B"]

    def test_next_save_drops_the_torn_bytes(self, pipeline_netlist,
                                            tmp_path):
        path = tmp_path / "run.ckpt"
        torn = self.torn_checkpoint(pipeline_netlist, path)
        checkpoint = MergeCheckpoint.open(path)
        checkpoint.save()
        text = path.read_text()
        assert torn not in text
        assert not list(tmp_path.glob(TEMP_GLOB))
        collector = DiagnosticCollector()
        reopened = MergeCheckpoint.open(path, collector=collector)
        assert collector.diagnostics == []
        assert reopened.groups == checkpoint.groups

    def test_resumed_run_is_byte_identical(self, pipeline_netlist,
                                           tmp_path):
        uninterrupted = merge_all(pipeline_netlist, _three_modes(),
                                  MergeOptions())
        path = tmp_path / "run.ckpt"
        self.torn_checkpoint(pipeline_netlist, path)
        collector = DiagnosticCollector()
        resumed = merge_all(
            pipeline_netlist, _three_modes(), MergeOptions(),
            collector=collector,
            checkpoint=MergeCheckpoint.open(path, collector=collector))
        assert [d.code for d in collector][:2] == ["SGN009", "SGN007"]
        assert [o.restored for o in resumed.outcomes] == [True, False]
        assert _sdc(resumed) == _sdc(uninterrupted)
        # The torn group was recomputed and saved: a second resume
        # replays every group.
        again = merge_all(pipeline_netlist, _three_modes(), MergeOptions(),
                          checkpoint=MergeCheckpoint.open(path))
        assert again.restored_count == 2
        assert _sdc(again) == _sdc(uninterrupted)

    def test_unterminated_last_record_is_torn_not_appended_onto(
            self, tmp_path):
        # A record whose newline never reached the disk is torn: it is
        # cut away on open, so the next append starts on a clean line
        # and no record is lost to a glued-together line.
        path = tmp_path / "run.ckpt"
        checkpoint = MergeCheckpoint(path, input_hash="h")
        for key in ("A", "B"):
            checkpoint.record_serialized(key, f"g{key}", [], [])
            checkpoint.save()
        path.write_bytes(path.read_bytes()[:-1])

        collector = DiagnosticCollector()
        resumed = MergeCheckpoint.open(path, input_hash="h",
                                       collector=collector)
        assert [d.code for d in collector] == ["SGN009"]
        assert list(resumed.groups) == ["A"]
        for key in ("B", "C"):
            resumed.record_serialized(key, f"g{key}", [], [])
            resumed.save()

        collector = DiagnosticCollector()
        again = MergeCheckpoint.open(path, input_hash="h",
                                     collector=collector)
        assert collector.diagnostics == []
        assert {key: entry["hash"] for key, entry in again.groups.items()} \
            == {"A": "gA", "B": "gB", "C": "gC"}
