"""Unit tests for the durable job journal."""

import json

import pytest

from repro.exec.chaos import ChaosPlan
from repro.serve.journal import (
    JOURNAL_KIND,
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    JournalError,
)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "journal.jsonl"


class TestAppendRecover:
    def test_round_trip(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1", seq=1, modes=["a", "b"])
        journal.append("admit", job="j1")
        journal.append("chaos", key="serve:ckpt", attempt=1)
        journal.close()

        records, torn = JobJournal(path).recover()
        assert torn == 0
        assert [r["event"] for r in records] == ["submit", "admit", "chaos"]
        assert records[0]["modes"] == ["a", "b"]

    def test_header_written_once(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1")
        journal.close()
        journal = JobJournal(path)
        journal.append("admit", job="j1")
        journal.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"kind": JOURNAL_KIND,
                          "schema_version": JOURNAL_SCHEMA_VERSION}
        assert sum(1 for line in lines
                   if json.loads(line).get("kind") == JOURNAL_KIND) == 1

    def test_missing_file_is_empty(self, path):
        assert JobJournal(path).recover() == ([], 0)

    def test_append_returns_fsynced_record(self, path):
        journal = JobJournal(path)
        record = journal.append("submit", job="j1", seq=4)
        assert record["event"] == "submit"
        assert record["crc"]
        # durable before the call returned: a fresh reader sees it
        records, _ = JobJournal(path).recover()
        assert records == [record]


class TestTornTail:
    def test_partial_last_line_dropped_and_truncated(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1")
        journal.append("admit", job="j1")
        journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"event": "start", "job": "j1", "cr')  # torn write

        records, torn = JobJournal(path).recover()
        assert torn == 1
        assert [r["event"] for r in records] == ["submit", "admit"]
        # the debris is gone: appends continue on a clean boundary
        journal = JobJournal(path)
        journal.append("start", job="j1")
        journal.close()
        records, torn = JobJournal(path).recover()
        assert torn == 0
        assert [r["event"] for r in records] == ["submit", "admit", "start"]

    def test_corruption_before_valid_records_raises(self, path):
        journal = JobJournal(path)
        journal.append("submit", job="j1")
        journal.append("admit", job="j1")
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"mangled\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt record at line 2"):
            JobJournal(path).recover()

    def test_unsupported_schema_rejected(self, path):
        path.write_text(json.dumps({"kind": JOURNAL_KIND,
                                    "schema_version": 99}) + "\n")
        with pytest.raises(JournalError, match="unsupported journal schema"):
            JobJournal(path).recover()


class TestJournalChaos:
    def test_fault_surfaces_as_journal_error(self, path):
        plan = ChaosPlan.from_spec("corrupt@serve:journal:submit@1")
        journal = JobJournal(path, chaos=plan)
        with pytest.raises(JournalError, match="chaos corrupt"):
            journal.append("submit", job="j1")
        # nothing but the header reached the file: the ack never happened
        records, torn = JobJournal(path).recover()
        assert (records, torn) == ([], 0)
        # attempt 2 passes the one-shot clause
        journal.append("submit", job="j1")
        journal.close()

    def test_crash_kind_also_maps_to_write_failure(self, path):
        # a real SIGKILL inside the journal would re-fire forever across
        # restarts (append attempts are process-local), so every fault
        # kind at a journal key models a failed write instead
        plan = ChaosPlan.from_spec("crash@serve:journal:admit@1")
        journal = JobJournal(path, chaos=plan)
        journal.append("submit", job="j1")
        with pytest.raises(JournalError, match="chaos crash"):
            journal.append("admit", job="j1")
        journal.close()


class TestFailedFsync:
    def test_rejected_record_never_replays(self, path, monkeypatch):
        import repro.store

        journal = JobJournal(path)
        journal.append("submit", job="ok1")
        real_fsync = repro.store.os.fsync
        calls = []

        def fail_once(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError("injected fsync failure")
            return real_fsync(fd)

        monkeypatch.setattr(repro.store.os, "fsync", fail_once)
        with pytest.raises(JournalError, match="injected fsync failure"):
            journal.append("submit", job="rejected")
        journal.append("admit", job="ok1")
        monkeypatch.setattr(repro.store.os, "fsync", real_fsync)

        records, torn = JobJournal(path).recover()
        assert torn == 0
        assert [(r["job"], r["event"]) for r in records] == [
            ("ok1", "submit"), ("ok1", "admit")]


class TestChaosMarks:
    def test_unarmed_strike_stays_due(self, path):
        from repro.serve.service import ServeChaos

        # The first chaos mark cannot be journaled: that strike must not
        # fire (a crash would re-fire after its restart) nor count.
        plan = ChaosPlan.from_spec(
            "corrupt@serve:journal:chaos@1;corrupt@serve:ckpt@1")
        chaos = ServeChaos(plan, JobJournal(path, chaos=plan))
        chaos.strike("serve:ckpt")
        assert chaos.counts == {}
        with pytest.raises(OSError, match="chaos corrupt at serve:ckpt"):
            chaos.strike("serve:ckpt")
        assert chaos.counts == {"serve:ckpt": 1}
        chaos.strike("serve:ckpt")  # one-shot: attempt 2 is clean
        records, _ = JobJournal(path).recover()
        assert [(r["event"], r["key"], r["attempt"]) for r in records] \
            == [("chaos", "serve:ckpt", 1)]
