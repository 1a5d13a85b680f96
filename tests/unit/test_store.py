"""Unit tests for the durable store (``repro.store``).

The lock tests are the regression pins for mutual exclusion: a kernel
``flock`` must admit one holder at a time between threads of one
process and between processes, and a holder killed with ``SIGKILL``
must not block the next acquire.

The record-log tests pin the byte-level contract the merge checkpoint
and the serve job journal share; the golden files under ``golden/``
pin both on-disk formats.
"""

import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
import repro.store
from repro.cache import ResultCache
from repro.checkpoint import MergeCheckpoint
from repro.diagnostics import DiagnosticCollector
from repro.exec.chaos import ChaosPlan
from repro.serve.journal import JobJournal
from repro.store import TEMP_GLOB, FileLock, RecordLog, atomic_write

GOLDEN = Path(__file__).parent / "golden"

#: Holder-side loop of the cross-process stress test: every critical
#: section appends an enter and an exit line to a shared log.
HOLDER = textwrap.dedent("""
    import os, sys, time
    from repro.store import FileLock
    lock_path, log_path, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
    log = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    for _ in range(rounds):
        lock = FileLock(lock_path)
        assert lock.acquire(60.0)
        os.write(log, f"E {os.getpid()}\\n".encode())
        time.sleep(0.0005)
        os.write(log, f"X {os.getpid()}\\n".encode())
        lock.release()
""")

#: Takes the lock, says so, then waits to be killed.
SLEEPER = textwrap.dedent("""
    import sys, time
    from repro.store import FileLock
    lock = FileLock(sys.argv[1])
    assert lock.acquire(5.0)
    print("held", flush=True)
    time.sleep(60)
""")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    return env


class TestLockStress:
    def test_threads_never_overlap(self, tmp_path):
        path = tmp_path / "cache.lock"
        state = {"holders": 0, "overlaps": 0, "acquired": 0}
        mutex = threading.Lock()

        def worker():
            for _ in range(300):
                lock = FileLock(path)
                assert lock.acquire(60.0)
                with mutex:
                    state["holders"] += 1
                    state["acquired"] += 1
                    if state["holders"] > 1:
                        state["overlaps"] += 1
                time.sleep(0.0005)
                with mutex:
                    state["holders"] -= 1
                lock.release()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert state["acquired"] == 1200
        assert state["overlaps"] == 0
        assert not path.exists()

    def test_processes_never_overlap(self, tmp_path):
        lock_path, log_path = tmp_path / "cache.lock", tmp_path / "log"
        children = [subprocess.Popen(
            [sys.executable, "-c", HOLDER, str(lock_path), str(log_path),
             "150"], env=child_env()) for _ in range(2)]
        for child in children:
            assert child.wait(timeout=120) == 0
        entries = log_path.read_text().split("\n")[:-1]
        assert len(entries) == 2 * 2 * 150
        overlaps = 0
        holder = None
        for entry in entries:
            kind, pid = entry.split()
            if kind == "E":
                overlaps += holder is not None
                holder = pid
            else:
                assert holder == pid
                holder = None
        assert overlaps == 0

    def test_killed_holder_is_taken_over_at_once(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        lock_path = root / "cache.lock"
        child = subprocess.Popen(
            [sys.executable, "-c", SLEEPER, str(lock_path)],
            stdout=subprocess.PIPE, env=child_env(), text=True)
        try:
            assert child.stdout.readline().strip() == "held"
            assert not FileLock(lock_path).acquire(0.0)  # genuinely held
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
            child.stdout.close()
        # The next acquire (one try: no wait) takes the dead owner's
        # lock file over and reports it.
        collector = DiagnosticCollector()
        cache = ResultCache.open(root, collector=collector,
                                 chaos=ChaosPlan(), lock_timeout=0.0)
        cache.store_pairs([("k", "pair:A,B", True, "")])
        assert cache.counters["stores"] == 1
        assert [d.code for d in collector.diagnostics] == ["CAC003"]


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write(target, "old\n")
        atomic_write(target, b"new\n")
        assert target.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failure_mid_write_removes_temp(self, tmp_path, monkeypatch,
                                            step):
        target = tmp_path / "out.json"
        target.write_text("old\n")

        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(f"repro.store.os.{step}", fail)
        with pytest.raises(OSError):
            atomic_write(target, "new\n")
        monkeypatch.undo()
        assert target.read_text() == "old\n"
        assert not list(tmp_path.glob(TEMP_GLOB))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]



def _log(path):
    return RecordLog(path, "test-log", 1, owner="tests")


def _written(path, *batches):
    """A started log holding ``batches``, one append each."""
    log = _log(path)
    for batch in batches:
        log.append([dict(record) for record in batch])
    return log


class TestRecordLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = _written(path, [{"n": 1}, {"n": 2}], [{"n": 3, "xs": [1]}])
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"kind": "test-log",
                                        "schema_version": 1,
                                        "owner": "tests"}
        assert lines[1] == json.dumps(json.loads(lines[1]), sort_keys=True)
        read = _log(path).read()
        assert read.header == log.header
        assert [r["n"] for r in read.records] == [1, 2, 3]
        assert all(r["crc"] for r in read.records)
        assert (read.end, read.damage) == (path.stat().st_size, None)

    def test_missing_file_reads_none_and_empty_file_has_no_header(
            self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert _log(path).read() is None
        path.write_bytes(b"")
        read = _log(path).read()
        assert (read.header, read.records, read.damage) == (None, [], None)

    @pytest.mark.parametrize("tail", [
        b'{"n": 3, "cr',                      # unterminated
        json.dumps({"n": 3}).encode(),         # whole, but no newline
        b"garbage\n\x00\xff\n",               # terminated garbage
    ])
    def test_torn_tail_is_truncated_to_the_boundary(self, tmp_path, tail):
        path = tmp_path / "log.jsonl"
        _written(path, [{"n": 1}, {"n": 2}])
        good = path.read_bytes()
        path.write_bytes(good + tail)

        log = _log(path)
        read = log.read()
        assert [r["n"] for r in read.records] == [1, 2]
        assert (read.end, read.damage, read.valid_after) == \
            (len(good), 4, False)
        assert read.damaged_lines == len(tail.strip().split(b"\n"))
        log.resume(read)
        assert path.read_bytes() == good
        log.append([{"n": 3}])
        read = _log(path).read()
        assert [r["n"] for r in read.records] == [1, 2, 3]
        assert read.damage is None

    def test_bad_crc_tail_is_truncated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _written(path, [{"n": 1}])
        good = path.read_bytes()
        record = {"n": 2, "crc": "0" * 16}
        path.write_bytes(good + json.dumps(record).encode() + b"\n")

        read = _log(path).read()
        assert [r["n"] for r in read.records] == [1]
        assert (read.damage, read.damaged_lines, read.valid_after) == \
            (3, 1, False)

    def test_damage_followed_by_valid_records_is_reported(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _written(path, [{"n": 1}, {"n": 2}, {"n": 3}])
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"mangled\n'
        path.write_bytes(b"".join(lines))

        read = _log(path).read()
        assert [r["n"] for r in read.records] == [1]
        assert (read.damage, read.damaged_lines, read.valid_after) == \
            (3, 2, True)

    def test_edited_record_fails_its_crc(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _written(path, [{"seq": 1}])
        path.write_text(path.read_text().replace('"seq": 1', '"seq": 2'))
        read = _log(path).read()
        assert read.records == []
        assert (read.damage, read.damaged_lines) == (2, 1)

    def test_header_of_wrong_kind_or_version_is_reported(self, tmp_path):
        path = tmp_path / "log.jsonl"
        RecordLog(path, "other-log", 1).append([{"n": 1}])
        read = _log(path).read()
        assert (read.header, read.damage, read.valid_after) == \
            (None, 1, True)
        RecordLog(path, "test-log", 99).append([{"n": 1}])
        read = _log(path).read()
        assert read.header["schema_version"] == 99
        assert read.damage is None

    def test_unstarted_log_starts_the_file_over(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"left over\n")
        _written(path, [{"n": 1}])
        read = _log(path).read()
        assert read.header is not None
        assert [r["n"] for r in read.records] == [1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.jsonl"]


class TestRecordLogFailedAppend:
    def test_failed_fsync_leaves_no_record(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        log = _written(path, [{"n": 1}])
        size = path.stat().st_size

        def broken(fd):
            raise OSError(errno.EIO, "injected fsync failure")

        monkeypatch.setattr(repro.store.os, "fsync", broken)
        with pytest.raises(OSError, match="injected"):
            log.append([{"n": 2}])
        monkeypatch.undo()
        assert path.stat().st_size == size
        log.append([{"n": 3}])
        assert [r["n"] for r in _log(path).read().records] == [1, 3]

    def test_threads_lose_and_keep_exactly_their_own_records(
            self, tmp_path, monkeypatch):
        # Every third fsync fails while four threads append to one log:
        # a failed append must cut back only its own bytes, so the file
        # holds exactly the appends that returned.
        path = tmp_path / "log.jsonl"
        log = _written(path)
        real_fsync = repro.store.os.fsync
        calls = {"n": 0}
        mutex = threading.Lock()

        def flaky(fd):
            with mutex:
                calls["n"] += 1
                fail = calls["n"] % 3 == 0
            if fail:
                raise OSError(errno.EIO, "injected fsync failure")
            real_fsync(fd)

        monkeypatch.setattr(repro.store.os, "fsync", flaky)
        kept, lost = [], []

        def worker(tid):
            for n in range(60):
                record = {"tid": tid, "n": n}
                try:
                    log.append([record])
                except OSError:
                    target = lost
                else:
                    target = kept
                with mutex:
                    target.append((tid, n))

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert not any(thread.is_alive() for thread in threads)
        assert len(kept) + len(lost) == 240 and lost
        read = _log(path).read()
        assert read.damage is None
        assert sorted((r["tid"], r["n"]) for r in read.records) \
            == sorted(kept)


class TestGoldenFiles:
    """The checkpoint and journal formats, pinned byte for byte.

    ``golden/checkpoint_v2.ckpt`` is a two-group checkpoint that
    ``merge_all`` wrote for the ``pipeline_netlist`` modes A, B and C
    (input hash ``golden-inputs``); ``golden/journal_v1.jsonl`` is a
    journal of one job's ``submit``, ``admit``, ``start`` and
    ``finish``.  Both were written before the two files shared
    :class:`~repro.store.RecordLog`.
    """

    @staticmethod
    def lines(name):
        return [json.loads(line)
                for line in (GOLDEN / name).read_text().splitlines()]

    def test_checkpoint_reads_and_rewrites_identically(self, tmp_path):
        golden = GOLDEN / "checkpoint_v2.ckpt"
        shutil.copy(golden, tmp_path / "old.ckpt")
        collector = DiagnosticCollector()
        checkpoint = MergeCheckpoint.open(tmp_path / "old.ckpt",
                                          input_hash="golden-inputs",
                                          collector=collector)
        assert collector.diagnostics == []
        expected = {record["key"]: {k: v for k, v in record.items()
                                    if k not in ("key", "crc")}
                    for record in self.lines(golden.name)[1:]}
        assert list(checkpoint.groups) == ["A+B", "C"]
        assert checkpoint.groups == expected

        replay = MergeCheckpoint(tmp_path / "new.ckpt",
                                 input_hash="golden-inputs")
        for key, entry in checkpoint.groups.items():
            replay.record_serialized(key, entry["hash"], entry["outcomes"],
                                     entry["diagnostics"])
            replay.save()
        assert (tmp_path / "new.ckpt").read_bytes() == golden.read_bytes()

    def test_journal_reads_and_rewrites_identically(self, tmp_path):
        golden = GOLDEN / "journal_v1.jsonl"
        shutil.copy(golden, tmp_path / "old.jsonl")
        records, torn = JobJournal(tmp_path / "old.jsonl").recover()
        assert torn == 0
        assert records == self.lines(golden.name)[1:]
        assert [r["event"] for r in records] == \
            ["submit", "admit", "start", "finish"]

        replay = JobJournal(tmp_path / "new.jsonl")
        for record in records:
            fields = {k: v for k, v in record.items()
                      if k not in ("crc", "event", "job")}
            replay.append(record["event"], job=record["job"], **fields)
        assert (tmp_path / "new.jsonl").read_bytes() == golden.read_bytes()
