"""Unit tests for the durable store (``repro.store``).

The lock tests are the regression pins for mutual exclusion: a kernel
``flock`` must admit one holder at a time between threads of one
process and between processes, and a holder killed with ``SIGKILL``
must not block the next acquire.
"""

import errno
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cache import ResultCache
from repro.diagnostics import DiagnosticCollector
from repro.exec.chaos import ChaosPlan
from repro.store import TEMP_GLOB, FileLock, atomic_write

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

