"""The durable store the cache, checkpoint, job table and recorder share.

One home for content keys (hashes, fingerprints, and the pair and group
keys of a (netlist, merge-options) key space), the self-checksum of a
JSON record, all-or-nothing file replacement, the append-only record
log and the kernel write lock.  A group key is both the result cache's
entry name and the merge checkpoint's per-group staleness hash; the
record log holds both the merge checkpoint and the serve job journal.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

#: Suffix of :func:`atomic_write`'s temp files; ``TEMP_GLOB`` matches
#: any of them left in a directory.
TEMP_SUFFIX = ".tmp"
TEMP_GLOB = f".*{TEMP_SUFFIX}"


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------
def content_hash(*parts: str) -> str:
    """Stable hex digest of any number of text fragments."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "replace"))
        digest.update(b"\x00")
    return digest.hexdigest()


def netlist_fingerprint(netlist) -> str:
    """Content hash of a netlist via its canonical Verilog emission."""
    from repro.netlist.verilog import write_verilog

    return content_hash(write_verilog(netlist))


def mode_fingerprint(mode) -> str:
    """Content hash of one mode: its name plus canonical SDC text.

    The canonical (header-free) emission means a semantically identical
    rewrite — reordered comments, whitespace — fingerprints the same,
    so checkpoint and result-cache entries survive cosmetic edits.
    """
    from repro.sdc.writer import write_mode

    return content_hash(mode.name, write_mode(mode, header=False))


def key_space(netlist, options) -> str:
    """The key space one (netlist, merge-options) context hashes to.

    Everything that can change a verdict or a merged mode's bytes —
    except the member modes themselves — folds in here once, so
    per-pair/per-group keys only add mode fingerprints.
    """
    return content_hash("cache-space", netlist_fingerprint(netlist),
                        options.result_fingerprint())


def pair_key(space: str, fp_a: str, fp_b: str) -> str:
    """Unordered pair key: (A, B) and (B, A) are the same entry.

    ``pair/2``: verdicts of the staged mock merge, whose reason can
    differ from an older full mock merge's when a later step raised.
    """
    return content_hash("pair/2", space, *sorted((fp_a, fp_b)))


def group_key(space: str, fingerprints: Sequence[str]) -> str:
    """Order-free group key over the sorted member fingerprints."""
    return content_hash("group", space, *sorted(fingerprints))


# ---------------------------------------------------------------------------
# checksummed records
# ---------------------------------------------------------------------------
def record_crc(record: dict) -> str:
    """Self-checksum of one JSON record (computed without ``crc``)."""
    body = {k: v for k, v in record.items() if k != "crc"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------
def _fsync_dir(directory: str) -> None:
    """Make a rename durable; best-effort on filesystems without it."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: Union[bytes, str]) -> None:
    """Replace ``path`` with ``data`` durably and all-or-nothing.

    The bytes go to a uniquely named temp file in the target directory
    (so concurrent writers never share one), are ``fsync``'d, renamed
    over the target and the directory is ``fsync``'d.  Any failure
    removes the temp file and re-raises.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(target)}.", suffix=TEMP_SUFFIX,
        dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(directory)


# ---------------------------------------------------------------------------
# append-only record log
# ---------------------------------------------------------------------------
@dataclass
class LogRead:
    """What :meth:`RecordLog.read` found: the longest valid prefix (its
    ``header``, ``records`` and byte length ``end``) and the damage after
    it."""

    #: None when line 1 is not this log's header
    header: Optional[dict]
    records: List[dict] = field(default_factory=list)
    end: int = 0
    #: 1-based line where the damage starts; None for a clean file
    damage: Optional[int] = None
    #: non-empty lines from the damage on
    damaged_lines: int = 0
    #: a valid record follows the damage: corruption, not a torn tail
    valid_after: bool = False


class RecordLog:
    """An append-only JSON-lines file of self-checksummed records.

    Line 1 is the header ``{"kind", "schema_version", **extra}``; each
    other line is one ``json.dumps(record, sort_keys=True)`` carrying
    its :func:`record_crc` as ``crc``.  A line is valid only when it
    ends in a newline, parses to a JSON object and its crc matches, so
    a crash mid-append tears at most the last line.  What damage after
    the valid prefix means (recover, discard or refuse) is the caller's
    policy.
    """

    def __init__(self, path: Union[str, Path], kind: str,
                 schema_version: int, **extra):
        self.path = Path(path)
        self.header = {"kind": kind, "schema_version": schema_version,
                       **extra}
        #: the file ends on a record boundary after a header: appends
        #: add to it.  Until then an append starts the file over.
        self.started = False
        #: serializes appends of the threads sharing this log, so a
        #: failed append cuts back only its own bytes
        self._lock = threading.Lock()

    def _parse(self, line: bytes, header: bool = False) -> Optional[dict]:
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict):
            return None
        valid = record.get("kind") == self.header["kind"] if header \
            else record.get("crc") == record_crc(record)
        return record if valid else None

    def read(self) -> Optional[LogRead]:
        """The file's valid prefix and damage; None when there is no
        file.  The caller judges the header's ``schema_version``."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return None
        # Bytes after the last newline are an unterminated, torn line.
        lines = raw.split(b"\n")[:-1]
        prefix: List[dict] = []
        for line in lines:
            record = self._parse(line, header=not prefix)
            if record is None:
                break
            prefix.append(record)
        read = LogRead(prefix[0] if prefix else None, prefix[1:],
                       sum(len(line) + 1 for line in lines[:len(prefix)]))
        if read.end < len(raw):
            read.damage = len(prefix) + 1
            read.damaged_lines = sum(
                1 for line in raw[read.end:].split(b"\n") if line.strip())
            read.valid_after = any(self._parse(line) is not None
                                   for line in lines[len(prefix) + 1:])
        return read

    def resume(self, read: LogRead) -> None:
        """Append after ``read``'s prefix, first cutting the damage
        after it away (``fsync``'d)."""
        if read.damage is not None:
            with open(self.path, "r+b") as handle:
                handle.truncate(read.end)
                os.fsync(handle.fileno())
        self.started = read.header is not None

    def append(self, records: Sequence[dict]) -> None:
        """Durably add ``records``, stamping each one's ``crc`` in place.

        The lines are written and ``fsync``'d before this returns; when
        that fails the file is cut back to its size before the append
        and the error re-raised, so a record the caller saw fail never
        replays.  A log not yet started is written whole instead, header
        first, with :func:`atomic_write`.
        """
        for record in records:
            record["crc"] = record_crc(record)
        data = "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in records)
        with self._lock:
            if not self.started:
                atomic_write(self.path, json.dumps(
                    self.header, sort_keys=True) + "\n" + data)
                self.started = True
            elif data:
                fd = os.open(self.path,
                             os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
                try:
                    size = os.fstat(fd).st_size
                    try:
                        view = memoryview(data.encode("utf-8"))
                        while view:
                            view = view[os.write(fd, view):]
                        os.fsync(fd)
                    except OSError:
                        os.ftruncate(fd, size)
                        raise
                finally:
                    os.close(fd)


# ---------------------------------------------------------------------------
# kernel file lock
# ---------------------------------------------------------------------------
class FileLock:
    """Exclusive ``fcntl.flock`` lock on a lock file.

    ``flock`` locks belong to the open file, so two threads of one
    process exclude each other just as two processes do, and the kernel
    releases the lock of an owner that dies.  The holder writes its pid
    into the file and unlinks the file *before* unlocking; a waiter that
    then wins the lock on the unlinked inode sees the path no longer
    names it and retries on the fresh file.  Finding the file non-empty
    once locked therefore means the previous owner died holding it:
    ``last_outcome`` is ``"takeover"``.  A live owner is waited on for
    ``timeout`` seconds, then the caller degrades (``"contended"``).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fd: Optional[int] = None
        #: how the last acquire ended: "", "acquired", "takeover",
        #: "contended"
        self.last_outcome = ""

    def _try_acquire(self) -> bool:
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        held = False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            locked = os.fstat(fd)
            try:
                current = os.stat(self.path)
            except FileNotFoundError:
                return False
            if not os.path.samestat(locked, current):
                # The previous holder unlinked this inode on release.
                return False
            self.last_outcome = "takeover" if locked.st_size \
                else "acquired"
            os.ftruncate(fd, 0)
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            held = True
        except BlockingIOError:
            return False
        finally:
            if not held:
                os.close(fd)
        self._fd = fd
        return True

    def acquire(self, timeout: float = 2.0) -> bool:
        """True when the lock is held; False after a bounded wait."""
        deadline = time.monotonic() + max(0.0, timeout)
        delay = 0.001
        while not self._try_acquire():
            if time.monotonic() >= deadline:
                self.last_outcome = "contended"
                return False
            time.sleep(delay)
            delay = min(delay * 2, 0.02)
        return True

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            os.unlink(self.path)
        except OSError:
            pass
        try:
            os.close(self._fd)
        except OSError:
            pass
        self._fd = None

