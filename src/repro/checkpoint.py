"""Checkpoint/resume for multi-group merge runs.

A design-level merge of a mode-rich SoC can run for a long time; a
killed run used to lose every completed group.  ``merge_all`` now
serializes its state after *every* merge group into a
:class:`repro.store.RecordLog`: a header line followed by one
self-checksummed record per completed group, appended with ``fsync``
after every group.  A ``kill -9`` mid-append can tear at most the final
record; on resume the torn tail is detected, the longest valid prefix
is recovered with an ``SGN009`` diagnostic, the damage is cut away, and
only the torn groups recompute — never the whole run, and never
silently.
``repro-merge merge --checkpoint run.ckpt`` resumes from the last
completed group.

Staleness is handled by content hashing at two granularities:

* a **run-level hash** over the raw input files (CLI) or whatever the
  embedding flow passes as ``input_hash`` — a mismatch discards the
  whole checkpoint with an ``SGN008`` diagnostic;
* a **group-level hash** — the result cache's content group key
  (:func:`repro.store.group_key`) over the netlist fingerprint, the
  merge options and the canonical SDC text of the group's modes — so
  editing one mode's SDC only invalidates the groups that contain it.

A restored group replays exactly: the merged mode's SDC text, the JSON
report record, runtimes, validation state and the diagnostics the group
produced are all stored verbatim, so a resumed run's outputs are
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.diagnostics import Diagnostic, DiagnosticCollector, Severity
from repro.obs.metrics import get_metrics
from repro.sdc.mode import Mode
from repro.sdc.parser import parse_mode
from repro.sdc.writer import write_mode
from repro.store import RecordLog

#: Version of the checkpoint file layout.  Bump on any incompatible
#: change; files with a different version are discarded, never guessed at.
#: v1 was a monolithic JSON snapshot rewritten after every group; v2 is
#: append-only JSONL with per-record checksums and torn-tail recovery.
CHECKPOINT_SCHEMA_VERSION = 2

#: ``kind`` field of the JSONL header line.
CHECKPOINT_KIND = "repro-checkpoint"


def serialize_outcome(outcome) -> dict:
    """One ``GroupOutcome`` as a checkpoint-ready JSON entry.

    Shared by both of ``merge_all``'s execution paths; forked workers
    serialize their outcomes before shipping them over the result pipe
    (a ``MergeResult`` holds a full ``Mode``;
    the SDC text + report record round-trip is the proven byte-identical
    representation).
    """
    result = outcome.result
    entry = {
        "modes": list(outcome.mode_names),
        "error": outcome.error,
        "repaired": getattr(outcome, "repaired", False),
        "result": None,
    }
    if result is not None:
        entry["result"] = {
            "name": result.merged.name,
            "sdc": write_mode(result.merged),
            "ok": result.ok,
            "runtime_seconds": result.runtime_seconds,
            "validated": result.validated,
            "validation_mismatches":
                list(result.validation_mismatches),
            "dict": result.to_dict(),
        }
    return entry


class RestoredMergeResult:
    """Duck-typed stand-in for a ``MergeResult`` loaded from a checkpoint.

    Exposes exactly the surface the reporting/CLI layer consumes:
    ``merged`` (a re-parsed :class:`Mode`), ``ok``, ``runtime_seconds``,
    ``validated``, ``validation_mismatches``, ``to_dict()`` (the stored
    record, replayed verbatim) and ``summary()``.
    """

    def __init__(self, merged: Mode, ok: bool, runtime_seconds: float,
                 validated: bool, validation_mismatches: List[str],
                 record: dict):
        self.merged = merged
        self.ok = ok
        self.runtime_seconds = runtime_seconds
        self.validated = validated
        self.validation_mismatches = list(validation_mismatches)
        self._record = record

    def to_dict(self) -> dict:
        return self._record

    def summary(self) -> str:
        return (f"merged mode {self.merged.name!r} restored from "
                f"checkpoint ({len(self.merged)} constraints)")

    def __repr__(self) -> str:
        return f"RestoredMergeResult({self.merged.name!r})"


class MergeCheckpoint:
    """One merge run's persistent state, keyed by analysis group."""

    def __init__(self, path, input_hash: str = ""):
        self.path = Path(path)
        self.input_hash = input_hash
        self.groups: Dict[str, dict] = {}
        #: records of the groups recorded since the last save
        self._pending: List[dict] = []
        self._log = RecordLog(path, CHECKPOINT_KIND,
                              CHECKPOINT_SCHEMA_VERSION,
                              input_hash=input_hash)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path, input_hash: str = "",
             collector: Optional[DiagnosticCollector] = None
             ) -> "MergeCheckpoint":
        """Load ``path`` if it holds a compatible, matching checkpoint.

        Unreadable, corrupt, version-mismatched or stale files are
        discarded with an ``SGN008`` diagnostic — resuming must never be
        less robust than starting over.  A file whose *tail* was torn by
        a crash mid-append is not discarded: the longest valid prefix is
        recovered with an ``SGN009`` diagnostic, the damage is cut away
        and only the torn records recompute.
        """
        checkpoint = cls(path, input_hash)

        def discard(problem: str, severity=Severity.WARNING):
            if collector is not None:
                collector.report(
                    "SGN008", f"checkpoint {path} {problem}; starting "
                    f"from scratch", severity=severity, source=str(path))
            return checkpoint

        try:
            read = checkpoint._log.read()
        except OSError as exc:
            return discard(f"is unreadable ({exc})")
        if read is None:
            return checkpoint
        if read.header is None:
            return discard("is unreadable (not a v2 checkpoint log: a v1 "
                           "snapshot or other damage)")
        version = read.header.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            return discard(f"has schema version {version!r}, expected "
                           f"{CHECKPOINT_SCHEMA_VERSION}")
        written_for = read.header.get("input_hash")
        if input_hash and written_for and written_for != input_hash:
            return discard("was written for different inputs",
                           Severity.INFO)
        for record in read.records:
            # Append wins: a resumed run re-records a stale group by
            # appending, so the last occurrence of a key is the truth.
            key = record.pop("key", None)
            record.pop("crc")
            if key is not None:
                checkpoint.groups[key] = record
        if read.damage is not None:
            # Everything from the first damaged line on is dropped and
            # will recompute.
            get_metrics().inc("checkpoint.torn_tail_recoveries")
            if collector is not None:
                collector.report(
                    "SGN009",
                    f"checkpoint {path} tail is torn at line "
                    f"{read.damage} (crash mid-append); recovered "
                    f"{len(checkpoint.groups)} group(s), discarded "
                    f"{read.damaged_lines} damaged line(s)",
                    severity=Severity.WARNING, source=str(path))
        try:
            checkpoint._log.resume(read)
        except OSError:
            pass  # not writable now: the first save starts it over
        return checkpoint

    def save(self) -> None:
        """Durable incremental save: fsync before the caller proceeds.

        Appends the groups recorded since the last save, so a crash can
        tear at most the final record (:meth:`open` recovers from that).
        A fresh or discarded checkpoint is written whole, all-or-nothing.
        """
        if not self._log.started:
            self._pending = [dict(entry, key=key)
                             for key, entry in self.groups.items()]
        self._log.append(self._pending)
        self._pending = []
        get_metrics().inc("checkpoint.saves")
        # The flight recorder keeps the latest checkpoint state so a
        # crash's blackbox.json says how much work is already durable.
        from repro.obs.blackbox import get_blackbox

        get_blackbox().note_state("checkpoint", {
            "path": str(self.path),
            "groups_saved": len(self.groups),
        })

    # ------------------------------------------------------------------
    # record / restore
    # ------------------------------------------------------------------
    def record_serialized(self, key: str, group_hash: str,
                          outcomes: Sequence[dict],
                          diagnostics: Sequence[dict]) -> None:
        """Store one analysis group's serialized final outcomes."""
        entry = {
            "hash": group_hash,
            "outcomes": list(outcomes),
            "diagnostics": list(diagnostics),
        }
        self.groups[key] = entry
        self._pending.append(dict(entry, key=key))

    def lookup(self, key: str, group_hash: str) -> Optional[dict]:
        """The stored entry for a group, or None when absent/stale."""
        entry = self.groups.get(key)
        if entry is None or entry.get("hash") != group_hash:
            get_metrics().inc("checkpoint.misses")
            return None
        get_metrics().inc("checkpoint.hits")
        return entry

    @staticmethod
    def restore_outcome(stored: dict):
        """(mode_names, result-or-None, error, repaired) from one entry."""
        result = None
        record = stored.get("result")
        if record is not None:
            merged = parse_mode(record["sdc"], record["name"])
            result = RestoredMergeResult(
                merged=merged,
                ok=record["ok"],
                runtime_seconds=record["runtime_seconds"],
                validated=record["validated"],
                validation_mismatches=record["validation_mismatches"],
                record=record["dict"],
            )
        return (list(stored["modes"]), result, stored.get("error", ""),
                stored.get("repaired", False))

    @staticmethod
    def restore_diagnostics(entry: dict) -> List[Diagnostic]:
        return [Diagnostic.from_dict(record)
                for record in entry.get("diagnostics", ())]
