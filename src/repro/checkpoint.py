"""Checkpoint/resume for multi-group merge runs.

A design-level merge of a mode-rich SoC can run for a long time; a
killed run used to lose every completed group.  ``merge_all`` now
serializes its state after *every* merge group into a schema-versioned
**JSONL** file: a header line followed by one self-checksummed record
per completed group, appended with ``fsync`` after every group.  A
``kill -9`` mid-append can tear at most the final record; on resume the
torn tail is detected (checksum/JSON damage), the longest valid prefix
is recovered with an ``SGN009`` diagnostic, and only the torn groups
recompute — never the whole run, and never silently.
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

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.diagnostics import Diagnostic, DiagnosticCollector, Severity
from repro.obs.metrics import get_metrics
from repro.sdc.mode import Mode
from repro.sdc.parser import parse_mode
from repro.sdc.writer import write_mode
from repro.store import atomic_write, record_crc

#: Version of the checkpoint file layout.  Bump on any incompatible
#: change; files with a different version are discarded, never guessed at.
#: v1 was a monolithic JSON snapshot rewritten after every group; v2 is
#: append-only JSONL with per-record checksums and torn-tail recovery.
CHECKPOINT_SCHEMA_VERSION = 2

#: ``kind`` field of the JSONL header line.
CHECKPOINT_KIND = "repro-checkpoint"


def serialize_outcome(outcome) -> dict:
    """One ``GroupOutcome`` as a checkpoint-ready JSON entry.

    Shared by :meth:`MergeCheckpoint.record` and the parallel execution
    path, where forked workers serialize their outcomes before shipping
    them over the result pipe (a ``MergeResult`` holds a full ``Mode``;
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
        #: keys recorded since the last save (appended on save)
        self._unsaved: List[str] = []
        #: rewrite the whole file on next save: fresh/discarded state,
        #: a recovered torn tail (the garbage bytes must go), or an
        #: explicit discard()
        self._rewrite = True

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
        recovered with an ``SGN009`` diagnostic and only the torn
        records recompute.
        """
        checkpoint = cls(path, input_hash)
        target = Path(path)
        if not target.exists():
            return checkpoint

        def _discard(message: str, severity=Severity.WARNING) -> None:
            if collector is not None:
                collector.report("SGN008", message, severity=severity,
                                 source=str(target))

        try:
            text = target.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            _discard(f"checkpoint {target} is unreadable ({exc}); "
                     f"starting from scratch")
            return checkpoint
        lines = text.splitlines()
        header = None
        if lines:
            try:
                header = json.loads(lines[0])
            except ValueError:
                header = None
        if not isinstance(header, dict) \
                or header.get("kind") != CHECKPOINT_KIND:
            # Not JSONL — a v1 monolithic snapshot or other damage.
            try:
                payload = json.loads(text)
            except ValueError:
                _discard(f"checkpoint {target} is unreadable (not a "
                         f"JSONL checkpoint); starting from scratch")
                return checkpoint
            _discard(f"checkpoint {target} has schema version "
                     f"{payload.get('schema_version')!r}, expected "
                     f"{CHECKPOINT_SCHEMA_VERSION}; starting from "
                     f"scratch")
            return checkpoint
        if header.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            _discard(f"checkpoint {target} has schema version "
                     f"{header.get('schema_version')!r}, expected "
                     f"{CHECKPOINT_SCHEMA_VERSION}; starting from "
                     f"scratch")
            return checkpoint
        if input_hash and header.get("input_hash") \
                and header["input_hash"] != input_hash:
            _discard(f"checkpoint {target} was written for different "
                     f"inputs; starting from scratch", Severity.INFO)
            return checkpoint

        torn_at = None
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                torn_at = lineno
                break
            if not isinstance(record, dict) or "key" not in record \
                    or record.get("crc") != record_crc(record):
                torn_at = lineno
                break
            # Append wins: a resumed run re-records a stale group by
            # appending, so the last occurrence of a key is the truth.
            checkpoint.groups[record["key"]] = {
                k: v for k, v in record.items()
                if k not in ("key", "crc")}
        if torn_at is not None:
            # Longest valid prefix recovered; everything from the first
            # damaged line on is dropped and will recompute.
            get_metrics().inc("checkpoint.torn_tail_recoveries")
            if collector is not None:
                torn = len([ln for ln in lines[torn_at - 1:]
                            if ln.strip()])
                collector.report(
                    "SGN009",
                    f"checkpoint {target} tail is torn at line "
                    f"{torn_at} (crash mid-append); recovered "
                    f"{len(checkpoint.groups)} group(s), discarded "
                    f"{torn} damaged line(s)",
                    severity=Severity.WARNING, source=str(target))
        else:
            # Clean file: future saves may append instead of rewriting.
            checkpoint._rewrite = False
        return checkpoint

    def _header_line(self) -> str:
        return json.dumps({
            "kind": CHECKPOINT_KIND,
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "input_hash": self.input_hash,
        }, sort_keys=True)

    def _record_line(self, key: str) -> str:
        record = dict(self.groups[key])
        record["key"] = key
        record["crc"] = record_crc(record)
        return json.dumps(record, sort_keys=True)

    def save(self) -> None:
        """Durable incremental save: fsync before the caller proceeds.

        The steady state appends only the records recorded since the
        last save and fsyncs — a crash can tear at most the final
        record, which :meth:`open` recovers from.  The first save after
        a fresh/discarded/torn open rewrites the whole file with
        :func:`~repro.store.atomic_write` so stale bytes never shadow
        good state.
        """
        if self._rewrite:
            lines = [self._header_line()]
            lines.extend(self._record_line(key) for key in self.groups)
            atomic_write(self.path, "\n".join(lines) + "\n")
            self._rewrite = False
        elif self._unsaved:
            with open(self.path, "a", encoding="utf-8") as handle:
                for key in self._unsaved:
                    if key in self.groups:
                        handle.write(self._record_line(key) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        self._unsaved = []
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
    def record(self, key: str, group_hash: str, outcomes,
               diagnostics: Sequence[Diagnostic]) -> None:
        """Store the final outcomes one analysis group produced."""
        self.record_serialized(
            key, group_hash,
            [serialize_outcome(outcome) for outcome in outcomes],
            [d.to_dict() for d in diagnostics])

    def record_serialized(self, key: str, group_hash: str,
                          outcomes: Sequence[dict],
                          diagnostics: Sequence[dict]) -> None:
        """Store already-serialized outcomes (the parallel-worker path)."""
        self.groups[key] = {
            "hash": group_hash,
            "outcomes": list(outcomes),
            "diagnostics": list(diagnostics),
        }
        self._unsaved.append(key)

    def lookup(self, key: str, group_hash: str) -> Optional[dict]:
        """The stored entry for a group, or None when absent/stale."""
        entry = self.groups.get(key)
        if entry is None or entry.get("hash") != group_hash:
            get_metrics().inc("checkpoint.misses")
            return None
        get_metrics().inc("checkpoint.hits")
        return entry

    def discard(self, key: str) -> None:
        if self.groups.pop(key, None) is not None:
            # Appending cannot un-record a key; rewrite on next save.
            self._rewrite = True

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
