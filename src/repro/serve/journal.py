"""The durable job journal: fsync-before-ack JSONL, torn-tail tolerant.

Every job state transition the service acknowledges is first appended
here and pushed to disk (``flush`` + ``os.fsync``) before the caller
proceeds — kill -9 at any instant loses at most the record being
written, never an acked one.  The file is a :class:`repro.store.RecordLog`,
the same log the merge checkpoint uses: a header line naming the schema,
then one JSON object per line carrying a content checksum.  A torn tail
(partial last line from a crash mid-write) is detected on recovery,
reported (``SRV004``), and truncated away so appends continue on a
clean boundary.

Chaos: under ``REPRO_CHAOS`` the append path itself is a strike point
(key ``serve:journal:<event>``) — any matching fault is surfaced as a
:class:`JournalError` (``SRV003``), modelling a failed journal write.
The service fails *closed* on acknowledgement records (the client is
told, nothing is acked) and *open* on progress records (the job keeps
running; a diagnostic is recorded).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ServeError
from repro.exec.chaos import ChaosPlan
from repro.obs.metrics import get_metrics
from repro.store import RecordLog

JOURNAL_KIND = "repro-serve-journal"
JOURNAL_SCHEMA_VERSION = 1


class JournalError(ServeError):
    """A journal append could not be made durable (``SRV003``)."""

    code = "SRV003"

    def __init__(self, event: str, detail: str):
        super().__init__(f"journal write failed for {event!r}: {detail}")
        self.event = event
        self.detail = detail


class JobJournal:
    """Append-only JSONL journal of job lifecycle events."""

    def __init__(self, path: Union[str, Path],
                 chaos: Optional[ChaosPlan] = None):
        self.path = Path(path)
        self.chaos = chaos
        #: per-event append attempts in this process, for chaos matching
        self._attempts: Dict[str, int] = {}
        self._log = RecordLog(path, JOURNAL_KIND, JOURNAL_SCHEMA_VERSION)

    # -- recovery ----------------------------------------------------------

    def recover(self) -> Tuple[List[dict], int]:
        """Read every valid record; return ``(records, torn_lines)``.

        Invalid or partial lines are only tolerated at the *tail* of the
        file (the crash-mid-write signature); the file is truncated to
        the last valid boundary so subsequent appends never interleave
        with debris.  A bad line followed by good ones means real
        corruption and raises :class:`JournalError`.
        """
        read = self._log.read()
        if read is None:
            return [], 0
        version = (read.header or {}).get("schema_version",
                                          JOURNAL_SCHEMA_VERSION)
        if version != JOURNAL_SCHEMA_VERSION:
            raise JournalError("recover", f"unsupported journal schema "
                               f"{version!r} in {self.path}")
        if read.valid_after:
            raise JournalError("recover", f"corrupt record at line "
                               f"{read.damage} of {self.path}")
        self._log.resume(read)
        if read.damaged_lines:
            get_metrics().inc("serve.journal_torn_records",
                              read.damaged_lines)
        return ([record for record in read.records if record.get("event")],
                read.damaged_lines)

    # -- append ------------------------------------------------------------

    def open(self) -> None:
        """Ready for appends: recover the file, or start it with a header."""
        if not self._log.started:
            self.recover()
        if not self._log.started:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._log.append([])

    def close(self) -> None:
        """Nothing stays open: every append opens, syncs and closes."""

    def append(self, event: str, job: Optional[str] = None,
               **fields) -> dict:
        """Durably append one record; returns it once fsync'd.

        Raises :class:`JournalError` when the write cannot be made
        durable — including chaos-injected failures at key
        ``serve:journal:<event>`` (any fault kind models a failed
        write; a crash fault here would loop forever across restarts
        because append attempts are necessarily process-local).
        """
        self.open()
        self._strike(event)
        record = dict(fields)
        record["event"] = event
        if job is not None:
            record["job"] = job
        try:
            self._log.append([record])
        except OSError as exc:
            raise JournalError(event, str(exc)) from exc
        get_metrics().inc("serve.journal_appends")
        return record

    def _strike(self, event: str) -> None:
        if self.chaos is None:
            return
        key = f"serve:journal:{event}"
        attempt = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempt
        fault = self.chaos.fault_for(key, attempt)
        if fault is not None:
            raise JournalError(
                event, f"chaos {fault.kind} at {key} attempt {attempt}")
