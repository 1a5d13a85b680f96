"""The differential oracle battery.

Every oracle is *metamorphic*: it never needs a golden reference, only
the pipeline run two ways that the project's contracts say must agree —
so any generated workload, however adversarial, is a usable test input.

The battery re-parses each case from its text form (like the CLI
would), runs the full ``merge_all`` pipeline under ``LENIENT`` policy
with the sign-off guard enabled, and compares merged-SDC bytes
(``write_mode(..., header=False)``, keyed by the merged group's mode
set, so legitimate naming/order differences never false-positive).

A pipeline *crash* (any non-:class:`~repro.errors.ReproError`
exception) inside an oracle is itself recorded as a violation of that
oracle — fuzzing exists to find those.  A clean :class:`ReproError`
rejection of a mutated input is not a finding: the case is marked
rejected and skipped.

``REPRO_FUZZ_BREAK=<oracle>`` (test-only) deterministically corrupts
that oracle's observed output so the find → shrink → bundle → replay
loop can be exercised end to end without a real bug.
"""

from __future__ import annotations

import os
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.equivalence import check_mode_equivalence
from repro.core.merger import MergeOptions
from repro.core.mergeability import (
    _preliminary_merge,
    clock_blocking_reason,
    merge_all,
)
from repro.diagnostics import DegradationPolicy, DiagnosticCollector
from repro.errors import ReproError
from repro.fuzz import BREAK_ENV, ORACLE_NAMES
from repro.fuzz.generator import FuzzCase
from repro.netlist import read_verilog
from repro.obs.explain import muted
from repro.sdc.parser import parse_mode
from repro.sdc.writer import write_mode
from repro.workloads.seeding import stable_rng

#: Marker line the BREAK_ENV hook appends to a merged text.
_BREAK_MARK = "# fuzz-break"


def full_mock_merge(netlist, mode_a, mode_b, options: MergeOptions
                    ) -> Tuple[bool, str, bool]:
    """The unstaged reference for one pair: every Section 3.1 step, then
    the clock-blocking check.  Returns (mergeable?, reason, raised?)."""
    with muted():
        try:
            context = _preliminary_merge(netlist, [mode_a, mode_b], options)
        except Exception as exc:
            return False, f"preliminary merge failed: {exc}", True
        conflicts = context.all_conflicts()
        if conflicts:
            return False, str(conflicts[0]), False
        blocked = clock_blocking_reason(context)
    return blocked is None, blocked or "", False


@dataclass(frozen=True)
class Violation:
    """One invariant failure, with enough context to triage."""

    oracle: str
    detail: str
    mode_names: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "detail": self.detail,
                "mode_names": list(self.mode_names)}


@dataclass
class CaseVerdict:
    """The battery's verdict on one case."""

    case: FuzzCase
    oracles_run: Tuple[str, ...] = ()
    violations: List[Violation] = field(default_factory=list)
    #: the case's modes were cleanly rejected as invalid input
    rejected: bool = False
    reject_reason: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "case_id": self.case.case_id,
            "family": self.case.family,
            "case_seed": self.case.case_seed,
            "ok": self.ok,
            "rejected": self.rejected,
            "reject_reason": self.reject_reason,
            "oracles": list(self.oracles_run),
            "violations": [v.to_dict() for v in self.violations],
        }


#: frozenset(mode names) -> merged SDC bytes (header-free).
MergedTexts = Dict[FrozenSet[str], str]


class OracleBattery:
    """Runs the six invariant oracles over one case at a time."""

    def __init__(self, jobs: int = 2):
        self.jobs = max(2, jobs)

    # -- public ---------------------------------------------------------
    def run(self, case: FuzzCase,
            oracles: Sequence[str] = ORACLE_NAMES) -> CaseVerdict:
        verdict = CaseVerdict(case)
        try:
            netlist, modes = self._load(case)
        except ReproError as exc:
            verdict.rejected = True
            verdict.reject_reason = f"{type(exc).__name__}: {exc}"[:240]
            return verdict
        except Exception:
            verdict.violations.append(Violation(
                "crash", "unhandled exception parsing case:\n"
                + traceback.format_exc(limit=4)[-900:]))
            return verdict
        ran: List[str] = []
        baseline: Optional[Tuple[MergedTexts, object]] = None
        for oracle in oracles:
            if oracle not in ORACLE_NAMES:
                raise ValueError(f"unknown oracle {oracle!r}; "
                                 f"known: {', '.join(ORACLE_NAMES)}")
            try:
                if baseline is None:
                    baseline = self._merged(netlist, modes)
                method = getattr(self, f"_oracle_{oracle}")
                verdict.violations.extend(
                    method(case, netlist, modes, baseline))
                ran.append(oracle)
            except ReproError as exc:
                verdict.rejected = True
                verdict.reject_reason = \
                    f"{type(exc).__name__}: {exc}"[:240]
                break
            except Exception:
                verdict.violations.append(Violation(
                    oracle, "pipeline crash:\n"
                    + traceback.format_exc(limit=4)[-900:]))
                ran.append(oracle)
        verdict.oracles_run = tuple(ran)
        return verdict

    # -- plumbing -------------------------------------------------------
    @staticmethod
    def _options() -> MergeOptions:
        return MergeOptions(policy=DegradationPolicy.LENIENT,
                            signoff_guard=True)

    def _load(self, case: FuzzCase):
        netlist = read_verilog(case.netlist_text)
        collector = DiagnosticCollector(DegradationPolicy.PERMISSIVE)
        modes = [parse_mode(text, name,
                            policy=DegradationPolicy.PERMISSIVE,
                            collector=collector, source=name)
                 for name, text in case.mode_texts]
        return netlist, modes

    def _merged(self, netlist, modes, **kwargs):
        collector = DiagnosticCollector(DegradationPolicy.LENIENT)
        run = merge_all(netlist, list(modes), self._options(),
                        collector=collector, **kwargs)
        texts: MergedTexts = {}
        for outcome in run.outcomes:
            if outcome.result is not None:
                texts[frozenset(outcome.mode_names)] = \
                    write_mode(outcome.result.merged, header=False)
        return texts, run

    @staticmethod
    def _broken(oracle: str, texts: MergedTexts) -> MergedTexts:
        """Apply the test-only corruption hook to a variant run."""
        if os.environ.get(BREAK_ENV, "") != oracle or not texts:
            return texts
        key = sorted(texts, key=sorted)[0]
        corrupted = dict(texts)
        corrupted[key] = texts[key] + _BREAK_MARK + "\n"
        return corrupted

    @staticmethod
    def _diff(oracle: str, base: MergedTexts, variant: MergedTexts,
              label: str) -> List[Violation]:
        violations: List[Violation] = []
        if set(base) != set(variant):
            only_base = [sorted(k) for k in base if k not in variant]
            only_var = [sorted(k) for k in variant if k not in base]
            violations.append(Violation(
                oracle,
                f"merge partition differs {label}: baseline-only groups "
                f"{only_base}, variant-only groups {only_var}",
                tuple(sorted(n for k in base for n in k))))
            return violations
        for key in sorted(base, key=sorted):
            if base[key] != variant[key]:
                violations.append(Violation(
                    oracle,
                    f"merged SDC for group {sorted(key)} differs {label}",
                    tuple(sorted(key))))
        return violations

    # -- the six oracles -----------------------------------------------
    def _oracle_equivalence(self, case, netlist, modes, baseline
                            ) -> List[Violation]:
        _, run = baseline
        by_name = {mode.name: mode for mode in modes}
        violations: List[Violation] = []
        for outcome in run.outcomes:
            if outcome.result is None or len(outcome.mode_names) < 2:
                continue
            candidate = outcome.result.merged
            if os.environ.get(BREAK_ENV, "") == "equivalence":
                text = write_mode(candidate, header=False)
                lines = text.strip().splitlines()
                candidate = parse_mode(
                    "\n".join(lines[:-1]), candidate.name,
                    policy=DegradationPolicy.PERMISSIVE)
            individual = [by_name[name] for name in outcome.mode_names
                          if name in by_name]
            report = check_mode_equivalence(netlist, individual,
                                            candidate)
            if not report.equivalent:
                sample = "; ".join(str(m) for m
                                   in list(report.mismatches)[:3])
                violations.append(Violation(
                    "equivalence",
                    f"merged group {sorted(outcome.mode_names)} fails "
                    f"Section 2 equivalence: {sample}"[:500],
                    tuple(sorted(outcome.mode_names))))
        return violations

    def _oracle_permutation(self, case, netlist, modes, baseline
                            ) -> List[Violation]:
        base, _ = baseline
        shuffled = list(modes)
        stable_rng("fuzz-permutation", case.case_seed).shuffle(shuffled)
        variant, _ = self._merged(netlist, shuffled)
        return self._diff("permutation", base,
                          self._broken("permutation", variant),
                          "under mode-order permutation")

    def _oracle_jobs(self, case, netlist, modes, baseline
                     ) -> List[Violation]:
        base, _ = baseline
        variant, _ = self._merged(netlist, modes, jobs=self.jobs)
        return self._diff("jobs", base, self._broken("jobs", variant),
                          f"between --jobs 1 and --jobs {self.jobs}")

    def _oracle_cache(self, case, netlist, modes, baseline
                      ) -> List[Violation]:
        from repro.cache import ResultCache

        base, _ = baseline
        violations: List[Violation] = []
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") \
                as tmp:
            root = str(Path(tmp) / "cache")
            cold, _ = self._merged(netlist, modes,
                                   cache=ResultCache.open(root))
            violations.extend(self._diff(
                "cache", base, self._broken("cache", cold),
                "between uncached and cold-cache runs"))
            warm, _ = self._merged(netlist, modes,
                                   cache=ResultCache.open(root))
            violations.extend(self._diff(
                "cache", cold, warm,
                "between cold-cache and warm-cache runs"))
        return violations

    def _oracle_checkpoint(self, case, netlist, modes, baseline
                           ) -> List[Violation]:
        from repro.checkpoint import MergeCheckpoint
        from repro.store import content_hash

        base, _ = baseline
        input_hash = content_hash(case.netlist_text,
                                  *(t for _, t in case.mode_texts))
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-ckpt-") \
                as tmp:
            path = Path(tmp) / "run.ckpt"

            def resume(collector=None):
                return self._merged(netlist, modes,
                                    checkpoint=MergeCheckpoint.open(
                                        str(path), input_hash=input_hash,
                                        collector=collector))

            resume()
            # Simulated kill mid-append: keep the header plus roughly
            # half of the completed-group records, then half of the next
            # record's line, exactly what a SIGKILL leaves behind.
            lines = path.read_text().splitlines(keepends=True)
            keep = 1 + max(0, (len(lines) - 1) // 2)
            torn = "".join(lines[keep:keep + 1])
            path.write_text("".join(lines[:keep]) + torn[:len(torn) // 2])
            resumed, _ = resume()
            # The resume recomputed and saved the torn groups: a second
            # resume replays every group from a clean file.
            collector = DiagnosticCollector()
            _, again = resume(collector)
        violations = self._diff("checkpoint", base,
                                self._broken("checkpoint", resumed),
                                "after checkpoint kill/resume")
        if collector.diagnostics \
                or again.restored_count != len(again.outcomes):
            violations.append(Violation(
                "checkpoint",
                f"second resume restored {again.restored_count} of "
                f"{len(again.outcomes)} outcome(s) with diagnostics "
                f"{[d.code for d in collector.diagnostics]}",
                tuple(sorted(m.name for m in modes))))
        return violations

    def _oracle_scan(self, case, netlist, modes, baseline
                     ) -> List[Violation]:
        """The baseline run's staged scan against the full mock merge."""
        analysis = baseline[1].analysis
        options = self._options()
        broken = os.environ.get(BREAK_ENV, "") == "scan"
        violations: List[Violation] = []
        for index, mode_a in enumerate(modes):
            for mode_b in modes[index + 1:]:
                ok = analysis.mergeable(mode_a.name, mode_b.name)
                reason = analysis.reason(mode_a.name, mode_b.name)
                if broken:
                    ok, broken = not ok, False
                full_ok, full_reason, raised = full_mock_merge(
                    netlist, mode_a, mode_b, options)
                if ok == full_ok and (raised or reason == full_reason):
                    continue
                violations.append(Violation(
                    "scan",
                    f"pair {mode_a.name}/{mode_b.name}: staged scan says "
                    f"{ok} ({reason!r}), full mock merge says {full_ok} "
                    f"({full_reason!r})"[:500],
                    tuple(sorted((mode_a.name, mode_b.name)))))
        return violations
