"""Mergeability analysis and merge-group selection (paper Section 3,
Figure 2).

Which modes can merge?  A *mock run of preliminary mode merging* per mode
pair detects the disqualifiers the paper lists: constraints with
incompatible values (out-of-tolerance clock/drive/load constraints,
non-recoverable exceptions) and clock unions that would *block* one mode's
clocking (a register clocked in an individual mode losing that clock in
the merged mode).  Mergeable pairs form the **mergeability graph**; merge
groups are its cliques, found greedily ("as the number of modes is
small").
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from functools import partial
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.case_analysis import merge_case_analysis
from repro.core.clock_constraints import merge_clock_constraints
from repro.core.clock_groups import merge_clock_exclusivity
from repro.core.clock_refinement import refine_clock_network
from repro.core.clock_union import merge_clocks
from repro.core.disable_timing import merge_disable_timing
from repro.core.drive_load import merge_drive_load
from repro.core.exceptions_merge import merge_exceptions
from repro.core.external_delays import merge_external_delays
from repro.core.merger import MergeOptions, MergeResult, merge_modes
from repro.core.steps import MergeContext
from repro.diagnostics import (
    DegradationPolicy,
    Diagnostic,
    DiagnosticCollector,
    Severity,
)
from repro.errors import BudgetExceededError, MergeStepError
from repro.exec.supervisor import Supervisor, SupervisorConfig
from repro.netlist.netlist import Netlist
from repro.obs.explain import (
    get_decisions,
    group_subject,
    muted,
    pair_subject,
)
from repro.obs.metrics import get_metrics
from repro.obs.observer import current, observing, wire
from repro.obs.trace import get_tracer
from repro.sdc.mode import Mode
from repro.store import group_key, key_space, mode_fingerprint, pair_key
from repro.timing.clocks import ClockPropagation


def _preliminary_merge(netlist: Netlist, modes: Sequence[Mode],
                       options: MergeOptions) -> MergeContext:
    """Run only the Section 3.1 steps (the paper's "mock run")."""
    context = MergeContext(netlist, list(modes))
    merge_clocks(context)
    merge_clock_constraints(context, options.tolerance)
    merge_external_delays(context)
    merge_case_analysis(context)
    merge_disable_timing(context)
    merge_drive_load(context, options.tolerance)
    merge_clock_exclusivity(context)
    refine_clock_network(context)
    merge_exceptions(context)
    return context


def clock_blocking_reason(context: MergeContext) -> Optional[str]:
    """Detect clocks that get blocked by the union (non-mergeable signal).

    For every register clocked by clock ``c`` in an individual mode, the
    merged mode must clock it with ``map(c)``; otherwise merging the clock
    trees of the modes has blocked one mode's clocking.
    """
    merged_prop = ClockPropagation(context.bind_merged())
    for mode, bound in zip(context.modes, context.bound_individuals()):
        mapping = context.clock_maps[mode.name]
        prop = bound.clock_propagation()
        for inst_name, clocks in prop.register_clocks.items():
            merged_clocks = merged_prop.register_clocks.get(inst_name, set())
            for clock_name in clocks:
                mapped = mapping.get(clock_name, clock_name)
                if mapped not in merged_clocks:
                    return (f"clock {clock_name} of mode {mode.name} is "
                            f"blocked from register {inst_name} in the "
                            f"merged mode")
    return None


def pair_mergeable(netlist: Netlist, mode_a: Mode, mode_b: Mode,
                   options: Optional[MergeOptions] = None
                   ) -> Tuple[bool, str]:
    """Mock-merge two modes; (mergeable?, reason when not).

    The steps that can record a conflict run first, in paper order —
    clock union and clock constraints (3.1.2), then drive/load (3.1.6) —
    and the pair is rejected at the first of them that conflicts: on
    design A that is 4157 of the 4465 pairs.  Only the survivors run
    the remaining Section 3.1 steps, exception merging (3.1.9, the last
    step that records conflicts), and the merged-mode bindings of clock
    refinement and the clock-blocking check.  The drive/load reason
    reads nothing the skipped steps merge, so the first conflict — the
    verdict and the reason — equals that of the full mock merge
    (:func:`_preliminary_merge` plus :func:`clock_blocking_reason`).
    """
    opts = options or MergeOptions()
    # Mock merges must not pollute the decision ledger: the scan's own
    # pair verdicts are the queryable record, and the serial and pooled
    # paths must produce identical ledgers.
    with muted():
        try:
            context = MergeContext(netlist, [mode_a, mode_b])
            merge_clocks(context)
            merge_clock_constraints(context, opts.tolerance)
            if not context.all_conflicts():
                merge_drive_load(context, opts.tolerance)
            if not context.all_conflicts():
                merge_external_delays(context)
                merge_case_analysis(context)
                merge_disable_timing(context)
                merge_clock_exclusivity(context)
                merge_exceptions(context)
        except Exception as exc:  # malformed constraints etc.
            return False, f"preliminary merge failed: {exc}"
        conflicts = context.all_conflicts()
        if conflicts:
            return False, str(conflicts[0])
        try:
            refine_clock_network(context)
        except Exception as exc:
            return False, f"clock refinement failed: {exc}"
        conflicts = context.all_conflicts()
        if conflicts:
            return False, str(conflicts[0])
        blocked = clock_blocking_reason(context)
        if blocked:
            return False, blocked
    return True, ""


@dataclass
class MergeabilityAnalysis:
    """The mergeability graph and the merge groups chosen from it."""

    graph: nx.Graph
    groups: List[List[str]]
    reasons: Dict[FrozenSet[str], str] = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def mergeable(self, mode_a: str, mode_b: str) -> bool:
        return self.graph.has_edge(mode_a, mode_b)

    def reason(self, mode_a: str, mode_b: str) -> str:
        return self.reasons.get(frozenset((mode_a, mode_b)), "")

    def summary(self) -> str:
        lines = [
            f"mergeability graph: {self.graph.number_of_nodes()} modes, "
            f"{self.graph.number_of_edges()} mergeable pairs",
            f"merge groups: "
            + ", ".join("{" + ", ".join(g) + "}" for g in self.groups),
        ]
        return "\n".join(lines)


def _scan_pair(netlist, modes, options, pair):
    """One scan task: ``(i, j, mergeable?, reason)`` for ``modes[i]``,
    ``modes[j]``.  The scan binds the design with :func:`functools.partial`;
    forked workers inherit the function, so nothing is pickled and no
    module state outlives the run or is shared between threads."""
    i, j = pair
    ok, reason = pair_mergeable(netlist, modes[i], modes[j], options)
    return i, j, ok, reason


def _engine_config(options: MergeOptions, jobs: int,
                   propagate: bool) -> SupervisorConfig:
    """The supervisor tuning one mergeability/merge batch runs under.

    The per-task deadline is ``exec_deadline_seconds`` when set;
    otherwise it derives from the watchdog budget — a group merge is
    bounded by ``budget_seconds``, so a pooled worker that has run for
    twice that (plus slack) is hung, not slow.  With neither set, tasks
    have no deadline (crash containment and retry still apply).
    """
    deadline = options.exec_deadline_seconds
    if deadline is None and options.budget_seconds:
        deadline = 2.0 * options.budget_seconds + 1.0
    return SupervisorConfig(jobs=jobs, deadline_seconds=deadline,
                            max_attempts=options.exec_max_attempts,
                            propagate_errors=propagate,
                            stop_event=options.exec_stop_event,
                            slot_gate=options.exec_slot_gate,
                            gate_client=options.exec_gate_client)


def _scan_payload_error(value) -> str:
    """Reject malformed pairwise-scan results (corrupt-payload guard)."""
    if (isinstance(value, tuple) and len(value) == 4
            and isinstance(value[2], bool)):
        return ""
    return f"malformed scan payload {value!r}"


def build_mergeability_graph(netlist: Netlist, modes: Sequence[Mode],
                             options: Optional[MergeOptions] = None,
                             jobs: int = 1,
                             collector: Optional[DiagnosticCollector] = None,
                             cache=None) -> MergeabilityAnalysis:
    """Pairwise mock merges -> mergeability graph -> greedy clique groups.

    ``jobs > 1`` distributes the O(#modes^2) mock merges over the
    supervised execution engine (the paper ran its engine on 4 cores):
    a hung, crashed, or corrupted pair check is retried and, as a last
    resort, the pair is conservatively recorded non-mergeable with an
    ``EXE`` diagnostic — a pool failure can no longer crash the scan.
    Falls back to serial on platforms without ``fork``.  Results are
    flushed in submission order, so the graph (and everything downstream)
    is identical at any job count.

    ``cache`` (a :class:`~repro.cache.ResultCache`) memoizes per-pair
    verdicts by content fingerprint: pairs with a verified entry skip
    the mock merge entirely (``cache.pair_hits``), and only pairs that
    actually ran count into ``mergeability.pairs_scanned`` — editing
    one mode re-scans only its own pairs.  Engine-failure fallbacks are
    never cached (they describe the run, not the content).
    """
    start = time.perf_counter()
    tracer = get_tracer()
    metrics = get_metrics()
    ledger = get_decisions()
    graph = nx.Graph()
    reasons: Dict[FrozenSet[str], str] = {}
    for mode in modes:
        graph.add_node(mode.name)
    mode_list = list(modes)
    pairs = [(i, j) for i in range(len(mode_list))
             for j in range(i + 1, len(mode_list))]

    with tracer.span("mergeability", modes=[m.name for m in mode_list],
                     pairs=len(pairs), jobs=jobs), \
            ledger.frame("mergeability.scan",
                         f"scan:{len(mode_list)} modes",
                         modes=[m.name for m in mode_list]):
        cached: Dict[Tuple[int, int], Tuple[bool, str]] = {}
        pair_keys: Dict[Tuple[int, int], str] = {}
        pair_labels: Dict[Tuple[int, int], str] = {}
        if cache is not None and cache.enabled and pairs:
            space = key_space(netlist, options or MergeOptions())
            fingerprints = [mode_fingerprint(m) for m in mode_list]
            items = []
            for i, j in pairs:
                pair_keys[(i, j)] = pair_key(
                    space, fingerprints[i], fingerprints[j])
                pair_labels[(i, j)] = pair_subject(
                    mode_list[i].name, mode_list[j].name)
                items.append((pair_keys[(i, j)], pair_labels[(i, j)]))
            for pair, payload in zip(pairs, cache.lookup_pairs(items)):
                if payload is not None:
                    cached[pair] = payload
        pending = [pair for pair in pairs if pair not in cached]

        computed: Dict[Tuple[int, int], Tuple[int, int, bool, str]] = {}
        fresh: List[Tuple[str, str, bool, str]] = []
        if pending:
            supervisor = Supervisor(
                _engine_config(options or MergeOptions(), jobs,
                               propagate=False),
                collector=collector)
            keys = ["scan:" + "+".join(sorted((mode_list[i].name,
                                               mode_list[j].name)))
                    for i, j in pending]
            outcomes = supervisor.run(
                partial(_scan_pair, netlist, mode_list, options),
                [(pair,) for pair in pending], keys=keys,
                validate=_scan_payload_error,
                label="mergeability.scan")
            for outcome, (i, j) in zip(outcomes, pending):
                if outcome.ok:
                    computed[(i, j)] = tuple(outcome.value)
                    if (i, j) in pair_keys:
                        fresh.append((pair_keys[(i, j)],
                                      pair_labels[(i, j)],
                                      outcome.value[2],
                                      outcome.value[3]))
                else:
                    # An engine failure must never escape the scan: an
                    # unanswerable pair is conservatively non-mergeable.
                    computed[(i, j)] = (i, j, False,
                                        f"mergeability check failed: "
                                        f"{outcome.error}")
        metrics.inc("mergeability.pairs_scanned", len(pending))
        if pending:
            # One mock merge per scanned pair, counted here rather than
            # in a (possibly forked) worker: the same total at any jobs.
            metrics.inc("profile.mock_merges", len(pending))
        if fresh and cache is not None:
            cache.store_pairs(fresh)

        results = [(i, j) + tuple(cached[(i, j)])
                   if (i, j) in cached else computed[(i, j)]
                   for i, j in pairs]
        for i, j, ok, reason in results:
            name_i, name_j = mode_list[i].name, mode_list[j].name
            if ok:
                graph.add_edge(name_i, name_j)
            else:
                reasons[frozenset((name_i, name_j))] = reason
            if ledger.enabled:
                ledger.decide(
                    "mergeability.pair", pair_subject(name_i, name_j),
                    verdict="mergeable" if ok else "rejected",
                    evidence=[reason] if reason else [],
                    modes=[name_i, name_j])
        with tracer.span("clique_cover"):
            groups = greedy_clique_cover(graph)
        if ledger.enabled:
            for group in groups:
                members = list(group)
                edges = sum(
                    1 for a in members for b in members
                    if a < b and graph.has_edge(a, b))
                ledger.decide(
                    "mergeability.group", group_subject(members),
                    verdict="assigned",
                    evidence=[f"clique of {len(members)} mode(s) with "
                              f"{edges} mergeable pair(s)"],
                    modes=members)
        metrics.inc("mergeability.pairs_checked", len(pairs))
        metrics.inc("mergeability.pairs_mergeable",
                    graph.number_of_edges())
        metrics.inc("mergeability.groups", len(groups))
        if tracer.enabled:
            tracer.annotate(mergeable_pairs=graph.number_of_edges(),
                            groups=len(groups))
    return MergeabilityAnalysis(
        graph=graph,
        groups=groups,
        reasons=reasons,
        runtime_seconds=time.perf_counter() - start,
    )


def greedy_clique_cover(graph: nx.Graph) -> List[List[str]]:
    """Cover the graph's vertices with cliques, greedily.

    Repeatedly seed a clique at the highest-degree unassigned vertex and
    grow it with the candidate that keeps the most common neighbours —
    the paper's "greedy algorithm as the number of modes is small".
    """
    remaining: Set[str] = set(graph.nodes)
    cliques: List[List[str]] = []
    while remaining:
        seed = max(sorted(remaining),
                   key=lambda v: sum(1 for u in graph.neighbors(v)
                                     if u in remaining))
        clique = [seed]
        candidates = {u for u in graph.neighbors(seed) if u in remaining}
        while candidates:
            best = max(sorted(candidates), key=lambda v: sum(
                1 for u in graph.neighbors(v) if u in candidates))
            clique.append(best)
            candidates &= set(graph.neighbors(best))
            candidates.discard(best)
        cliques.append(sorted(clique))
        remaining -= set(clique)
    cliques.sort(key=lambda c: (-len(c), c))
    return cliques


@dataclass
class GroupOutcome:
    """Result of merging one clique of modes."""

    mode_names: List[str]
    result: Optional[MergeResult] = None
    error: str = ""
    #: the sign-off guard changed something to produce this outcome
    repaired: bool = False
    #: this outcome was replayed from a checkpoint, not recomputed
    restored: bool = False

    @property
    def merged(self) -> bool:
        return self.result is not None and len(self.mode_names) > 1


@dataclass
class MergingRun:
    """Full design-level run: analysis plus one merge per group."""

    analysis: MergeabilityAnalysis
    outcomes: List[GroupOutcome] = field(default_factory=list)
    runtime_seconds: float = 0.0
    #: structured findings recorded while running under a recovery policy
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: the run's slice of the ambient decision ledger (empty unless a
    #: :class:`~repro.obs.explain.DecisionLedger` was installed); query
    #: with :func:`repro.obs.explain.explain`
    decision_records: List = field(default_factory=list)

    @property
    def failed_outcomes(self) -> List[GroupOutcome]:
        """Groups that produced no merged mode (reason in ``.error``)."""
        return [o for o in self.outcomes if o.result is None]

    @property
    def repaired_count(self) -> int:
        """Outcomes the sign-off guard had to repair."""
        return sum(1 for o in self.outcomes if o.repaired)

    @property
    def restored_count(self) -> int:
        """Outcomes replayed from a checkpoint."""
        return sum(1 for o in self.outcomes if o.restored)

    @property
    def individual_count(self) -> int:
        return sum(len(o.mode_names) for o in self.outcomes)

    @property
    def merged_count(self) -> int:
        return len(self.outcomes)

    @property
    def reduction_percent(self) -> float:
        n = self.individual_count
        if n == 0:
            return 0.0
        return 100.0 * (n - self.merged_count) / n

    def merged_modes(self) -> List[Mode]:
        """The final mode list: merged supersets plus untouched singles."""
        modes: List[Mode] = []
        for outcome in self.outcomes:
            if outcome.result is not None:
                modes.append(outcome.result.merged)
        return modes

    def to_dict(self) -> dict:
        """JSON-serializable record of the whole run."""
        return {
            "individual_modes": self.individual_count,
            "merged_modes": self.merged_count,
            "reduction_percent": round(self.reduction_percent, 3),
            "runtime_seconds": round(self.runtime_seconds, 6),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "groups": [
                {
                    "modes": list(outcome.mode_names),
                    "merged": outcome.merged,
                    "error": outcome.error,
                    "repaired": outcome.repaired,
                    "restored": outcome.restored,
                    "result": outcome.result.to_dict()
                    if outcome.result else None,
                }
                for outcome in self.outcomes
            ],
            "mergeable_pairs": self.analysis.graph.number_of_edges(),
            "non_mergeable_reasons": {
                "|".join(sorted(pair)): reason
                for pair, reason in self.analysis.reasons.items()
            },
            "decisions": [d.to_dict() for d in self.decision_records],
        }

    def explain(self, query: str):
        """Causal chains for the run's decisions matching ``query``.

        Convenience wrapper over :func:`repro.obs.explain.explain`;
        empty unless the run executed under an installed
        :class:`~repro.obs.explain.DecisionLedger`.
        """
        from repro.obs.explain import explain as _explain

        return _explain(self.decision_records, query)

    def summary(self) -> str:
        lines = [self.analysis.summary()]
        lines.append(
            f"modes: {self.individual_count} -> {self.merged_count} "
            f"({self.reduction_percent:.1f}% reduction) in "
            f"{self.runtime_seconds:.2f}s")
        for outcome in self.outcomes:
            if outcome.merged:
                lines.append(f"  merged {{{', '.join(outcome.mode_names)}}}")
            elif outcome.error:
                lines.append(f"  kept individual {outcome.mode_names} "
                             f"({outcome.error})")
        if self.diagnostics:
            lines.append(f"  {len(self.diagnostics)} diagnostics recorded "
                         f"(see run.diagnostics)")
        return "\n".join(lines)


def _group_task(netlist, by_name, options, names):
    """Merge one analysis group inside a forked worker.

    The parent binds the design with :func:`functools.partial` (like
    :func:`_scan_pair`), so no module state pins it after the run.

    The worker installs a *fresh* observer with the collectors the
    parent has enabled — the forked copies of the parent's would die
    with the process — runs the same :func:`run_merge_group` the serial
    path uses, and ships everything back as plain JSON-ready data:
    serialized outcomes (the checkpoint representation, whose SDC
    round-trip is proven byte-identical), diagnostics, and the
    observer's :meth:`~repro.obs.observer.Observer.payload` for the
    parent to fold into its own.
    """
    from repro.checkpoint import serialize_outcome

    parent = current()
    observer = wire(trace=parent.tracer.enabled,
                    metrics=parent.metrics.enabled,
                    explain=parent.decisions.enabled,
                    profile=parent.profiler.enabled)
    sink = DiagnosticCollector()
    with observing(observer):
        observer.profiler.start()
        try:
            outcomes = run_merge_group(netlist, by_name, list(names),
                                       options, sink)
        finally:
            observer.profiler.stop()
    return {
        "outcomes": [serialize_outcome(o) for o in outcomes],
        "diagnostics": [d.to_dict() for d in sink.diagnostics],
        "obs": observer.payload(),
    }


def _group_payload_error(value) -> str:
    """Reject malformed worker bundles (corrupt-payload guard)."""
    if isinstance(value, dict) and "outcomes" in value:
        return ""
    return f"malformed group-merge payload of type {type(value).__name__}"


def _direct_payload_error(value) -> str:
    if isinstance(value, list):
        return ""
    return f"malformed group-merge payload of type {type(value).__name__}"


def run_merge_group(netlist: Netlist, by_name: Dict[str, Mode],
                    names: List[str], options: MergeOptions,
                    sink: DiagnosticCollector) -> List[GroupOutcome]:
    """Merge one analysis group with the full recovery ladder.

    This is the unit of work the execution engine schedules: it opens
    the group's trace span and ``merge.group`` decision frame itself, so
    a group merged in a forked worker records exactly the decision shape
    a serially merged group does.  ``options`` is the already-coerced
    per-group tunables (``strict=False``); the ladder is unchanged from
    the historical in-line closures: merge -> sign-off guard -> demote
    the single culprit -> degrade a budget-blown group whole -> bisect.
    Every input mode ends in exactly one returned outcome.
    """
    policy = DegradationPolicy.coerce(options.policy)
    ledger = get_decisions()
    tracer = get_tracer()
    outcomes: List[GroupOutcome] = []

    def try_merge(group_names: List[str]) -> MergeResult:
        group_modes = [by_name[n] for n in group_names]
        name = group_names[0] if len(group_names) == 1 else None
        return merge_modes(netlist, group_modes, name=name,
                           options=options)

    def guard_group(group_names: List[str], failed: MergeResult) -> bool:
        """Sign-off guard hook; True when it produced final outcomes."""
        from repro.core.signoff import SignoffGuard

        guard = SignoffGuard(netlist, [by_name[n] for n in group_names],
                             options, sink)
        repaired = guard.repair_group(group_names, failed)
        if repaired is None:
            return False
        for outcome in repaired:
            outcomes.append(GroupOutcome(
                outcome.mode_names, outcome.result, error=outcome.error,
                repaired=outcome.repaired))
        return True

    def merge_group(group_names: List[str]) -> None:
        try:
            result = try_merge(group_names)
        except Exception as exc:
            if policy is DegradationPolicy.STRICT:
                raise
            recover_group(group_names, exc)
            return
        if len(group_names) == 1 or result.ok:
            outcomes.append(GroupOutcome(group_names, result))
            return
        if options.signoff_guard and guard_group(group_names, result):
            return
        half = len(group_names) // 2
        merge_group(group_names[:half])
        merge_group(group_names[half:])

    def budget_exceeded(exc: BaseException) -> Optional[BudgetExceededError]:
        if isinstance(exc, BudgetExceededError):
            return exc
        if isinstance(exc, MergeStepError) \
                and isinstance(exc.cause, BudgetExceededError):
            return exc.cause
        return None

    def recover_group(group_names: List[str], exc: BaseException) -> None:
        """Demote the offending mode(s) instead of aborting the run."""
        reason = str(exc)
        if len(group_names) == 1:
            # An individual mode whose (re)construction fails: keep the
            # failure as a structured outcome, never an exception.
            sink.capture(exc, source=group_names[0])
            outcomes.append(GroupOutcome(group_names, None, error=reason))
            return
        budget_exc = budget_exceeded(exc)
        if budget_exc is not None:
            # Retrying a budget-blown merge once per member would cost
            # up to N more full budgets; degrade the group wholesale.
            sink.report(
                "SGN006",
                f"group {{{', '.join(group_names)}}} exceeded its "
                f"{budget_exc.kind} budget ({budget_exc}); keeping its "
                f"modes individual",
                severity=Severity.WARNING, source="+".join(group_names))
            ledger.decide(
                "merge.budget", group_subject(group_names),
                verdict="degraded",
                evidence=[f"{budget_exc.kind} budget exceeded: "
                          f"{budget_exc}"],
                modes=group_names, budget_kind=budget_exc.kind)
            for name in group_names:
                merge_group([name])
            return
        for i, culprit in enumerate(group_names):
            survivors = group_names[:i] + group_names[i + 1:]
            try:
                try_merge(survivors)
            except Exception:
                continue
            sink.report(
                "MRG002",
                f"mode {culprit!r} demoted from group "
                f"{{{', '.join(group_names)}}}: {reason}",
                severity=Severity.WARNING, source=culprit)
            ledger.decide(
                "merge.demotion", f"mode:{culprit}",
                verdict="demoted",
                evidence=[f"group without {culprit!r} merges cleanly",
                          reason],
                modes=group_names, culprit=culprit)
            merge_group(survivors)
            merge_group([culprit])
            return
        # No single demotion rescues the group: bisect.
        sink.report(
            "MRG001",
            f"group {{{', '.join(group_names)}}} failed to merge "
            f"({reason}); bisecting",
            severity=Severity.WARNING)
        half = len(group_names) // 2
        merge_group(group_names[:half])
        merge_group(group_names[half:])

    with tracer.span(f"group:{'+'.join(names)}", modes=names), \
            ledger.frame("merge.group", group_subject(names),
                         modes=names):
        merge_group(list(names))
    return outcomes


def merge_all(netlist: Netlist, modes: Sequence[Mode],
              options: Optional[MergeOptions] = None,
              analysis: Optional[MergeabilityAnalysis] = None,
              collector: Optional[DiagnosticCollector] = None,
              checkpoint: Optional["MergeCheckpoint"] = None,
              jobs: int = 1, cache=None) -> MergingRun:
    """The end-to-end flow: analyze mergeability, then merge every group.

    A group whose full merge fails (rare: pairwise mergeability is not
    transitive) is bisected until its sub-groups merge cleanly.

    Under a recovery policy (``options.policy`` LENIENT / PERMISSIVE) a
    merge step that *raises* no longer aborts the run: the offending
    mode is demoted from its group — mirroring the paper's mock-merge
    fallback of giving non-mergeable modes their own group — the
    survivors are re-merged, and a diagnostic is recorded.  A failed
    group never takes down sibling groups; the invariant is that every
    input mode ends in exactly one outcome, either merged or kept
    individual with a reason.

    With ``options.signoff_guard`` a group that merges but fails its
    equivalence validation is handed to the
    :class:`~repro.core.signoff.SignoffGuard`, which localizes the
    culprit mode/constraint and repairs the merge (``SGN`` diagnostics)
    before the plain bisection fallback runs.

    A group that exceeds its :class:`~repro.core.watchdog.WatchdogBudget`
    raises under STRICT and is *demoted whole* under a recovery policy —
    its modes are kept individual (``SGN006``) rather than retrying the
    expensive merge once per member.

    ``checkpoint`` (a :class:`~repro.checkpoint.MergeCheckpoint`) makes
    the run resumable: every completed analysis group is serialized
    immediately, and groups whose content hash still matches are
    replayed from the file instead of recomputed.  A checkpoint save
    that fails with an :class:`OSError` (full disk) degrades the run to
    unpersisted (``CAC005``) instead of crashing it.

    ``cache`` (a :class:`~repro.cache.ResultCache`) memoizes completed
    group merges *across* runs, keyed by mode content: a group whose
    sorted mode fingerprints match a verified cache entry is restored
    (``restored=True``, ``CAC006``, decision kind ``cache.hit``)
    without recomputation, and — when a checkpoint is also open — is
    recorded straight into it so the two layers compose.  Only
    cleanly-computed groups are stored; engine-failure demotions are
    never cached.

    ``jobs > 1`` distributes the independent group merges (and, when the
    analysis is built here, the pairwise scan) over the supervised
    execution engine: per-task deadlines, bounded retry, crash isolation
    and serial degradation, with results flushed strictly in analysis
    order — a parallel run's outcomes, SDC output and decision ledger
    are identical to a serial run's.  Under ``STRICT`` policy a task
    failure propagates (in-process with its original exception type,
    from a pooled worker as a
    :class:`~repro.errors.TaskFailedError`); under a recovery policy a
    group whose task fails even after retries is demoted to individual
    modes with ``EXE``/``MRG002`` diagnostics.
    """
    opts = options or MergeOptions()
    policy = DegradationPolicy.coerce(opts.policy)
    sink = collector if collector is not None else DiagnosticCollector()
    first_diag = len(sink)
    ledger = get_decisions()
    # Mark before the analysis: pair/group verdicts recorded inside
    # build_mergeability_graph belong to this run's decision slice.
    first_dec = len(ledger.records) if ledger.enabled else 0
    start = time.perf_counter()
    if analysis is None:
        analysis = build_mergeability_graph(netlist, modes, opts,
                                            jobs=jobs, collector=sink,
                                            cache=cache)
    by_name = {mode.name: mode for mode in modes}
    run = MergingRun(analysis=analysis)

    group_opts = MergeOptions(
        tolerance=opts.tolerance,
        max_iterations=opts.max_iterations,
        strict=False,
        validate=opts.validate,
        policy=policy,
        budget_seconds=opts.budget_seconds,
        max_refinement_passes=opts.max_refinement_passes,
        max_clock_graph_nodes=opts.max_clock_graph_nodes,
        signoff_guard=opts.signoff_guard,
        max_repair_attempts=opts.max_repair_attempts,
        exec_deadline_seconds=opts.exec_deadline_seconds,
        exec_max_attempts=opts.exec_max_attempts,
        exec_stop_event=opts.exec_stop_event,
        exec_slot_gate=opts.exec_slot_gate,
        exec_gate_client=opts.exec_gate_client,
    )

    from repro.checkpoint import MergeCheckpoint as _Checkpoint
    from repro.checkpoint import serialize_outcome

    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("merge_all", groups=len(analysis.groups),
                     modes=len(list(modes))):
        # Plan every analysis group up front (checkpoint and cache
        # lookups included), then flush results strictly in analysis
        # order — the cursor only advances over a group whose work is
        # done, so the outcome/diagnostic/decision sequence is identical
        # at any job count and any completion order.
        use_cache = cache is not None and cache.enabled
        space = ""
        mode_fps: Dict[str, str] = {}
        if checkpoint is not None or use_cache:
            # One content key per group serves both resume layers: the
            # checkpoint's staleness hash and the cache's entry name.
            space = key_space(netlist, group_opts)
            mode_fps = {name: mode_fingerprint(mode)
                        for name, mode in by_name.items()}
        plans: List[dict] = []
        for group in analysis.groups:
            names = list(group)
            key = "+".join(names)
            group_hash = group_key(space, [mode_fps[n] for n in names]) \
                if space else ""
            entry = None if checkpoint is None \
                else checkpoint.lookup(key, group_hash)
            source = "checkpoint"
            if entry is None and use_cache:
                # The checkpoint already replays this group; only
                # consult the cross-run cache when it does not.
                entry = cache.lookup_group(group_hash, group_subject(names),
                                           modes=names)
                source = "cache"
            plans.append({"names": names, "key": key, "hash": group_hash,
                          "entry": entry, "source": source,
                          "outcome": None, "done": False})
        pending = [plan for plan in plans if plan["entry"] is None]
        state = {"cursor": 0, "diag_cursor": len(sink.diagnostics)}
        ckpt_state = {"down": False}

        def save_checkpoint() -> None:
            # A full disk (ENOSPC) mid-run must degrade to an
            # unpersisted checkpoint, never a traceback.
            if checkpoint is None or ckpt_state["down"]:
                return
            try:
                checkpoint.save()
            except OSError as exc:
                ckpt_state["down"] = True
                sink.report(
                    "CAC005",
                    f"checkpoint save failed ({exc}); this run's groups "
                    f"will recompute on a resumed run",
                    severity=Severity.WARNING,
                    source=str(checkpoint.path))

        def persist(plan: dict, outcomes_serialized,
                    diagnostics_serialized, store_cache: bool) -> None:
            """Record one finished group into the resume layers."""
            if checkpoint is not None:
                checkpoint.record_serialized(
                    plan["key"], plan["hash"], outcomes_serialized,
                    diagnostics_serialized)
                save_checkpoint()
            if store_cache and use_cache:
                cache.store_group(
                    plan["hash"], group_subject(plan["names"]),
                    outcomes_serialized, diagnostics_serialized)

        def replay(plan: dict, entry: dict, source: str) -> None:
            """Rebuild one group's outcomes from a serialized entry.

            ``source`` names where the entry came from, and only that
            adds anything: a ``checkpoint`` replay reports ``SGN007``
            and a ``checkpoint.restore`` decision; a ``cache`` replay
            reports ``CAC006`` (its ``cache.hit`` decision was recorded
            at lookup time); a ``worker`` entry is a ``jobs > 1`` bundle
            whose observability payloads are folded in.  Cache and
            worker entries are recorded through into the open
            checkpoint, and worker entries into the cache.
            """
            names = plan["names"]
            restored = source != "worker"
            # A worker bundle carries its own merge.group frame.
            frame = ledger.frame("merge.group", group_subject(names),
                                 modes=names) if restored \
                else nullcontext()
            with tracer.span(f"group:{plan['key']}", modes=names), frame:
                diagnostics = _Checkpoint.restore_diagnostics(entry)
                if restored:
                    sink.extend(diagnostics)
                else:
                    current().fold(entry["obs"])
                    # The worker already bridged its diagnostics into
                    # its own ledger and metrics: re-adding them through
                    # the collector would double-count.
                    sink.diagnostics.extend(diagnostics)
                for stored in entry["outcomes"]:
                    o_names, o_result, o_error, o_repaired = \
                        _Checkpoint.restore_outcome(stored)
                    run.outcomes.append(GroupOutcome(
                        o_names, o_result, error=o_error,
                        repaired=o_repaired, restored=restored))
                if source == "checkpoint":
                    sink.report(
                        "SGN007",
                        f"group {{{', '.join(names)}}} restored from "
                        f"checkpoint",
                        severity=Severity.INFO, source=plan["key"])
                    ledger.decide(
                        "checkpoint.restore", group_subject(names),
                        verdict="restored",
                        evidence=[f"content hash {plan['hash'][:12]} "
                                  f"matched checkpoint"],
                        modes=names)
                    if tracer.enabled:
                        tracer.annotate(restored=True)
                elif source == "cache":
                    sink.report(
                        "CAC006",
                        f"group {{{', '.join(names)}}} restored from the "
                        f"result cache",
                        severity=Severity.INFO, source=plan["key"])
                    if tracer.enabled:
                        tracer.annotate(restored=True, cached=True)
            if source != "checkpoint":
                persist(plan, entry["outcomes"],
                        entry.get("diagnostics", []),
                        store_cache=not restored)

        def demote(plan: dict, task_outcome) -> List[GroupOutcome]:
            """A group whose engine task failed even after retries:
            demote it to individual modes instead of losing the run."""
            names = plan["names"]
            with tracer.span(f"group:{'+'.join(names)}", modes=names), \
                    ledger.frame("merge.group", group_subject(names),
                                 modes=names):
                sink.report(
                    "MRG002",
                    f"group {{{', '.join(names)}}} demoted to individual "
                    f"modes after an execution failure: "
                    f"{task_outcome.error}",
                    severity=Severity.WARNING, source=plan["key"])
                ledger.decide(
                    "merge.demotion", group_subject(names),
                    verdict="demoted", evidence=[task_outcome.error],
                    modes=names)
            produced: List[GroupOutcome] = []
            for name in names:
                produced.extend(run_merge_group(
                    netlist, by_name, [name], group_opts, sink))
            run.outcomes.extend(produced)
            return produced

        def apply(plan: dict) -> None:
            task_outcome = plan["outcome"]
            if jobs > 1 and task_outcome.ok:
                replay(plan, task_outcome.value, "worker")
                return
            if task_outcome.ok:
                produced = list(task_outcome.value)
                run.outcomes.extend(produced)
            else:
                produced = demote(plan, task_outcome)
            if checkpoint is not None or (use_cache and task_outcome.ok):
                serialized = [serialize_outcome(o) for o in produced]
                diags = [d.to_dict() for d in
                         sink.diagnostics[state["diag_cursor"]:]]
                # Engine-failure demotions describe this run's
                # environment, not the modes' content: checkpoint them
                # (same-run resume) but never cache them across runs.
                persist(plan, serialized, diags,
                        store_cache=task_outcome.ok)

        def flush() -> None:
            while state["cursor"] < len(plans):
                plan = plans[state["cursor"]]
                if plan["entry"] is not None:
                    replay(plan, plan["entry"], plan["source"])
                elif plan["done"]:
                    apply(plan)
                else:
                    break
                state["cursor"] += 1
                state["diag_cursor"] = len(sink.diagnostics)
                if opts.progress is not None:
                    opts.progress(state["cursor"], len(plans))

        flush()  # leading restored groups
        if pending:
            by_index = {i: plan for i, plan in enumerate(pending)}

            def on_result(task_outcome) -> None:
                plan = by_index[task_outcome.index]
                plan["outcome"] = task_outcome
                plan["done"] = True
                flush()

            supervisor = Supervisor(
                _engine_config(group_opts, jobs,
                               propagate=(policy
                                          is DegradationPolicy.STRICT)),
                collector=sink)
            keys = [f"group:{plan['key']}" for plan in pending]
            tasks = [(plan["names"],) for plan in pending]
            if jobs > 1:
                supervisor.run(
                    partial(_group_task, netlist, by_name, group_opts),
                    tasks, keys=keys,
                    validate=_group_payload_error,
                    label="merge.groups", on_result=on_result)
            else:
                def direct(names):
                    return run_merge_group(netlist, by_name, list(names),
                                           group_opts, sink)

                supervisor.run(
                    direct, tasks, keys=keys,
                    validate=_direct_payload_error,
                    label="merge.groups", on_result=on_result)
        flush()  # trailing restored groups
        if metrics.enabled:
            metrics.inc("merge.modes_in", run.individual_count)
            metrics.inc("merge.modes_out", run.merged_count)
            metrics.inc("merge.groups_merged",
                        sum(1 for o in run.outcomes if o.merged))
            metrics.set_gauge("merge.reduction_percent",
                              round(run.reduction_percent, 3))
    run.runtime_seconds = time.perf_counter() - start
    run.diagnostics = list(sink.diagnostics[first_diag:])
    if ledger.enabled:
        run.decision_records = list(ledger.records[first_dec:])
    return run
