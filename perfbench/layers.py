"""Per-layer tracing from outside the program.

:class:`LayerTracer` times calls into the public functions and classes of
each module by patching them where they are looked up, and keeps, per
wrapped name, the call count, the total time and the self time (the
total minus the time of wrapped calls nested inside, per thread).  The
program's own work counters are read from the public
``repro.obs.metrics`` registry.  Nothing under ``src/`` is changed:
:meth:`LayerTracer.uninstall` restores every patched binding.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Free functions: (stem, home module, name).  Every ``repro`` module
#: that bound the same object by ``from ... import`` is patched too.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("netlist.read", "repro.netlist.verilog", "read_verilog"),
    ("sdc.parse", "repro.sdc.parser", "parse_mode"),
    ("sdc.write", "repro.sdc.writer", "write_mode"),
    ("timing.graph_build", "repro.timing.graph", "build_graph"),
    ("mergeability.scan", "repro.core.mergeability",
     "build_mergeability_graph"),
    ("mergeability.mock_merge", "repro.core.mergeability", "pair_mergeable"),
    ("mergeability.clique_cover", "repro.core.mergeability",
     "greedy_clique_cover"),
    ("merger.group", "repro.core.merger", "merge_modes"),
    ("three_pass", "repro.core.three_pass", "run_three_pass"),
    ("equivalence", "repro.core.equivalence", "check_equivalence"),
)

#: The nine Section 3.1 steps and data refinement, as ``merge_modes``
#: calls them.  Only the ``repro.core.merger`` bindings are patched: the
#: mock merges of the scan call the same functions through
#: ``repro.core.mergeability``, and that time belongs to the scan.
STEPS: Tuple[Tuple[str, str], ...] = (
    ("clock_union", "merge_clocks"),
    ("clock_constraints", "merge_clock_constraints"),
    ("external_delays", "merge_external_delays"),
    ("case_analysis", "merge_case_analysis"),
    ("disable_timing", "merge_disable_timing"),
    ("drive_load", "merge_drive_load"),
    ("clock_exclusivity", "merge_clock_exclusivity"),
    ("clock_refinement", "refine_clock_network"),
    ("exceptions", "merge_exceptions"),
    ("data_refinement", "refine_data_clocks"),
)

#: Methods, patched on the class every caller shares:
#: (stem, module, class, method names).
METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("timing.bind", "repro.timing.context", "BoundMode", ("__init__",)),
    ("timing.constants", "repro.timing.constants", "ConstantAnalysis",
     ("__init__",)),
    ("timing.clockprop", "repro.timing.clocks", "ClockPropagation",
     ("__init__",)),
    ("timing.extract", "repro.timing.relationships", "RelationshipExtractor",
     ("endpoint_relationships", "pair_relationships", "through_states")),
    ("cache.lookup_pairs", "repro.cache", "ResultCache", ("lookup_pairs",)),
    ("cache.store_pairs", "repro.cache", "ResultCache", ("store_pairs",)),
    ("cache.lookup_group", "repro.cache", "ResultCache", ("lookup_group",)),
    ("cache.store_group", "repro.cache", "ResultCache", ("store_group",)),
    ("checkpoint.save", "repro.checkpoint", "MergeCheckpoint", ("save",)),
    ("serve.submit", "repro.serve.service", "MergeService", ("submit",)),
    ("serve.journal_append", "repro.serve.journal", "JobJournal",
     ("append",)),
)

#: Program counters read from the metrics registry.
COUNTERS: Tuple[str, ...] = (
    "profile.mock_merges", "profile.tag_propagations",
    "profile.bfs_expansions", "profile.relationship_comparisons",
    "three_pass.iterations", "merge.runs", "cache.pair_hits",
    "cache.pair_misses", "checkpoint.saves", "serve.journal_appends",
    "exec.retries", "exec.task_failures",
)

#: Layers whose wrappers only see calls on serve-edit.
SERVE_ONLY = ("cache", "checkpoint", "serve")

#: Wrapped count == program counter, wherever the counter ticks.
COUNT_MATCHES: Tuple[Tuple[str, str], ...] = (
    ("mergeability.mock_merge", "profile.mock_merges"),
    ("merger.group", "merge.runs"),
    ("checkpoint.save", "checkpoint.saves"),
    ("serve.journal_append", "serve.journal_appends"),
)


def layer_of(stem: str) -> str:
    """The layer (module group) a wrapped stem belongs to."""
    return stem.split(".", 1)[0]


def stems() -> List[str]:
    return ([stem for stem, _m, _n in FUNCTIONS]
            + [f"merger.step.{step}" for step, _n in STEPS]
            + [stem for stem, _m, _c, _n in METHODS])


class LayerTracer:
    """Times wrapped calls per stem: ``[calls, total_s, self_s]``."""

    def __init__(self):
        self.rows: Dict[str, List[float]] = {s: [0, 0.0, 0.0]
                                             for s in stems()}
        #: mock merges that found the pair mergeable
        self.mergeable = 0
        #: serve job id -> perf_counter time its ``admit`` was journaled
        self.admitted: Dict[str, float] = {}
        self._observe = {
            "mergeability.mock_merge": self._count_mergeable,
            "serve.journal_append": self._note_admit,
        }
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def _count_mergeable(self, args, kwargs, result, started) -> None:
        if result is not None and result[0]:
            with self._lock:
                self.mergeable += 1

    def _note_admit(self, args, kwargs, result, started) -> None:
        if len(args) > 1 and args[1] == "admit":
            with self._lock:
                self.admitted[kwargs.get("job")] = started

    def reset(self) -> None:
        with self._lock:
            for row in self.rows.values():
                row[:] = [0, 0.0, 0.0]
            self.mergeable = 0
            self.admitted.clear()

    def snapshot(self) -> Dict[str, List[float]]:
        with self._lock:
            return {stem: list(row) for stem, row in self.rows.items()}

    def _wrap(self, stem: str, fn: Callable) -> Callable:
        rows, lock, local = self.rows, self._lock, self._local
        observe = self._observe.get(stem)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            started = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    row = rows[stem]
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - nested
                if observe is not None:
                    observe(args, kwargs, result, started)

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", stem)
        return timed

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Patch every binding; call :meth:`uninstall` to restore them."""
        if self._undo:
            raise RuntimeError("layer tracer already installed")
        for module in {m for _s, m, _n in FUNCTIONS} | {
                m for _s, m, _c, _n in METHODS} | {"repro.core.merger"}:
            importlib.import_module(module)
        loaded = [module for name, module in sorted(sys.modules.items())
                  if module is not None
                  and (name == "repro" or name.startswith("repro."))]
        for stem, home, name in FUNCTIONS:
            original = getattr(sys.modules[home], name)
            wrapped = self._wrap(stem, original)
            for module in loaded:
                if vars(module).get(name) is original:
                    self._patch(module, name, wrapped)
        merger = sys.modules["repro.core.merger"]
        for step, name in STEPS:
            self._patch(merger, name,
                        self._wrap(f"merger.step.{step}",
                                   getattr(merger, name)))
        for stem, home, cls_name, methods in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            for method in methods:
                self._patch(cls, method,
                            self._wrap(stem, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def read_counters(registry) -> Dict[str, float]:
    return {name: registry.counter(name) for name in COUNTERS}


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


def self_check(workload: str, passes: Sequence[dict]) -> List[str]:
    """Problems with the traced passes of one run (empty when sound).

    Each pass is ``{"rows": tracer rows, "counters": counter deltas}``.
    A wrapper that sees no call where its layer works, or whose count
    differs from the program's own counter, means the trace no longer
    measures what its name says.
    """
    problems: List[str] = []
    serve = workload == "serve-edit"
    for index, sample in enumerate(passes):
        rows, counters = sample["rows"], sample["counters"]
        for stem, row in rows.items():
            if (serve or layer_of(stem) not in SERVE_ONLY) and row[0] == 0:
                problems.append(f"pass {index}: wrapper {stem} saw no call")
        for stem, counter in COUNT_MATCHES:
            if not serve and layer_of(stem) in SERVE_ONLY:
                continue
            if rows[stem][0] != counters[counter]:
                problems.append(
                    f"pass {index}: {stem} calls {rows[stem][0]:g} != "
                    f"counter {counter} {counters[counter]:g}")
    return problems


def per_layer(passes: Sequence[dict], untraced_wall: Sequence[float]
              ) -> Dict[str, float]:
    """The per-layer metrics: the median over traced passes of each
    per-pass value.

    Each pass is ``{"rows", "counters", "mergeable", "wall_s"}`` plus,
    on serve-edit, ``"queue_wait_s"``.
    """
    def med(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    def row(stem: str, field: int) -> Callable[[dict], float]:
        return lambda p: p["rows"][stem][field]

    out: Dict[str, float] = {}
    timed = {
        "netlist.read_s": "netlist.read",
        "sdc.parse_s": "sdc.parse",
        "sdc.write_s": "sdc.write",
        "timing.graph_build_s": "timing.graph_build",
        "timing.bind_s": "timing.bind",
        "timing.constants_s": "timing.constants",
        "timing.clockprop_s": "timing.clockprop",
        "timing.extract_s": "timing.extract",
        "mergeability.scan_s": "mergeability.scan",
        "mergeability.mock_merge_s": "mergeability.mock_merge",
        "mergeability.clique_cover_s": "mergeability.clique_cover",
        "merger.group_s": "merger.group",
        "three_pass.total_s": "three_pass",
        "equivalence.total_s": "equivalence",
        "cache.lookup_pairs_s": "cache.lookup_pairs",
        "cache.store_pairs_s": "cache.store_pairs",
        "cache.lookup_group_s": "cache.lookup_group",
        "cache.store_group_s": "cache.store_group",
        "checkpoint.save_s": "checkpoint.save",
        "serve.submit_s": "serve.submit",
    }
    timed.update({f"merger.step.{step}_s": f"merger.step.{step}"
                  for step, _n in STEPS})
    for metric, stem in timed.items():
        out[metric] = med(row(stem, 1))
    calls = {
        "sdc.parse_calls": "sdc.parse",
        "timing.bind_calls": "timing.bind",
        "timing.constants_calls": "timing.constants",
        "timing.clockprop_calls": "timing.clockprop",
        "timing.extract_calls": "timing.extract",
        "mergeability.mock_merge_calls": "mergeability.mock_merge",
        "merger.group_calls": "merger.group",
        "three_pass.calls": "three_pass",
        "equivalence.calls": "equivalence",
        "checkpoint.save_calls": "checkpoint.save",
        "serve.journal_append_calls": "serve.journal_append",
    }
    for metric, stem in calls.items():
        out[metric] = med(row(stem, 0))
    for layer in sorted({layer_of(s) for s in stems()}):
        out[f"{layer}.self_s"] = med(lambda p, layer=layer: sum(
            r[2] for s, r in p["rows"].items() if layer_of(s) == layer))
    counted = {
        "timing.tag_propagations": "profile.tag_propagations",
        "timing.bfs_expansions": "profile.bfs_expansions",
        "three_pass.iterations": "three_pass.iterations",
        "three_pass.relationship_comparisons":
            "profile.relationship_comparisons",
        "exec.retries": "exec.retries",
        "exec.task_failures": "exec.task_failures",
    }
    for metric, counter in counted.items():
        out[metric] = med(lambda p, c=counter: p["counters"][c])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["mergeability.pair_yield"] = med(lambda p: ratio(
        p["mergeable"], p["rows"]["mergeability.mock_merge"][0]))
    out["cache.pair_hit_ratio"] = med(lambda p: ratio(
        p["counters"]["cache.pair_hits"],
        p["counters"]["cache.pair_hits"]
        + p["counters"]["cache.pair_misses"]))
    out["serve.queue_wait_s"] = med(lambda p: p.get("queue_wait_s", 0.0))
    out["trace.wall_s"] = med(lambda p: p["wall_s"])
    out["trace.overhead_ratio"] = ratio(out["trace.wall_s"],
                                        statistics.median(untraced_wall))
    out["mergeability.scan_share"] = med(lambda p: ratio(
        p["rows"]["mergeability.scan"][1], p["wall_s"]))
    out["refine.share"] = med(lambda p: ratio(
        p["rows"]["three_pass"][1] + p["rows"]["equivalence"][1],
        p["wall_s"]))
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name suffix."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_yield", "_share", ".share")):
        return "ratio"
    return "count"
