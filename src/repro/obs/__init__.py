"""Observability for the merge pipeline: tracing, metrics, provenance,
and the explain decision ledger.

Four layers, all free when disabled:

* :mod:`repro.obs.trace` — hierarchical spans with wall-time,
  attributes, and point-in-time events, exported as JSONL or Chrome
  ``trace_event``;
* :mod:`repro.obs.metrics` — counters/gauges/histograms under a
  stable-name contract, exported as JSON or Prometheus text;
* :mod:`repro.obs.provenance` — per-constraint merge lineage (source
  modes + merge rule), surfaced by ``repro report --provenance``;
* :mod:`repro.obs.explain` — the decision ledger: every pipeline
  verdict (mergeability rejections, uniquifications, refinement stops,
  sign-off repairs) recorded with its causal chain, queryable via
  ``explain(run, "pair:funcA,scan")`` / ``repro-merge explain``.

:mod:`repro.obs.report_html` stitches all four into a self-contained
HTML run report, :mod:`repro.obs.bench_diff` compares two benchmark
snapshots, and :mod:`repro.obs.validate` schema-checks every artifact.

On top of the opt-in layers, :mod:`repro.obs.blackbox` runs an
**always-on flight recorder**: a bounded ring of recent frames, spans,
decisions, diagnostics, and chaos strikes that costs nothing to keep
and is flushed as ``blackbox.json`` only when a run dies abnormally
(``repro-merge doctor`` renders the forensics).

Every collector is **ambient**: :mod:`repro.obs.observer` bundles the
tracer, metrics registry, decision ledger, profiler and flight recorder
of a run into one :class:`Observer` and installs it in one slot
(process-global, with a per-thread override).  ``get_tracer()`` and its
siblings read that slot; :func:`observing` / :func:`thread_observing`
install a whole observer, and ``tracing``/``collecting``/``explaining``/
``profiling``/``recording`` replace one collector for a scope.

See docs/OBSERVABILITY.md for the span taxonomy, the metric name
contract, the provenance record schema, the decision-node schema, and
the artifact zoo index.
"""

# The observer module goes first: it imports the collector modules by
# name, and they reach it back through a module reference.
from repro.obs.observer import (
    Observer,
    current,
    observing,
    thread_observing,
    wire,
)

from repro.obs.blackbox import (
    BLACKBOX_SCHEMA_VERSION,
    BlackboxRecorder,
    NullBlackbox,
    causal_chain,
    format_doctor_report,
    get_blackbox,
    load_blackbox,
    recording,
)
from repro.obs.explain import (
    DECISION_KINDS,
    DECISIONS_SCHEMA_VERSION,
    Decision,
    DecisionLedger,
    NullDecisions,
    explain,
    explaining,
    find_decisions,
    format_chains,
    get_decisions,
    group_subject,
    muted,
    pair_subject,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    METRIC_CONTRACT,
    METRICS_SCHEMA_VERSION,
    SECONDS_BUCKETS,
    MetricsRegistry,
    NullMetrics,
    collecting,
    get_metrics,
)
from repro.obs.provenance import (
    MERGE_RULES,
    PROVENANCE_SCHEMA_VERSION,
    RULE_DERIVED,
    RULE_INTERSECTION,
    RULE_TOLERANCE,
    RULE_UNION,
    RULE_UNIQUIFIED,
    ProvenanceLedger,
    ProvenanceRecord,
)
from repro.obs.report_html import (
    REPORT_HTML_SCHEMA_VERSION,
    render_run_report,
    write_run_report,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    tracing,
)

__all__ = [
    "BLACKBOX_SCHEMA_VERSION",
    "BlackboxRecorder",
    "COUNT_BUCKETS",
    "DECISION_KINDS",
    "DECISIONS_SCHEMA_VERSION",
    "Decision",
    "DecisionLedger",
    "MERGE_RULES",
    "METRIC_CONTRACT",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "NullBlackbox",
    "NullDecisions",
    "NullMetrics",
    "NullTracer",
    "Observer",
    "PROVENANCE_SCHEMA_VERSION",
    "ProvenanceLedger",
    "ProvenanceRecord",
    "REPORT_HTML_SCHEMA_VERSION",
    "RULE_DERIVED",
    "RULE_INTERSECTION",
    "RULE_TOLERANCE",
    "RULE_UNION",
    "RULE_UNIQUIFIED",
    "SECONDS_BUCKETS",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "causal_chain",
    "collecting",
    "current",
    "explain",
    "explaining",
    "find_decisions",
    "format_chains",
    "format_doctor_report",
    "get_blackbox",
    "get_decisions",
    "get_metrics",
    "get_tracer",
    "group_subject",
    "load_blackbox",
    "muted",
    "observing",
    "pair_subject",
    "recording",
    "render_run_report",
    "thread_observing",
    "tracing",
    "wire",
    "write_run_report",
]
