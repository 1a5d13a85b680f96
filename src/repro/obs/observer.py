"""The ambient run observer: one install point for every collector.

A run records into five collectors — the tracer, the metrics registry,
the decision ledger, the profiler and the flight recorder.  An
:class:`Observer` bundles them (each a null object unless installed),
and one **ambient slot** holds the observer instrumentation sites read
through :func:`current` — ``get_tracer()``, ``get_metrics()``,
``get_decisions()``, ``get_profiler()`` and ``get_blackbox()`` are
one-line reads of it, so no call site threads a collector argument.

The slot has a process-global observer and a per-thread override:

* :func:`observing` installs globally *and* on this thread, so the scope
  wins even inside a thread (or forked worker) that inherited an
  override;
* :func:`thread_observing` installs on this thread only — the serve
  layer runs concurrent jobs, each recording into its own collectors
  (a tracer's span stack and a ledger's frame stack are not
  thread-safe).

The per-collector scopes (``tracing``, ``collecting``, ``explaining``,
``profiling``, ``recording``) replace one field through
:func:`replacing`.  :func:`wire` builds the collectors a run asks for,
already listening on each other, and :meth:`Observer.payload` /
:meth:`Observer.fold` carry a forked worker's recordings home as one
plain-data entry.

Import note: the collector modules reach this one through a module
reference (``from repro.obs import observer``), read only at call time,
and ``repro.obs`` imports this module first, so the cycle resolves.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.obs.blackbox import BlackboxRecorder, NullBlackbox
from repro.obs.explain import DecisionLedger, NullDecisions
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.profile import NullProfiler, Profiler
from repro.obs.trace import NullTracer, Tracer

#: Field name -> the null collector a ``None`` field stands for.
_NULLS = {"tracer": NullTracer, "metrics": NullMetrics,
          "decisions": NullDecisions, "profiler": NullProfiler,
          "blackbox": NullBlackbox}


@dataclass(frozen=True)
class Observer:
    """The five collectors one run (or one scope of it) records into.

    A field left ``None`` holds its null collector, whose operations are
    no-ops and whose ``enabled`` is ``False``.
    """

    tracer: Optional[NullTracer] = None
    metrics: Optional[NullMetrics] = None
    decisions: Optional[NullDecisions] = None
    profiler: Optional[NullProfiler] = None
    blackbox: Optional[NullBlackbox] = None

    def __post_init__(self) -> None:
        for name, null in _NULLS.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, null())

    def payload(self) -> dict:
        """Everything recorded here, as plain JSON-ready data (the one
        observability entry a ``--jobs N`` worker bundle carries)."""
        return {
            "decisions": [d.to_dict() for d in self.decisions.records]
            if self.decisions.enabled else [],
            "metrics": self.metrics.to_dict()
            if self.metrics.enabled else None,
            "profile": self.profiler.to_payload(tracer=self.tracer)
            if self.profiler.enabled else None,
            "blackbox": self.blackbox.to_payload(),
        }

    def fold(self, payload: dict) -> None:
        """Fold a worker's :meth:`payload` into these collectors:
        decisions grafted under the current frame, then metrics, the
        profile and the flight-recorder ring merged."""
        if self.decisions.enabled:
            self.decisions.graft(payload["decisions"])
        if self.metrics.enabled and payload["metrics"]:
            self.metrics.merge_payload(payload["metrics"])
        if self.profiler.enabled and payload["profile"]:
            self.profiler.merge_payload(payload["profile"])
        self.blackbox.merge_payload(payload["blackbox"])


def wire(*, trace: bool = False, metrics: bool = False,
         explain: bool = False, profile: bool = False) -> Observer:
    """The collectors a run asks for, listening on each other.

    ``profile`` implies a tracer (phase attribution) and a metrics
    registry (hot-loop counters).  The flight recorder is always on: it
    listens on the tracer and the ledger, and with no ledger requested
    it takes the ledger's place as the frame sink
    (:meth:`BlackboxRecorder.flight_ledger`).  The profiler listens on
    the tracer; starting and stopping it is the caller's business.
    """
    tracer = Tracer() if trace or profile else None
    registry = MetricsRegistry() if metrics or profile else None
    profiler = Profiler() if profile else None
    recorder = BlackboxRecorder()
    if profiler is not None:
        tracer.add_listener(profiler)
    if tracer is not None:
        tracer.add_listener(recorder)
    if explain:
        ledger = DecisionLedger()
        ledger.add_listener(recorder)
    else:
        ledger = recorder.flight_ledger()
    return Observer(tracer=tracer, metrics=registry, decisions=ledger,
                    profiler=profiler, blackbox=recorder)


class _Slot(threading.local):
    """The ambient slot: the class attribute is the process-global
    observer, an instance attribute this thread's override."""

    observer = Observer()


_THREAD_AMBIENT = _Slot()


def current() -> Observer:
    """The observer in effect on this thread."""
    return _THREAD_AMBIENT.observer


@contextmanager
def _install(local: Observer,
             shared: Optional[Observer] = None) -> Iterator[Observer]:
    """Install ``local`` on this thread (and ``shared`` globally when
    given); restore both on exit.  The thread's own attribute dict is
    captured, so the restore lands on the installing thread even when
    another thread closes the scope."""
    overrides = vars(_THREAD_AMBIENT)
    previous_local = overrides.get("observer")
    previous_shared = _Slot.observer
    if shared is not None:
        _Slot.observer = shared
    overrides["observer"] = local
    try:
        yield local
    finally:
        if shared is not None:
            _Slot.observer = previous_shared
        if previous_local is None:
            overrides.pop("observer", None)
        else:
            overrides["observer"] = previous_local


def observing(observer: Observer):
    """Scope-install ``observer`` globally *and* on this thread."""
    return _install(observer, observer)


def thread_observing(observer: Observer):
    """Scope-install ``observer`` on the *current thread* only."""
    return _install(observer)


@contextmanager
def replacing(field: str, collector):
    """Scope-replace one collector (``None`` = its null one) of the
    ambient observer, globally and on this thread; yields the collector
    now in effect."""
    change = {field: collector}
    with _install(replace(current(), **change),
                  replace(_Slot.observer, **change)) as observer:
        yield getattr(observer, field)
