"""Unit tests for the ambient run observer (repro.obs.observer)."""

import threading

import pytest

from repro.obs.blackbox import BlackboxRecorder, FlightLedger, get_blackbox
from repro.obs.explain import DecisionLedger, get_decisions
from repro.obs.metrics import MetricsRegistry, collecting, get_metrics
from repro.obs.observer import (
    Observer,
    current,
    observing,
    thread_observing,
    wire,
)
from repro.obs.profile import Profiler, get_profiler
from repro.obs.trace import Tracer, get_tracer, tracing


def _record() -> None:
    """A small run's worth of recordings through the ambient getters."""
    with get_tracer().span("merge_all"):
        with get_decisions().frame("merge.group", "group:A+B"):
            get_decisions().decide("merge.mode", "mode:A", verdict="kept",
                                   evidence=["why"])
        get_metrics().inc("merge.runs")
        get_metrics().observe("merge.group_seconds", 0.25)
        get_blackbox().record("note", detail="x")


def _ring(recorder: BlackboxRecorder) -> list:
    """The ring's events without the fields that depend on when and
    where they were recorded."""
    return [{k: v for k, v in event.items()
             if k not in ("seq", "t", "seconds", "worker")}
            for event in recorder.to_payload()["events"]]


class TestNullObserver:
    def test_every_field_defaults_to_its_null_collector(self):
        observer = Observer()
        assert not observer.tracer.enabled
        assert not observer.metrics.enabled
        assert not observer.decisions.enabled
        assert not observer.profiler.enabled
        assert not observer.blackbox.enabled

    def test_getters_read_the_current_observer(self):
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry(),
                            decisions=DecisionLedger(),
                            profiler=Profiler(),
                            blackbox=BlackboxRecorder())
        with observing(observer):
            assert current() is observer
            assert get_tracer() is observer.tracer
            assert get_metrics() is observer.metrics
            assert get_decisions() is observer.decisions
            assert get_profiler() is observer.profiler
            assert get_blackbox() is observer.blackbox


class TestWire:
    def test_profile_implies_tracer_and_metrics(self):
        observer = wire(profile=True)
        assert observer.tracer.enabled and observer.metrics.enabled
        assert observer.profiler.enabled
        assert not observer.decisions.enabled

    def test_recorder_stands_in_for_a_missing_ledger(self):
        observer = wire()
        assert observer.blackbox.enabled
        assert isinstance(observer.decisions, FlightLedger)
        assert not observer.tracer.enabled and not observer.metrics.enabled

    def test_recorder_listens_on_tracer_and_ledger(self):
        observer = wire(trace=True, explain=True)
        with observing(observer):
            _record()
        kinds = [event["kind"] for event in _ring(observer.blackbox)]
        assert "span.open" in kinds and "decision" in kinds


class TestScopes:
    def test_observing_restores_on_normal_exit(self):
        outer, inner = wire(metrics=True), wire(metrics=True)
        with observing(outer):
            with observing(inner):
                assert current() is inner
            assert current() is outer
        assert not current().metrics.enabled

    def test_observing_restores_on_exception(self):
        observer = wire(metrics=True)
        before = current()
        with pytest.raises(RuntimeError):
            with observing(observer):
                raise RuntimeError("boom")
        assert current() is before

    def test_observing_installs_globally(self):
        observer = wire(metrics=True)
        seen = {}

        def worker():
            seen["metrics"] = get_metrics()

        with observing(observer):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["metrics"] is observer.metrics

    def test_field_scope_replaces_one_collector(self):
        tracer, registry = Tracer(), MetricsRegistry()
        with tracing(tracer):
            with collecting(registry) as active:
                assert active is registry
                assert get_tracer() is tracer
                assert get_metrics() is registry
            assert get_tracer() is tracer
            assert not get_metrics().enabled

    def test_threads_record_only_into_their_own_observer(self):
        observers = [wire(trace=True, metrics=True, explain=True),
                     wire(trace=True, metrics=True, explain=True)]
        global_before = current()
        barrier = threading.Barrier(2)
        errors = []

        def job(observer):
            try:
                with thread_observing(observer):
                    barrier.wait(timeout=10)
                    for _ in range(50):
                        _record()
                    barrier.wait(timeout=10)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=job, args=(o,))
                   for o in observers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for observer in observers:
            assert observer.metrics.counter("merge.runs") == 50
            assert len(observer.decisions.records) == 100
            assert len(observer.tracer.roots) == 50
        assert current() is global_before
        assert not get_metrics().enabled


class TestPayloadFold:
    def test_fold_equals_recording_in_process(self):
        def observe():
            return wire(trace=True, metrics=True, explain=True)

        direct = observe()
        with observing(direct):
            with get_decisions().frame("run", "run:merge"):
                _record()

        parent, worker = observe(), observe()
        with observing(parent):
            with get_decisions().frame("run", "run:merge"):
                with observing(worker):
                    _record()
                parent.fold(worker.payload())

        assert [d.to_dict() for d in parent.decisions.records] \
            == [d.to_dict() for d in direct.decisions.records]
        assert parent.metrics.to_dict() == direct.metrics.to_dict()
        # Everything the in-process recorder saw under the run frame
        # reaches the parent's ring, in order, as the worker's events.
        in_process = _ring(direct.blackbox)[1:]
        assert _ring(parent.blackbox)[-len(in_process):] == in_process

    def test_fold_merges_the_worker_profile(self):
        parent, worker = wire(profile=True), wire(profile=True)
        with observing(worker):
            worker.profiler.start()
            _record()
            worker.profiler.stop()
        parent.fold(worker.payload())
        spans = {row["name"]: row["count"]
                 for row in parent.profiler.export()["spans"]}
        assert spans == {"merge_all": 1}
        assert parent.profiler.worker_seconds > 0

    def test_null_observer_payload_folds_to_nothing(self):
        payload = Observer().payload()
        assert payload == {"decisions": [], "metrics": None,
                           "profile": None, "blackbox": None}
        parent = wire(metrics=True, explain=True)
        parent.fold(payload)
        assert parent.decisions.records == []
        assert parent.metrics.names() == []
