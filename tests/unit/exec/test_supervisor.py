"""Unit tests for the supervised parallel execution engine."""

import multiprocessing
import os
import time

import pytest

from repro.diagnostics import DiagnosticCollector
from repro.errors import TaskFailedError
from repro.exec import (
    ChaosFault,
    ChaosPlan,
    Supervisor,
    SupervisorConfig,
    TaskOutcome,
)
from repro.obs.explain import DecisionLedger, explaining
from repro.obs.metrics import MetricsRegistry, collecting

#: The test process; lets initializers distinguish parent from workers.
PARENT_PID = os.getpid()


def square(x):
    return x * x


def sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def raise_value_error(x):
    raise ValueError(f"boom {x}")


def codes(collector):
    return [d.code for d in collector.diagnostics]


def run_squares(config, collector=None, n=6, **kwargs):
    sup = Supervisor(config, collector=collector)
    return sup.run(square, [(i,) for i in range(n)], **kwargs)


def assert_no_children():
    for _ in range(50):
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestSerial:
    def test_values_in_order(self):
        outcomes = run_squares(SupervisorConfig(jobs=1, use_env_chaos=False))
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16, 25]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert [o.index for o in outcomes] == list(range(6))

    def test_empty_batch(self):
        sup = Supervisor(SupervisorConfig(use_env_chaos=False))
        assert sup.run(square, []) == []

    def test_keys_must_match_tasks(self):
        sup = Supervisor(SupervisorConfig(use_env_chaos=False))
        with pytest.raises(ValueError, match="one-to-one"):
            sup.run(square, [(1,), (2,)], keys=["only-one"])

    def test_default_keys_use_label(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=1, use_env_chaos=False,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="corrupt", pattern="mywork:1")]))
        outcomes = run_squares(config, collector, n=2, label="mywork")
        assert outcomes[1].ok and outcomes[1].faults[0][0] == "corrupt"
        assert "EXE003" in codes(collector)

    def test_initializer_runs_once(self):
        calls = []
        sup = Supervisor(SupervisorConfig(jobs=1, use_env_chaos=False))
        sup.run(square, [(1,), (2,)], initializer=calls.append,
                initargs=("init",))
        assert calls == ["init"]

    def test_task_body_error_demotes_without_retry(self):
        collector = DiagnosticCollector()
        sup = Supervisor(SupervisorConfig(jobs=1, use_env_chaos=False),
                         collector)
        outcomes = sup.run(raise_value_error, [(7,)])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1
        assert "ValueError: boom 7" in outcomes[0].error

    def test_task_body_error_propagates_original_type(self):
        sup = Supervisor(SupervisorConfig(jobs=1, use_env_chaos=False,
                                          propagate_errors=True))
        with pytest.raises(ValueError, match="boom 7"):
            sup.run(raise_value_error, [(7,)])


class TestParallel:
    def test_values_match_serial(self):
        serial = run_squares(SupervisorConfig(jobs=1, use_env_chaos=False))
        pooled = run_squares(SupervisorConfig(jobs=2, use_env_chaos=False))
        assert [o.value for o in pooled] == [o.value for o in serial]
        assert_no_children()

    def test_ordering_despite_completion_skew(self):
        # Task 0 is slow, task 1 fast: completion order inverts
        # submission order, emitted order must not.
        seen = []
        sup = Supervisor(SupervisorConfig(jobs=2, use_env_chaos=False))
        outcomes = sup.run(
            sleep_then_return, [(0.4, "slow"), (0.0, "fast")],
            on_result=lambda o: seen.append(o.key))
        assert [o.value for o in outcomes] == ["slow", "fast"]
        assert seen == ["task:0", "task:1"]
        assert_no_children()

    def test_on_result_gets_final_outcomes(self):
        got = []
        sup = Supervisor(SupervisorConfig(jobs=2, use_env_chaos=False))
        sup.run(square, [(i,) for i in range(5)],
                on_result=got.append)
        assert all(isinstance(o, TaskOutcome) for o in got)
        assert [o.value for o in got] == [0, 1, 4, 9, 16]

    def test_unpicklable_result_demoted_cleanly(self):
        sup = Supervisor(SupervisorConfig(jobs=2, use_env_chaos=False,
                                          max_attempts=1,
                                          final_in_process=False))
        outcomes = sup.run(lambda: (lambda: 1), [()])
        assert not outcomes[0].ok
        assert "unserializable task result" in outcomes[0].error
        assert_no_children()

    def test_task_body_error_propagates_as_task_failed(self):
        sup = Supervisor(SupervisorConfig(jobs=2, use_env_chaos=False,
                                          propagate_errors=True))
        with pytest.raises(TaskFailedError) as excinfo:
            sup.run(raise_value_error, [(7,)])
        assert "ValueError: boom 7" in str(excinfo.value)
        assert_no_children()


class TestFaultRecovery:
    def _run_one(self, config, collector, key="task:0"):
        sup = Supervisor(config, collector=collector)
        outcomes = sup.run(square, [(3,)])
        assert_no_children()
        return outcomes[0]

    def test_pooled_crash_retried(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2, use_env_chaos=False,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="crash", pattern="task:0")]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.value == 9
        assert outcome.attempts == 2
        assert outcome.faults[0][0] == "crash"
        assert "EXE002" in codes(collector)

    def test_pooled_hang_killed_and_retried(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2, use_env_chaos=False, deadline_seconds=0.3,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="hang", pattern="task:0")]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.value == 9
        assert outcome.faults[0][0] == "timeout"
        assert "EXE001" in codes(collector)

    def test_pooled_corrupt_payload_rejected(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2, use_env_chaos=False,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="corrupt", pattern="task:0")]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.value == 9
        assert outcome.faults[0][0] == "corrupt"
        assert "EXE003" in codes(collector)

    def test_in_process_crash_retried(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=1, use_env_chaos=False,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="crash", pattern="task:0")]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.attempts == 2
        assert "EXE002" in codes(collector)

    def test_chaos_active_reports_exe007(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=1, use_env_chaos=False, chaos=ChaosPlan.seeded(1, 0.0))
        self._run_one(config, collector)
        assert "EXE007" in codes(collector)

    def test_exhausted_pooled_attempts_rerun_in_process(self):
        # Crash every pooled attempt: the in-process final rerun is what
        # saves the task (in-process the pattern still matches, but with
        # max_attempts=2 the rerun is attempt 3 > the fault's attempts).
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2, use_env_chaos=False, max_attempts=2,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="crash", pattern="task:0", attempt=1),
                ChaosFault(kind="crash", pattern="task:0", attempt=2)]))
        outcome = self._run_one(config, collector)
        assert outcome.ok and outcome.in_process
        assert "EXE004" in codes(collector)

    def test_persistent_fault_demoted_with_exe006(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=1, use_env_chaos=False, max_attempts=2,
            backoff_base=0.01,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="corrupt", pattern="task:0", attempt=a)
                for a in (1, 2, 3)]))
        outcome = self._run_one(config, collector)
        assert not outcome.ok
        assert "corrupt" in outcome.error
        assert "EXE006" in codes(collector)

    def test_validate_hook_rejection_retried(self):
        collector = DiagnosticCollector()
        sup = Supervisor(
            SupervisorConfig(jobs=1, use_env_chaos=False,
                             backoff_base=0.01),
            collector=collector)
        attempts = []

        def flaky(x):
            attempts.append(x)
            return -1 if len(attempts) == 1 else x

        outcomes = sup.run(
            flaky, [(5,)],
            validate=lambda v: "negative payload" if v < 0 else "")
        assert outcomes[0].ok and outcomes[0].value == 5
        assert outcomes[0].faults[0] == ("corrupt", "negative payload")
        assert "EXE003" in codes(collector)


class TestDegradation:
    def test_crash_tolerance_zero_degrades_to_serial(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2, use_env_chaos=False, max_worker_crashes=0,
            backoff_base=0.01,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="crash", pattern="task:0")]))
        outcomes = run_squares(config, collector, n=4)
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert all(o.ok for o in outcomes)
        assert "EXE005" in codes(collector)
        assert_no_children()

    def test_degraded_task_keeps_the_last_resort_rerun(self):
        # The first crash degrades the batch, so every task finishes its
        # ladder in-process; like a task that exhausts its pooled
        # attempts, it still gets the EXE004 rerun past the faults.
        collector = DiagnosticCollector()
        config = SupervisorConfig(
            jobs=2, use_env_chaos=False, max_worker_crashes=0,
            backoff_base=0.01,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="crash", pattern="task:*", attempt=a)
                for a in (1, 2, 3)]))
        outcomes = run_squares(config, collector, n=3)
        assert [o.value for o in outcomes] == [0, 1, 4]
        assert all(o.ok and o.in_process for o in outcomes)
        assert "EXE005" in codes(collector)
        assert codes(collector).count("EXE004") == 3
        assert "EXE006" not in codes(collector)
        assert_no_children()

    def test_worker_initializer_failure_degrades(self):
        collector = DiagnosticCollector()
        sup = Supervisor(SupervisorConfig(jobs=2, use_env_chaos=False),
                         collector=collector)

        def workers_only_fail():
            if os.getpid() != PARENT_PID:
                raise RuntimeError("no good in a fork")

        outcomes = sup.run(square, [(i,) for i in range(3)],
                           initializer=workers_only_fail)
        assert [o.value for o in outcomes] == [0, 1, 4]
        assert "EXE005" in codes(collector)
        demotion = next(d for d in collector.diagnostics
                        if d.code == "EXE005")
        assert "initializer failed" in demotion.message
        assert_no_children()


class TestBudget:
    class _Spent:
        @staticmethod
        def remaining_seconds():
            return 0.0

    def test_exhausted_budget_fails_fast(self):
        collector = DiagnosticCollector()
        config = SupervisorConfig(jobs=1, use_env_chaos=False,
                                  max_attempts=1, final_in_process=False,
                                  budget=self._Spent())
        outcomes = run_squares(config, collector, n=2)
        assert all(not o.ok for o in outcomes)
        assert all("budget exhausted" in o.error for o in outcomes)
        assert codes(collector).count("EXE006") == 2

    def test_budget_clamps_deadline(self):
        class Half:
            @staticmethod
            def remaining_seconds():
                return 0.5

        config = SupervisorConfig(deadline_seconds=10.0, budget=Half())
        assert Supervisor(config)._effective_deadline() == 0.5
        config = SupervisorConfig(deadline_seconds=None, budget=Half())
        assert Supervisor(config)._effective_deadline() == 0.5


class TestDeterminism:
    def test_backoff_is_deterministic(self):
        sup = Supervisor(SupervisorConfig(use_env_chaos=False))
        assert sup._backoff("k", 1) == sup._backoff("k", 1)
        assert sup._backoff("k", 1) != sup._backoff("k2", 1)
        assert sup._backoff("k", 3) > sup._backoff("k", 1)

    def test_backoff_respects_cap(self):
        sup = Supervisor(SupervisorConfig(use_env_chaos=False,
                                          backoff_base=0.05,
                                          backoff_cap=0.2))
        assert sup._backoff("k", 50) <= 0.2 + 0.05

    def test_clean_run_records_no_decisions_or_diagnostics(self):
        collector = DiagnosticCollector()
        ledger = DecisionLedger()
        registry = MetricsRegistry()
        with explaining(ledger), collecting(registry):
            with ledger.frame("run", "test"):
                run_squares(SupervisorConfig(jobs=2, use_env_chaos=False),
                            collector)
        kinds = {r.kind for r in ledger.records}
        assert not any(k.startswith("exec.") for k in kinds)
        assert collector.diagnostics == []
        assert registry.to_dict()["counters"]["exec.tasks"] == 6
        assert_no_children()

    def test_faulted_run_records_retry_and_task_decisions(self):
        collector = DiagnosticCollector()
        ledger = DecisionLedger()
        config = SupervisorConfig(
            jobs=1, use_env_chaos=False, backoff_base=0.01,
            chaos=ChaosPlan(faults=[
                ChaosFault(kind="corrupt", pattern="task:1")]))
        with explaining(ledger):
            with ledger.frame("run", "test"):
                run_squares(config, collector, n=3)
        kinds = [r.kind for r in ledger.records]
        assert "exec.retry" in kinds
        assert "exec.task" in kinds
        task = next(r for r in ledger.records if r.kind == "exec.task")
        assert task.subject == "task:task:1"
        assert task.verdict == "recovered"
