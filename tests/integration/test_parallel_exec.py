"""Integration tests for parallel execution via the CLI (``--jobs``).

The engine's headline guarantee: a parallel run is *observably
indistinguishable* from a serial one — byte-identical merged SDC,
identical decision ledgers — and a run killed mid-parallel-merge
resumes from its checkpoint (even at a different job count) to the
same bytes an uninterrupted serial run produces.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

NETLIST_V = """
module chip (clk, din, dout);
  input clk, din;
  output dout;
  wire q1, n1;
  DFF stage1 (.D(din), .CP(clk), .Q(q1));
  INV logic1 (.A(q1), .Z(n1));
  DFF stage2 (.D(n1), .CP(clk), .Q(dout));
endmodule
"""

MODE_A = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -to [get_pins stage2/D]
set_clock_uncertainty 0.1 [get_clocks CK]
"""

MODE_B = """
create_clock -name CK -period 10 [get_ports clk]
set_false_path -from [get_pins stage1/CP]
set_clock_uncertainty 0.1 [get_clocks CK]
"""

#: Out-of-tolerance uncertainty: never mergeable with A/B, so runs
#: always contain two analysis groups (and parallel runs two tasks).
MODE_C = """
create_clock -name CK -period 10 [get_ports clk]
set_clock_uncertainty 5 [get_clocks CK]
"""


@pytest.fixture
def files(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    netlist = tmp_path / "chip.v"
    netlist.write_text(NETLIST_V)
    paths = []
    for name, text in (("a", MODE_A), ("b", MODE_B), ("c", MODE_C)):
        path = tmp_path / f"{name}.sdc"
        path.write_text(text)
        paths.append(path)
    return tmp_path, netlist, paths


def _merge(netlist, paths, out, *extra):
    return main(list(extra) + ["merge", str(netlist)]
                + [str(p) for p in paths] + ["-o", str(out)])


def _sdc_bytes(out):
    return {p.name: p.read_bytes() for p in Path(out).glob("*.sdc")}


class TestJobsValidation:
    @pytest.mark.parametrize("bad", ["0", "-2", "many"])
    def test_bad_jobs_is_a_usage_error(self, files, bad, capsys):
        tmp, netlist, paths = files
        with pytest.raises(SystemExit) as exc:
            _merge(netlist, paths, tmp / "out", "--jobs", bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert "Traceback" not in err

    def test_jobs_accepted_by_every_verb(self, files, capsys):
        tmp, netlist, paths = files
        assert main(["--jobs", "2", "report", str(netlist)]
                    + [str(p) for p in paths]) == 0
        assert main(["--jobs", "2", "explain", str(netlist)]
                    + [str(p) for p in paths]
                    + ["--query", "kind:merge.group"]) == 0
        capsys.readouterr()


class TestParallelEquivalence:
    def test_parallel_sdc_is_byte_identical(self, files):
        tmp, netlist, paths = files
        assert _merge(netlist, paths, tmp / "serial") == 0
        assert _merge(netlist, paths, tmp / "par2", "--jobs", "2") == 0
        assert _merge(netlist, paths, tmp / "par4", "--jobs", "4") == 0
        serial = _sdc_bytes(tmp / "serial")
        assert len(serial) == 2  # merged a+b, individual c
        assert _sdc_bytes(tmp / "par2") == serial
        assert _sdc_bytes(tmp / "par4") == serial

    def test_parallel_decision_ledger_is_identical(self, files, capsys):
        tmp, netlist, paths = files
        serial_path = tmp / "serial.decisions.json"
        par_path = tmp / "par.decisions.json"
        assert _merge(netlist, paths, tmp / "serial",
                      "--explain", str(serial_path)) == 0
        assert _merge(netlist, paths, tmp / "par",
                      "--explain", str(par_path), "--jobs", "2") == 0
        capsys.readouterr()
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(par_path.read_text())
        assert serial["decisions"] == parallel["decisions"]
        assert serial["by_kind"] == parallel["by_kind"]

    def test_work_counters_do_not_depend_on_jobs(self, monkeypatch):
        # The pairwise scan's mock merges run in forked workers at
        # jobs > 1; their count must still reach the parent's registry.
        from repro.core import merge_all
        from repro.obs.metrics import MetricsRegistry, collecting
        from repro.workloads import figure2_modes, generate

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        workload = generate(figure2_modes())
        names = ("profile.mock_merges", "mergeability.pairs_scanned",
                 "merge.runs", "three_pass.iterations")
        counts = {}
        for jobs in (1, 2):
            with collecting(MetricsRegistry()) as registry:
                merge_all(workload.netlist, workload.modes, jobs=jobs)
            counts[jobs] = {name: registry.counter(name) for name in names}
        assert counts[1]["profile.mock_merges"] > 0
        assert counts[1]["merge.runs"] > 0
        assert counts[2] == counts[1]

    def test_parallel_report_graph_is_identical(self, files, capsys):
        tmp, netlist, paths = files
        assert main(["report", str(netlist)]
                    + [str(p) for p in paths]) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "2", "report", str(netlist)]
                    + [str(p) for p in paths]) == 0
        assert capsys.readouterr().out == serial


#: Driver for the parallel kill-resume test.  Runs ``merge_all`` at
#: --jobs 2 with a checkpoint; merging mode "c" blocks until the a+b
#: group has been checkpointed, then SIGKILLs the hosting process.
#: Pooled attempts kill only disposable workers (the supervisor retries
#: and eventually falls back in-process), so the process that finally
#: dies is the run itself — mid-flight, with exactly one group saved.
KILLED_PARALLEL_DRIVER = """\
import json, os, signal, sys, time

import repro.core.mergeability as mergeability
from repro.checkpoint import MergeCheckpoint
from repro.store import content_hash
from repro.core.merger import MergeOptions
from repro.netlist import read_verilog
from repro.sdc import parse_mode

netlist_path, a_path, b_path, c_path, ckpt_path = sys.argv[1:6]
netlist_text = open(netlist_path).read()
sdc_texts = [open(p).read() for p in (a_path, b_path, c_path)]
netlist = read_verilog(netlist_text)
modes = [parse_mode(text, name)
         for text, name in zip(sdc_texts, ("a", "b", "c"))]

real_merge = mergeability.merge_modes

def wait_for_ab_checkpoint():
    input_hash = content_hash(netlist_text, *sdc_texts)
    deadline = time.monotonic() + 240
    while time.monotonic() < deadline:
        try:
            if "a+b" in MergeCheckpoint.open(ckpt_path,
                                             input_hash=input_hash).groups:
                return
        except Exception:
            pass
        time.sleep(0.05)
    raise RuntimeError("a+b never reached the checkpoint")

def killing_merge(netlist, modes, name=None, options=None):
    if any(m.name == "c" for m in modes):
        wait_for_ab_checkpoint()
        os.kill(os.getpid(), signal.SIGKILL)
    return real_merge(netlist, modes, name=name, options=options)

mergeability.merge_modes = killing_merge
checkpoint = MergeCheckpoint.open(
    ckpt_path, input_hash=content_hash(netlist_text, *sdc_texts))
mergeability.merge_all(netlist, modes, MergeOptions(),
                       checkpoint=checkpoint, jobs=2)
"""


class TestParallelCheckpointResume:
    def test_killed_parallel_run_resumes_at_any_job_count(self, files,
                                                          capsys):
        """kill -9 mid-parallel-merge, resume with a different --jobs:
        final outputs byte-identical to an uninterrupted serial run."""
        import repro

        tmp, netlist, paths = files
        # Reference: uninterrupted serial run, no checkpoint involved.
        assert _merge(netlist, paths, tmp / "fresh") == 0

        driver = tmp / "killed_parallel_driver.py"
        driver.write_text(KILLED_PARALLEL_DRIVER)
        ckpt = tmp / "run.ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        env.pop("REPRO_CHAOS", None)
        proc = subprocess.run(
            [sys.executable, str(driver), str(netlist)]
            + [str(p) for p in paths] + [str(ckpt)],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        from repro.checkpoint import MergeCheckpoint
        groups = MergeCheckpoint.open(ckpt).groups
        assert "a+b" in groups
        assert "c" not in groups

        capsys.readouterr()
        code = main(["--jobs", "3", "merge", str(netlist)]
                    + [str(p) for p in paths]
                    + ["-o", str(tmp / "resumed"),
                       "--checkpoint", str(ckpt)])
        assert code == 0
        captured = capsys.readouterr()
        assert "SGN007" in captured.err  # group {a, b} was replayed
        fresh = _sdc_bytes(tmp / "fresh")
        assert _sdc_bytes(tmp / "resumed") == fresh
        assert len(fresh) == 2
