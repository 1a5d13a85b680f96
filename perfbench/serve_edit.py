"""The serve-edit workload: one long-lived in-process merge service.

Set-up starts a ``MergeService`` (one runner, ``jobs=1``, a result cache)
and runs one cold job on design A, which fills the cache.  Then one
client runs a closed loop: it edits one mode (chosen by the seed; the
edits accumulate), submits the whole design, and waits for the job to
finish before it submits the next.  Each job re-scans only the edited
mode's pairs and re-merges only its group; the rest comes from the cache.

Design A is the paper suite's own (its default seed), not one regenerated
from the benchmark seed as on the paper workloads: a regenerated design
moves the cost of the dirty group's re-merge by up to 1.6x from seed to
seed, which would drown the serve-path costs this workload is for.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List

import inputs
import layers

#: Seconds between two status polls of the client waiting for a job.
POLL_S = 0.002

#: A job that runs longer than this has hung.
JOB_TIMEOUT_S = 150


def _wait(service, job_id: str) -> dict:
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while time.monotonic() < deadline:
        status = service.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(POLL_S)
    raise TimeoutError(f"job {job_id} did not finish in {JOB_TIMEOUT_S} s")


def _merged_sdc(directory: Path, artifacts: List[str]) -> Dict[str, bytes]:
    return {name: (directory / name).read_bytes()
            for name in artifacts if name.endswith(".sdc")}


def run(seed: int, seconds: float, trace: bool, scale: float,
        work: Path) -> dict:
    started = time.perf_counter()
    from repro.core import merge_all
    from repro.netlist import read_verilog
    from repro.sdc import parse_mode, write_mode
    from repro.serve.service import MergeService, ServeConfig

    imported = time.perf_counter() - started
    expected_out = inputs.TABLE5["A"][1]
    generation = []
    for _ in range(inputs.SETUP_REPEATS):
        started = time.perf_counter()
        design = inputs.design_text("A", None, scale)
        generation.append(time.perf_counter() - started)
    sdc = dict(design["modes"])
    target = inputs.edit_target(design, seed)

    started = time.perf_counter()
    service = MergeService(work / "serve", ServeConfig(
        runners=1, jobs=1, cache_root=str(work / "cache")))
    service.start()
    try:
        cold = _wait(service, service.submit(
            {"netlist": design["netlist"], "modes": sdc})["id"])
        setup_s = imported + statistics.median(generation) + (
            time.perf_counter() - started)
        problems = [] if cold["state"] == "done" else [
            f"cold job {cold['id']} ended {cold['state']}: {cold['error']}"]
        failed = len(problems)

        tracer = layers.LayerTracer() if trace else None
        jobs: List[dict] = []
        traced: List[dict] = []
        loop_started = time.perf_counter()
        while True:
            sdc[target] = inputs.edit_mode(sdc[target])
            payload = {"netlist": design["netlist"], "modes": dict(sdc)}
            # With tracing, jobs alternate untraced / traced, and the
            # last job is a traced one.
            tracing = trace and len(jobs) % 2 == 1
            if tracing:
                tracer.reset()
                tracer.install()
                before = layers.read_counters(service.metrics)
            submitted = time.perf_counter()
            job_id = service.submit(payload)["id"]
            status = _wait(service, job_id)
            finished = time.perf_counter()
            if tracing:
                tracer.uninstall()
                traced.append({
                    "rows": tracer.snapshot(),
                    "mergeable": tracer.mergeable,
                    "counters": layers.counter_delta(
                        before, layers.read_counters(service.metrics)),
                    "wall_s": finished - submitted,
                    "queue_wait_s": tracer.admitted[job_id] - submitted,
                })
            jobs.append({"status": status, "latency_s": finished - submitted,
                         "traced": tracing, "payload": payload})
            elapsed = time.perf_counter() - loop_started
            if elapsed >= seconds and len(jobs) >= 2 and (
                    not trace or tracing):
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        for job in jobs:
            status = job["status"]
            merged = [a for a in status["artifacts"] if a.endswith(".sdc")]
            job["ok"] = status["state"] == "done" and \
                len(merged) == expected_out
            if not job["ok"]:
                failed += 1
                problems.append(f"job {status['id']} ended {status['state']} "
                                f"with {len(merged)} merged modes "
                                f"(expected {expected_out}) {status['error']}")

        # The last job against an uncached in-process merge of its text.
        last = jobs[-1]
        got = _merged_sdc(service.root / "jobs" / last["status"]["id"]
                          / "artifacts", last["status"]["artifacts"])
        netlist = read_verilog(last["payload"]["netlist"])
        modes = [parse_mode(text, name)
                 for name, text in sorted(last["payload"]["modes"].items())]
        reference = merge_all(netlist, modes)
        want = {o.result.merged.name.replace("+", "_") + ".sdc":
                write_mode(o.result.merged).encode()
                for o in reference.outcomes if o.result is not None}
        if got != want:
            failed += last["ok"]  # a job that already failed counts once
            problems.append(f"job {last['status']['id']}: merged SDC differs "
                            f"from an uncached merge_all of the same text")
    finally:
        service.drain()

    latencies = [j["latency_s"] for j in jobs if not j["traced"]]
    return {
        "setup_s": setup_s,
        "passes": latencies,
        "wall_s": (finished - loop_started) / len(jobs),
        "rss_mb": rss_mb,
        "modes_out": statistics.median(
            sum(1 for a in j["status"]["artifacts"] if a.endswith(".sdc"))
            for j in jobs),
        "attempted": len(jobs) + 1,
        "failed": failed,
        "problems": problems,
        "digests": [(name, hashlib.sha256(data).hexdigest())
                    for name, data in sorted(got.items())],
        "traced": traced,
    }
