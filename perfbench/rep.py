"""One repetition of a paper workload, in a fresh process.

    python3 perfbench/rep.py INPUTS.json LAUNCHED --trace 0|1

Reads the designs' Verilog and SDC text from INPUTS.json (written by
run.py), then times parse -> ``merge_all`` -> ``write_mode`` of every
merged mode, design after design, as the CLI would.  A fresh process per
repetition keeps the program's process-wide caches from carrying work
from one repetition into the next.  LAUNCHED is the ``time.time()`` at
which the caller started this process, so the start-up cost (interpreter
and imports) is reported as ``ready_s``.  Prints one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# Calls go through the package attributes, which the layer tracer patches.
import repro  # noqa: E402
from repro.obs.metrics import MetricsRegistry, collecting  # noqa: E402

import layers  # noqa: E402


def outcome_problems(run) -> list:
    """Groups of one ``merge_all`` run that did not merge cleanly."""
    problems = []
    for outcome in run.outcomes:
        result = outcome.result
        label = "+".join(outcome.mode_names)
        if result is None or outcome.error:
            problems.append(f"{label}: no result ({outcome.error})")
            continue
        if result.outcome.residuals:
            problems.append(f"{label}: {len(result.outcome.residuals)} "
                            f"three-pass residuals")
        if not result.validated or result.validation_mismatches:
            problems.append(f"{label}: Section 2 validation "
                            f"{len(result.validation_mismatches)} "
                            f"mismatches (ran: {result.validated})")
    return problems


def main() -> int:
    ready = time.time() - float(sys.argv[2])
    inputs = json.loads(Path(sys.argv[1]).read_text())
    trace = sys.argv[3:] == ["--trace", "1"]
    tracer = layers.LayerTracer() if trace else None
    registry = MetricsRegistry() if trace else None
    if tracer is not None:
        tracer.install()
    runs = []
    with collecting(registry) if trace else nullcontext():
        started = time.perf_counter()
        for design in inputs:
            netlist = repro.read_verilog(design["netlist"])
            modes = [repro.parse_mode(text, name)
                     for name, text in design["modes"]]
            run = repro.merge_all(netlist, modes)
            texts = [repro.write_mode(o.result.merged) for o in run.outcomes
                     if o.result is not None]
            runs.append((design["name"], run, texts))
        wall = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    report = {
        "ready_s": ready,
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "designs": [{
            "name": name,
            "modes_in": run.individual_count,
            "modes_out": run.merged_count,
            "problems": outcome_problems(run),
            "digests": [hashlib.sha256(t.encode()).hexdigest()
                        for t in texts],
        } for name, run, texts in runs],
    }
    if tracer is not None:
        report["trace"] = {"rows": tracer.snapshot(),
                           "mergeable": tracer.mergeable,
                           "counters": layers.read_counters(registry),
                           "wall_s": wall}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
