"""The repository benchmark: end-to-end and per-layer cost of mode merging.

    python3 perfbench/run.py --workload paper-A --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Workloads (see perfbench/README.md):

* ``paper-A``    Table 5 design A (95 modes), parse -> merge_all -> write;
* ``paper-BF``   designs B-F the same way, in one pass;
* ``serve-edit`` an in-process merge service fed a closed loop of
  one-mode edits of design A, after a cold job that fills its cache.

Each run measures for ``--seconds`` (at least two passes), checks the
outputs against the paper's Table 5 and against each other, prints one
``sdc`` digest line per merged mode and one ``problem`` line per failed
check, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-A", "paper-BF", "serve-edit")

#: A repetition that runs longer than this has hung.
REP_TIMEOUT_S = 150


def tail(values: Sequence[float]) -> Tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile; below twenty samples this is the median (p50)."""
    n = len(values)
    pct = max(50, math.floor(100 * (n - 10) / n))
    if pct == 50:
        return statistics.median(values), pct
    return sorted(values)[math.ceil(pct * n / 100) - 1], pct


def paper(workload: str, seed: int, seconds: float, trace: bool,
          scale: float, work: Path) -> dict:
    """Fresh-process repetitions of one paper workload."""
    import inputs

    generation = []
    for _ in range(inputs.SETUP_REPEATS):
        started = time.perf_counter()
        designs = inputs.workload_text(workload, seed, scale)
        generation.append(time.perf_counter() - started)
    path = work / "inputs.json"
    path.write_text(json.dumps(designs))

    reps: List[dict] = []
    problems: List[str] = []
    started = time.perf_counter()
    while True:
        # With tracing, repetitions alternate untraced / traced, and the
        # last one is traced.
        traced = trace and len(reps) % 2 == 1
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "rep.py"), str(path),
                 repr(time.time()), "--trace", "1" if traced else "0"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rep = {"error": f"no result within {REP_TIMEOUT_S} s"}
        else:
            rep = json.loads(proc.stdout.splitlines()[-1]) \
                if proc.returncode == 0 else \
                {"error": proc.stderr.strip().splitlines()[-1:]}
        rep["traced"] = traced
        reps.append(rep)
        if "error" in rep or (time.perf_counter() - started >= seconds
                              and len(reps) >= 2 and (not trace or traced)):
            break

    expected = {d["name"]: inputs.TABLE5[d["name"]] for d in designs}
    groups_per_rep = sum(out for _in, out in expected.values())
    first = next((r for r in reps if "error" not in r), None)
    failed = 0
    for index, rep in enumerate(reps):
        if "error" in rep:
            failed += groups_per_rep
            problems.append(f"repetition {index} crashed: {rep['error']}")
            continue
        for design, reference in zip(rep["designs"], first["designs"]):
            name = design["name"]
            want_in, want_out = expected[name]
            bad = list(design["problems"])
            if (design["modes_in"], design["modes_out"]) != (want_in,
                                                             want_out):
                bad.append(f"{design['modes_in']} -> {design['modes_out']} "
                           f"modes, Table 5 says {want_in} -> {want_out}")
            if design["digests"] != reference["digests"]:
                bad.append("merged SDC differs from repetition 0")
            failed += min(len(bad), want_out)
            problems.extend(f"repetition {index} design {name}: {b}"
                            for b in bad)
    ok = [r for r in reps if "error" not in r]
    return {
        "setup_s": statistics.median(generation) + (
            statistics.median(r["ready_s"] for r in ok) if ok else 0.0),
        "passes": [r["wall_s"] for r in ok if not r["traced"]],
        "rss_mb": statistics.median(r["rss_mb"] for r in ok) if ok else 0.0,
        "modes_out": sum(d["modes_out"] for d in first["designs"])
        if first else 0,
        "attempted": groups_per_rep * len(reps),
        "failed": failed,
        "problems": problems,
        "digests": [(f"{d['name']}.{i}", digest)
                    for d in first["designs"]
                    for i, digest in enumerate(d["digests"])]
        if first else [],
        "traced": [r["trace"] for r in ok if r["traced"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="structural size of the designs; below 1.0 "
                             "only for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import serve_edit

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.workload == "serve-edit":
            result = serve_edit.run(args.seed, args.seconds,
                                    bool(args.trace), args.scale, work)
        else:
            result = paper(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it

    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["problems"])
    passes = result["passes"]
    if args.trace:
        checks = layers.self_check(args.workload, result["traced"])
        attempted += 1
        failed += bool(checks)
        problems.extend(f"trace self-check: {c}" for c in checks)
        values = layers.per_layer(result["traced"], passes)
        metrics = {name: {"value": value, "unit": layers.unit_of(name)}
                   for name, value in sorted(values.items())}
    else:
        wall = result.get("wall_s", statistics.median(passes))
        job_tail, pct = tail(passes)
        print(f"job_tail_s is p{pct} of {len(passes)} jobs")
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_s": {"value": statistics.median(passes), "unit": "s"},
            "job_tail_s": {"value": job_tail, "unit": "s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
            "modes_out": {"value": result["modes_out"], "unit": "count"},
            "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    for name, digest in result["digests"]:
        print(f"sdc {name} {digest}")
    for problem in problems:
        print(f"problem {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
