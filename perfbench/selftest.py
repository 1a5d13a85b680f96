"""Fast self-test of the benchmark: each workload once, at a quarter size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced (seed 7) and traced
(seed 12345), neither of them the default seed, and checks that each run
exits 0, passes its own output checks (Table 5 mode counts included) and
emits exactly the metrics BENCHMARK.json names, each with its unit.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SCALE = "0.25"
SEEDS = {0: 7, 1: 12345}


def check(workload: str, trace: int, wanted: dict) -> str:
    """An error message, or "" when the run is sound."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEEDS[trace]), "--seconds", "0",
           "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        problems = [line for line in proc.stdout.splitlines()
                    if line.startswith("problem ")]
        return f"incorrect: {problems[:5]}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted)
                       if got[n] != wanted[n])
        return f"metrics differ: missing {missing} extra {extra} " \
               f"units {units}"
    return ""


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            error = check(workload, trace, wanted[trace])
            print(f"{workload} --trace {trace}: {error or 'ok'}", flush=True)
            if error:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
