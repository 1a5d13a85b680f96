"""Seeded inputs of the benchmark workloads, and the expected outputs.

The program under test only ever sees text: structural Verilog for the
netlist and one SDC file per mode, rendered here from the paper-suite
generator.  The mode counts below are copied from Table 5 of the paper,
not read from ``repro.workloads.designs``, so a change to the suite
cannot silently move the expected answer.
"""

from __future__ import annotations

import os
import random
import re
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: Table 5 of the paper: design -> (modes in, merged modes out).
TABLE5: Dict[str, Tuple[int, int]] = {
    "A": (95, 16),
    "B": (3, 1),
    "C": (12, 3),
    "D": (3, 1),
    "E": (5, 1),
    "F": (3, 2),
}

#: Set-up generates the inputs this many times and keeps the median time.
SETUP_REPEATS = 5

#: Designs each workload merges; serve-edit serves design A.
DESIGNS: Dict[str, Tuple[str, ...]] = {
    "paper-A": ("A",),
    "paper-BF": ("B", "C", "D", "E", "F"),
    "serve-edit": ("A",),
}


@contextmanager
def _suite_seed(seed: Optional[int]):
    """Reseed the paper suite the way ``REPRO_BENCH_SEED`` does; None
    selects the suite's own default seeds."""
    from repro.workloads.seeding import SEED_ENV

    previous = os.environ.pop(SEED_ENV, None)
    if seed is not None:
        os.environ[SEED_ENV] = str(seed)
    try:
        yield
    finally:
        os.environ.pop(SEED_ENV, None)
        if previous is not None:
            os.environ[SEED_ENV] = previous


def design_text(name: str, seed: Optional[int],
                scale: float = 1.0) -> dict:
    """One design as ``{"name", "netlist", "modes": [[mode, sdc], ...],
    "groups": {group: [mode, ...]}}``, modes in generator order."""
    from repro.netlist import write_verilog
    from repro.sdc import write_mode
    from repro.workloads.designs import paper_suite
    from repro.workloads.generator import generate

    with _suite_seed(seed):
        workload = generate(paper_suite(scale)[name].spec)
    groups: Dict[str, List[str]] = {}
    for mode in workload.modes:
        groups.setdefault(workload.group_of[mode.name], []).append(mode.name)
    return {
        "name": name,
        "netlist": write_verilog(workload.netlist),
        "modes": [[mode.name, write_mode(mode)] for mode in workload.modes],
        "groups": groups,
    }


def workload_text(workload: str, seed: int, scale: float = 1.0) -> List[dict]:
    return [design_text(name, seed, scale) for name in DESIGNS[workload]]


def edit_target(design: dict, seed: int) -> str:
    """The mode serve-edit keeps editing: a seeded member of the largest
    group.  Any member dirties the same group, so the seed changes the
    edits but not the amount of work a job does."""
    largest = max(design["groups"].values(), key=len)
    return random.Random(seed).choice(sorted(largest))


_TRANSITION = re.compile(r"^set_input_transition (\S+) (.*)$", re.M)


def edit_mode(text: str) -> str:
    """One more edit of a mode: its first input transition grows by one
    part in 10^4.

    Each edit gives the mode a new fingerprint, and a few hundred edits
    stay far inside the 10% merge tolerance, so the mode stays mergeable
    with its group and the merged mode count does not move.
    """
    match = _TRANSITION.search(text)
    if match is None:
        raise ValueError("mode has no set_input_transition to edit")
    value = float(match.group(1)) * 1.0001
    return (text[:match.start()]
            + f"set_input_transition {value:.9g} {match.group(2)}"
            + text[match.end():])
