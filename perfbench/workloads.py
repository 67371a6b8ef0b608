"""The benchmark's named workloads.

Every workload runs the public entry point ``repro.api.run_suite`` at
``effort=fast`` over fixed suite specs; only the placement seed comes
from ``--seed``.  ``reduced()`` shrinks a workload for the smoke test
while keeping every layer it exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

#: The paper's three-flow protocol (``repro.api.DEFAULT_FLOWS``).
PAPER_FLOWS = ("indeda", "hidap-best3", "handfp")

TINY_ALL = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str
    designs: Tuple[str, ...]
    flows: Tuple[str, ...]
    #: ``None`` runs serially in-process; ``N`` uses a pool of N workers.
    workers: Optional[int]
    why: str


WORKLOADS = {
    "paper-suite": Workload(
        name="paper-suite", scale="tiny", designs=("c1", "c2"),
        flows=PAPER_FLOWS, workers=None,
        why="Table II/III protocol; annealer-heavy (best3 sweeps three "
            "lambdas, handfp adds two HiDaP runs per design)"),
    "full-scale": Workload(
        name="full-scale", scale="full", designs=("c4", "c5"),
        flows=("hidap", "indeda", "handfp-strip"), workers=None,
        why="scale point: compile/referee grow with cells (c4), "
            "floorplan/flip with macros (c5); single lambda, no sweep"),
    # ``handfp-strip`` is not run here: it returns overlapping macros on
    # tiny c2, c4, c5, c6 and c7, so its cells fail the legality check.
    # The strip placer is still timed inside ``handfp`` on paper-suite.
    "pooled-warm": Workload(
        name="pooled-warm", scale="tiny", designs=TINY_ALL,
        flows=("indeda",), workers=2,
        why="no annealer: indeda baseline, referee and the service path "
            "(store hit, shm export, pool start, attach, dispatch)"),
}


#: One placement per flow instead of several (same layers, fewer runs).
_REDUCED_FLOWS = {"hidap-best3": "hidap", "handfp": "handfp-strip"}


def reduced(workload: Workload) -> Workload:
    """A seconds-long variant with the same layers and pool."""
    designs = ("c1", "c8") if workload.workers else ("c1",)
    flows = tuple(_REDUCED_FLOWS.get(flow, flow) for flow in workload.flows)
    return replace(workload, scale="tiny", designs=designs, flows=flows)
