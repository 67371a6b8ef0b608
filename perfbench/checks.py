"""Output checks for every (design, flow) cell of a pass.

A cell fails when its flow raised, when its placement is illegal
(macro overlap, or a macro outside the die), when one of WL/GRC/WNS/TNS
is not finite, or when its row differs from the golden row recorded
for this workload and seed in ``golden.json``.  Rows are the
deterministic fields of ``FlowMetrics``; bit-identical rows are the
repository's contract, so the comparison is exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: ``FlowMetrics`` fields that are deterministic under a fixed seed
#: (everything except the timing and observability fields).
ROW_FIELDS = ("design", "flow", "wl_meters", "grc_percent",
              "wns_percent", "tns", "wl_norm", "macro_overlap", "lam")

#: ``eval_counters`` key the legality probe (``layers.legality_probe``)
#: writes: whether every macro of the scored placement is inside the die.
INSIDE_DIE_KEY = "perfbench_inside_die"


def row_record(cell: str, metrics) -> Dict[str, object]:
    """The checked view of one ``FlowMetrics`` row, keyed by its cell."""
    record: Dict[str, object] = {"cell": cell}
    for name in ROW_FIELDS:
        record[name] = getattr(metrics, name)
    record["inside_die"] = metrics.eval_counters.get(INSIDE_DIE_KEY)
    return record


def golden_view(record: Dict[str, object]) -> Dict[str, object]:
    return {key: record[key] for key in ("cell",) + ROW_FIELDS}


def rows_digest(records: Sequence[Dict[str, object]]) -> str:
    canon = json.dumps([golden_view(r) for r in records],
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def cell_problems(record: Dict[str, object]) -> List[str]:
    """Why one row fails the output check (empty when it passes)."""
    problems = []
    for name in ("wl_meters", "grc_percent", "wns_percent", "tns"):
        value = record[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}={value!r} is not finite")
    overlap = record["macro_overlap"]
    if not (isinstance(overlap, (int, float)) and overlap == 0.0):
        problems.append(f"macro overlap {overlap!r} != 0")
    if record["inside_die"] is not True:
        problems.append(f"macros inside die: {record['inside_die']!r}")
    return problems


def load_golden(workload: str, seed: int
                ) -> Optional[List[Dict[str, object]]]:
    """Golden rows for ``(workload, seed)``, or ``None`` if not shipped."""
    if not GOLDEN_PATH.exists():
        return None
    entry = json.loads(GOLDEN_PATH.read_text()).get(
        "workloads", {}).get(workload)
    if entry is None:
        return None
    if "any_seed" in entry:
        return entry["any_seed"]
    return entry.get("seeds", {}).get(str(seed))


def check_cells(cells: Sequence[str],
                records: Optional[Sequence[Dict[str, object]]],
                golden: Optional[Sequence[Dict[str, object]]],
                error: Optional[str] = None
                ) -> Tuple[int, List[str]]:
    """``(failed, messages)`` over the expected ``cells`` of one pass.

    ``records`` is ``None`` when the pass raised: every cell then
    counts as failed.  With ``golden`` rows, each row must equal its
    golden row exactly; differing rows are reported side by side.
    """
    if records is None:
        return len(cells), [f"pass raised: {error}"]
    by_cell = {r["cell"]: r for r in records}
    gold = {r["cell"]: r for r in golden} if golden is not None else {}
    failed = 0
    messages = []
    for cell in cells:
        record = by_cell.get(cell)
        if record is None:
            failed += 1
            messages.append(f"{cell}: no row")
            continue
        problems = cell_problems(record)
        if golden is not None:
            want = gold.get(cell)
            have = golden_view(record)
            if want != have:
                problems.append(f"row differs from golden\n"
                                f"    have {json.dumps(have)}\n"
                                f"    want {json.dumps(want)}")
        if problems:
            failed += 1
            messages.extend(f"{cell}: {p}" for p in problems)
    return failed, messages
