#!/usr/bin/env python
"""Per-span-name before/after table of two trace artifacts.

For every span name found in either trace it prints the call count and
total seconds in A, the same in B, and the delta B - A in seconds,
sorted by the size of the delta.  Both traces may be in either format
``tools/trace_summary.py`` reads (Chrome trace JSON or the JSONL event
log).

Usage::

    python tools/trace_diff.py before.json after.json
    python tools/trace_diff.py before.json after.jsonl --top 20
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.trace_summary import load_spans, summarize  # noqa: E402

# (name, count A, seconds A, count B, seconds B)
Row = Tuple[str, int, float, int, float]


def _totals(path: str) -> Dict[str, Tuple[int, float]]:
    return {name: (count, total)
            for name, (total, count, _peak, _pids)
            in summarize(load_spans(path)).items()}


def diff_rows(before: str, after: str) -> List[Row]:
    """Rows for every span name of either trace, largest |delta| first.

    Ties keep name order, so the table is stable.
    """
    a, b = _totals(before), _totals(after)
    rows = []
    for name in sorted(set(a) | set(b)):
        count_a, seconds_a = a.get(name, (0, 0.0))
        count_b, seconds_b = b.get(name, (0, 0.0))
        rows.append((name, count_a, seconds_a, count_b, seconds_b))
    rows.sort(key=lambda row: -abs(row[4] - row[2]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="trace A (Chrome JSON or JSONL)")
    parser.add_argument("after", help="trace B (Chrome JSON or JSONL)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows to print (default 25)")
    args = parser.parse_args(argv)

    rows = diff_rows(args.before, args.after)
    if not rows:
        print("no spans in either trace")
        return 1
    print(f"{'A n':>6} {'A s':>9} {'B n':>6} {'B s':>9} "
          f"{'delta s':>9}  span")
    for name, count_a, seconds_a, count_b, seconds_b in rows[:args.top]:
        print(f"{count_a:6d} {seconds_a:9.3f} {count_b:6d} "
              f"{seconds_b:9.3f} {seconds_b - seconds_a:+9.3f}  {name}")
    if len(rows) > args.top:
        print(f"... {len(rows) - args.top} more span name(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
