"""Record the golden rows the benchmark checks every pass against.

Usage, from the repository root::

    python3 perfbench/golden.py --workload paper-suite --seeds 1-10
    python3 perfbench/golden.py --workload pooled-warm --seeds 1-3 \\
        --seed-free

Runs one untraced pass per seed (each in a fresh interpreter, against
one freshly compiled store) and writes the rows into
``perfbench/golden.json``.  ``--seed-free`` is for workloads whose flows
take no seed: it requires every seed to give the same rows and stores
them once, for any seed.  Rows are bit-identical by the repository's
contract, so a change that alters them on purpose must re-record them
here and say why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.checks import GOLDEN_PATH, cell_problems, golden_view  # noqa: E402
from perfbench.run import WORK_DIR, run_step  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one seed or an inclusive range, e.g. 1-10")
    parser.add_argument("--seed-free", action="store_true")
    args = parser.parse_args(argv)

    work = WORK_DIR / f"golden-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + 3600.0
    by_seed = {}
    try:
        step = SimpleNamespace(workload=args.workload, seed=0, reduced=False)
        run_step("setup", step, work / "store", work / "setup.json",
                 deadline)
        for seed in args.seeds:
            step.seed = seed
            record = run_step("pass", step, work / "store",
                              work / f"pass{seed}.json", deadline)
            if record["rows"] is None:
                print(f"seed {seed}: pass raised\n{record['error']}")
                return 1
            for row in record["rows"]:
                for problem in cell_problems(row):
                    print(f"seed {seed}: {row['cell']}: {problem}")
            by_seed[str(seed)] = [golden_view(r) for r in record["rows"]]
            print(f"seed {seed}: {len(record['rows'])} rows", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    golden = (json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists()
              else {"workloads": {}})
    if args.seed_free:
        distinct = {json.dumps(rows, sort_keys=True)
                    for rows in by_seed.values()}
        if len(distinct) != 1:
            print("rows differ between seeds; not seed-free")
            return 1
        entry = {"any_seed": next(iter(by_seed.values()))}
    else:
        entry = golden["workloads"].get(args.workload, {})
        entry.pop("any_seed", None)
        entry.setdefault("seeds", {}).update(by_seed)
        entry["seeds"] = dict(sorted(entry["seeds"].items(),
                                     key=lambda item: int(item[0])))
    golden["workloads"][args.workload] = entry
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
