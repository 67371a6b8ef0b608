#!/usr/bin/env python
"""Suite-runtime benchmark: serial vs pooled compiled-design store.

Runs the comparison suite three ways — serial, parallel against a
cold :class:`repro.service.CompiledDesignStore` (compile + persist),
and parallel against the now-warm store (memory-mapped load +
shared-memory handoff, zero compile work in workers) — verifies all
three produce bit-identical rows, and writes wall-clock numbers to
``benchmarks/artifacts/BENCH_suite.json`` so future changes have a
performance trajectory to compare against.  (A parallel run with no
store named compiles into a temporary store, i.e. it runs the
cold-store path.)

Row identity across all three phases is the hard gate; the warm-store
speedup target (warm parallel >= 1.0x of serial) is a soft gate that
warns on loaded/single-core runners.

Not collected by pytest (the file is not ``test_*``); run directly:

    PYTHONPATH=src python benchmarks/bench_suite_runtime.py \
        [--scale tiny] [--designs c1,c2] [--flows indeda,handfp] \
        [--effort fast] [--workers 4] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time

from repro.api import (
    DEFAULT_FLOWS,
    RunOptions,
    run_suite,
    split_flow_specs,
)
from repro.core.config import Effort


def _rows_key(result):
    return [(r.design, r.flow, r.wl_meters, r.grc_percent,
             r.wns_percent, r.tns, r.wl_norm) for r in result.rows]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "bench", "full"))
    parser.add_argument("--designs", default="c1,c2",
                        help="comma-separated subset ('all' for every "
                             "design)")
    parser.add_argument("--flows", default=",".join(DEFAULT_FLOWS))
    parser.add_argument("--effort", default="fast",
                        choices=("fast", "normal", "high"))
    parser.add_argument("--workers", type=int,
                        default=max(2, min(4, os.cpu_count() or 1)))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: "
                             "benchmarks/artifacts/BENCH_suite.json)")
    args = parser.parse_args()

    designs = (None if args.designs == "all"
               else args.designs.split(","))
    flows = tuple(split_flow_specs(args.flows))
    options = RunOptions(seed=args.seed, effort=Effort(args.effort))

    common = dict(scale=args.scale, designs=designs, flows=flows,
                  options=options)
    store_dir = tempfile.mkdtemp(prefix="hidap-bench-store-")
    phases = {}
    results = {}

    def timed(label, **kwargs):
        print(f"{label} run: scale={args.scale} "
              f"designs={args.designs} flows={','.join(flows)} "
              f"effort={args.effort}")
        t0 = time.perf_counter()
        results[label] = run_suite(**common, **kwargs)
        phases[label] = time.perf_counter() - t0

    try:
        timed("serial")
        timed("cold_store", workers=args.workers, store=store_dir)
        timed("warm_store", workers=args.workers, store=store_dir)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    baseline = _rows_key(results["serial"])
    identical = all(_rows_key(results[p]) == baseline
                    for p in ("cold_store", "warm_store"))
    warm_speedup = (phases["serial"] / phases["warm_store"]
                    if phases["warm_store"] else 0.0)

    record = {
        "bench": "suite_runtime",
        "scale": args.scale,
        "designs": args.designs,
        "flows": list(flows),
        "effort": args.effort,
        "seed": args.seed,
        "workers": args.workers,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "serial_seconds": round(phases["serial"], 3),
        "cold_store_seconds": round(phases["cold_store"], 3),
        "warm_store_seconds": round(phases["warm_store"], 3),
        "warm_store_speedup": round(warm_speedup, 3),
        "rows": len(results["serial"].rows),
        "rows_identical": identical,
    }

    out = args.out or os.path.join(os.path.dirname(__file__),
                                   "artifacts", "BENCH_suite.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"\nserial      {phases['serial']:7.1f}s")
    print(f"cold store  {phases['cold_store']:7.1f}s  "
          f"(compile + persist, {args.workers} workers)")
    print(f"warm store  {phases['warm_store']:7.1f}s  "
          f"(x{warm_speedup:.2f} vs serial)")
    print(f"rows identical: {identical}")
    if warm_speedup < 1.0:
        print(f"WARNING: warm-store parallel slower than serial "
              f"(x{warm_speedup:.2f}; soft gate — expected on "
              f"loaded/single-core runners)")
    print(f"wrote {out}")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
