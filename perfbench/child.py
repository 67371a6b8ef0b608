"""One measured step of a benchmark run, in a fresh interpreter.

``run.py`` starts this script once per set-up and once per pass, so
no step inherits warm in-process state (the prepared-design cache that
forked pool workers would copy, shared-memory attachments, compile
caches) from another; the compiled-design store on disk is the only
state a pass reuses.  The step writes one JSON record to ``--out``::

    python3 perfbench/child.py setup --workload paper-suite \\
        --store DIR --out FILE [--trace] [--reduced]
    python3 perfbench/child.py pass --workload paper-suite --seed 1 \\
        --store DIR --out FILE [--trace] [--reduced]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import layers  # noqa: E402
from perfbench.checks import row_record  # noqa: E402
from perfbench.workloads import WORKLOADS, reduced  # noqa: E402


def _store_stats(store: Path):
    """``(entries, bytes)`` of a compiled-design store directory."""
    entries = [meta.parent for meta in store.rglob("meta.json")]
    size = sum(path.stat().st_size for entry in entries
               for path in entry.iterdir() if path.is_file())
    return len(entries), size


def run_setup(workload, store: Path, trace: bool):
    """Cold-compile every design of ``workload`` into a fresh store."""
    from repro.gen.designs import suite_specs
    from repro.obs import NULL_TRACER, Tracer, use_tracer
    from repro.service.store import CompiledDesignStore

    specs = [spec for spec in suite_specs(workload.scale)
             if spec.name in workload.designs]
    target = CompiledDesignStore(store)
    tracer = Tracer("setup")
    start = time.perf_counter()
    with (layers.traced_layers([]) if trace else nullcontext()), \
            use_tracer(tracer if trace else NULL_TRACER):
        for spec in specs:
            target.ensure_spec(spec)
    seconds = time.perf_counter() - start
    entries, size = _store_stats(store)
    record = {"setup_s": seconds, "entries": entries, "bytes": size}
    if trace:
        record["payloads"] = [tracer.payload()]
    return record


def run_pass(workload, seed: int, store: Path, trace: bool):
    """One timed ``run_suite`` pass against the warm store."""
    from repro.api import RunOptions, run_suite

    options = RunOptions(seed=seed, effort="fast", trace=trace or None)
    handles = []
    load_before = os.getloadavg()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {"load_before": load_before}
    with layers.legality_probe():
        start = time.perf_counter()
        try:
            with layers.traced_layers(handles) if trace else nullcontext():
                result = run_suite(
                    scale=workload.scale, designs=workload.designs,
                    flows=workload.flows, workers=workload.workers,
                    store=str(store), options=options)
        except Exception:  # noqa: BLE001 - a raising pass is a result
            result = None
            record["error"] = traceback.format_exc(limit=8)
        wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    record.update({
        "wall_s": wall,
        "cpu_s": (self1.ru_utime + self1.ru_stime
                  - self0.ru_utime - self0.ru_stime
                  + kids1.ru_utime + kids1.ru_stime
                  - kids0.ru_utime - kids0.ru_stime),
        # ru_maxrss is in KiB on Linux; children = the largest worker.
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        "load_after": os.getloadavg(),
        "rows": None,
    })
    if result is None:
        return record
    cells = [f"{design}/{flow}" for design in workload.designs
             for flow in workload.flows]
    record["rows"] = [row_record(cell, row)
                      for cell, row in zip(cells, result.rows)]
    if trace:
        record["payloads"] = result.trace
        record["queue_waits"] = layers.queue_waits(handles, result.trace)
        record["jobs_failed"] = sum(
            1 for handle in handles
            if any(e.name == "job.failed" for e in handle.events()))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--store", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.reduced:
        workload = reduced(workload)
    if args.step == "setup":
        record = run_setup(workload, args.store, args.trace)
    else:
        record = run_pass(workload, args.seed, args.store, args.trace)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
