"""End-to-end placement benchmark: one workload, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 1 \\
        --seconds 10 --trace 0

A run cold-compiles the workload's designs into fresh compiled-design
stores (each set-up in a fresh interpreter; ``setup_s`` is the median),
then times untraced ``run_suite`` passes against the last store, each
in a fresh interpreter, until ``--seconds`` have been measured (at
least one pass).  ``--trace 1`` instead runs one traced set-up, one
untraced pass and one traced pass, and reports the per-layer ledger in
place of the end-to-end metrics.  Every row of every pass is checked
(``perfbench/checks.py``).  Human-readable tables go to stdout; the
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.layers import build_ledger, worker_cells  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    REPORT_ONLY,
    UNITS,
    layer_values,
    quality,
)
from perfbench.workloads import WORKLOADS, reduced  # noqa: E402

#: Cold set-ups per untraced run; ``setup_s`` is their median.  Runs
#: stop at two once set-up has taken ``SETUP_BUDGET_S`` in total.
SETUP_REPS = 3
SETUP_BUDGET_S = 5.0
#: A run must exit within this many seconds of its start.
DEADLINE_S = 170.0
#: Host-speed probe.  The speed of this kind of shared host drifts by
#: up to 2x over minutes, which would swamp any change a pass can show.
#: So two fixed pure-Python loops, which are no part of the program, are
#: timed during every run: one on a small working set (core speed) and
#: one walking a dict of ``CAL_KEYS`` entries (cache and memory speed,
#: which neighbours on the host also take).  The speed also swings by a
#: quarter within seconds, so the loops are timed once before every
#: step and once at the end, spreading the probes over the run.
#: Declared times are scaled by ``CAL_REF_S`` over the median loop time
#: of the probes: they read as seconds on a host where the loops take
#: ``CAL_REF_S``.  Raw seconds are printed next to them.  Set-up runs
#: in one process, so it is scaled by the loops timed in one process.
#: A pooled pass keeps every vCPU busy, and the vCPUs of a shared host
#: slow down unevenly, so its scale comes from the loops timed in as
#: many concurrent processes as the pool has workers.
CAL_ITERS = 500_000
CAL_KEYS = 150_001
CAL_REF_S = 0.2
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"


class StepFailed(RuntimeError):
    pass


def run_step(step: str, args, store: Path, out: Path, deadline: float,
             trace: bool = False) -> dict:
    """Run one ``child.py`` step in a fresh interpreter; return its record."""
    command = [sys.executable, str(ROOT / "perfbench" / "child.py"), step,
               "--workload", args.workload, "--seed", str(args.seed),
               "--store", str(store), "--out", str(out)]
    if trace:
        command.append("--trace")
    if args.reduced:
        command.append("--reduced")
    env = dict(os.environ)
    env["TMPDIR"] = str(store.parent)
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise StepFailed(f"no time left for {step}")
    # Its own process group, so that pool workers and the shared-memory
    # resource tracker the step starts can be found and stopped with it.
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_group(child.pid, grace=0.0)
        child.communicate()
        raise StepFailed(f"{step} timed out after {timeout:.0f}s") from None
    _stop_group(child.pid, grace=5.0)
    if child.returncode != 0 or not out.exists():
        raise StepFailed(f"{step} exited {child.returncode}:\n{output}")
    return json.loads(out.read_text())


def _stop_group(pgid: int, grace: float) -> None:
    """Wait up to ``grace`` s for a step's processes to end, then kill them."""
    end = time.monotonic() + grace
    try:
        while time.monotonic() < end:
            os.killpg(pgid, 0)
            time.sleep(0.05)
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _core_loop() -> None:
    table: dict = {}
    acc = 0.0
    for i in range(CAL_ITERS):
        table[i & 1023] = table.get(i & 1023, 0.0) + i * 0.5
        acc += (i % 7) * 1.0001


def _memory_loop() -> None:
    table: dict = {}
    key = 1
    for step in range(2 * CAL_KEYS):
        key = (key * 1103515245 + 12345) & 0x3FFFFFFF
        if step < CAL_KEYS:
            table[key % CAL_KEYS] = (step, key)
        else:
            table.get(key % CAL_KEYS)


def _loop_seconds(_index: int = 0) -> float:
    """One timing of each host-speed loop, summed."""
    start = time.perf_counter()
    _core_loop()
    _memory_loop()
    return time.perf_counter() - start


def calibrate(procs: int) -> Tuple[float, float]:
    """``(one process, mean over procs concurrent processes)`` loop time."""
    single = _loop_seconds()
    if procs == 1:
        return single, single
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(procs, mp_context=context) as pool:
        return single, statistics.fmean(
            pool.map(_loop_seconds, range(procs)))


def environment() -> dict:
    """Where and on what the run happened."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": commit,
            "src_digest": digest.hexdigest()[:16]}


def check_passes(workload, seed: int, passes, use_golden: bool = True):
    """``(attempted, failed, messages)`` over every pass's cells."""
    cells = [f"{design}/{flow}" for design in workload.designs
             for flow in workload.flows]
    golden = checks.load_golden(workload.name, seed) if use_golden else None
    messages = []
    if golden is None:
        # No shipped golden rows for this seed: the first clean pass
        # is the reference every other pass must reproduce exactly.
        first = next((p["rows"] for p in passes if p["rows"]), None)
        golden = ([checks.golden_view(r) for r in first]
                  if first is not None else None)
        messages.append(f"note: no golden rows for seed {seed}; "
                        "passes are compared with each other")
    want = checks.rows_digest(golden) if golden is not None else None
    attempted = failed = 0
    for index, record in enumerate(passes):
        if record["rows"] is not None:
            have = checks.rows_digest(record["rows"])
            messages.append(f"pass {index}: rows digest {have[:16]} "
                            f"{'==' if have == want else '!='} golden "
                            f"{(want or 'none')[:16]}")
        bad, notes = checks.check_cells(cells, record["rows"], golden,
                                        record.get("error"))
        attempted += len(cells)
        failed += bad
        messages.extend(f"pass {index}: {note}" for note in notes)
    return attempted, failed, messages


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, values: dict) -> None:
    print(f"{title}:")
    for name, value in values.items():
        print(f"  {name:32s} {fmt(value):>14s} {UNITS.get(name, '')}")


def print_ledger(title: str, ledger, wall: float) -> None:
    print(f"{title} (calls, inclusive s, self s, self share of wall):")
    for layer, row in sorted(ledger.rows.items(),
                             key=lambda item: -item[1].self_s):
        print(f"  {layer:24s} {row.calls:7d} {row.incl_s:10.3f} "
              f"{row.self_s:10.3f} {row.self_s / wall:7.1%}")
    print(f"  {'(unattributed)':24s} {'':7s} {'':10s} "
          f"{ledger.unattributed_s:10.3f} {ledger.unattributed_s / wall:7.1%}")


def measure(args, work: Path) -> dict:
    """Set up, run the passes, check them; return the run record."""
    workload = WORKLOADS[args.workload]
    if args.reduced:
        workload = reduced(workload)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    store = work / "store"
    procs = workload.workers or 1
    probes = []

    def step(name: str, out: Path, trace: bool = False) -> dict:
        probes.append(calibrate(procs))
        return run_step(name, args, store, out, deadline, trace=trace)

    setups = []
    if args.trace:
        # The traced set-up feeds the set-up ledger; set-up time itself
        # is reported by untraced runs only.
        setups.append(step("setup", work / "setup.json", trace=True))
    reps = 1 if args.reduced else SETUP_REPS
    while not args.trace and len(setups) < reps and (
            len(setups) < 2 or sum(s["setup_s"] for s in setups)
            < SETUP_BUDGET_S):
        shutil.rmtree(store, ignore_errors=True)
        setups.append(step("setup", work / f"setup{len(setups)}.json"))
    passes = []
    measured = 0.0
    # A traced run needs one untraced pass only, for the trace overhead.
    while not passes or (not args.trace and measured < args.seconds
                         and time.monotonic() + passes[-1]["wall_s"] * 1.5
                         < deadline):
        record = step("pass", work / f"pass{len(passes)}.json")
        print(f"pass {len(passes)}: wall {record['wall_s']:.3f}s "
              f"cpu {record['cpu_s']:.3f}s "
              f"rss {record['peak_rss_mb']:.1f}MB load "
              f"{record['load_before'][0]:.2f}->"
              f"{record['load_after'][0]:.2f}", flush=True)
        passes.append(record)
        measured += record["wall_s"]
    traced = None
    if args.trace:
        traced = step("pass", work / "pass-traced.json", trace=True)
    probes.append(calibrate(procs))
    checked = passes + ([traced] if traced else [])
    attempted, failed, messages = check_passes(
        workload, args.seed, checked, use_golden=not args.reduced)
    return {"workload": workload, "setups": setups, "passes": passes,
            "traced": traced,
            "probes": probes,
            "attempted": attempted, "failed": failed,
            "messages": messages, "elapsed_s": time.monotonic() - start}


def end_to_end(run: dict) -> dict:
    passes = run["passes"]
    raw = {
        "wall_raw_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_raw_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_raw_s": statistics.median(s["setup_s"]
                                         for s in run["setups"]),
    }
    factor = CAL_REF_S / statistics.median(p[1] for p in run["probes"])
    setup_factor = CAL_REF_S / statistics.median(
        p[0] for p in run["probes"])
    values = {name.replace("_raw", ""): seconds * (
        setup_factor if name == "setup_raw_s" else factor)
        for name, seconds in raw.items()}
    values["peak_rss_mb"] = statistics.median(
        p["peak_rss_mb"] for p in passes)
    values.update(raw)
    values["host_factor"] = factor
    values["setup_host_factor"] = setup_factor
    values.update(quality(next(p["rows"] for p in passes if p["rows"])))
    values["failed_frac"] = run["failed"] / run["attempted"]
    return values


def per_layer(run: dict):
    """``(values, setup ledger, pass ledger)`` of the traced steps."""
    traced = run["traced"]
    traced_setup = run["setups"][0]
    setup = build_ledger(traced_setup["payloads"], traced_setup["setup_s"])
    payloads = traced.get("payloads") or []
    ledger = build_ledger(payloads, traced["wall_s"])
    busy = sum(task["t1"] - task["t0"]
               for _payload, task in worker_cells(payloads))
    values = layer_values(
        setup, (traced_setup["entries"], traced_setup["bytes"]),
        ledger, traced["wall_s"],
        statistics.median(p["wall_s"] for p in run["passes"]),
        traced.get("queue_waits", ()), traced.get("jobs_failed", 0), busy)
    return values, setup, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="seconds-long inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment()
        workload = WORKLOADS[args.workload]
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"
              f"{' reduced' if args.reduced else ''}")
        print(f"  why: {workload.why}")
        print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        try:
            run = measure(args, work)
        except StepFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"setup{' (traced)' if args.trace else ''}: "
          + " ".join(f"{s['setup_s']:.3f}s" for s in run["setups"]))
    for message in run["messages"]:
        print(message)
    if not any(p["rows"] for p in run["passes"]):
        print("perfbench: no pass produced rows", file=sys.stderr)
        return 1
    e2e = end_to_end(run)
    report = {name: e2e[name] for name, _unit, _better in END_TO_END}
    report.update({name: e2e[name] for name, _unit in REPORT_ONLY
                   if name in e2e})
    print_table("end-to-end (untraced passes, medians; times x host_factor"
                + ("; set-up traced)" if args.trace else ")"), report)
    result = {name: {"value": e2e[name], "unit": unit}
              for name, unit, _better in END_TO_END}
    record = {"env": env, "args": vars(args), "end_to_end": report,
              "setups": [{k: v for k, v in s.items() if k != "payloads"}
                         for s in run["setups"]],
              "attempted": run["attempted"],
              "failed": run["failed"], "messages": run["messages"],
              "probes_s": run["probes"],
              "passes": [{k: v for k, v in p.items() if k != "rows"}
                         for p in run["passes"]]}
    if args.trace:
        values, setup, ledger = per_layer(run)
        traced_wall = run["traced"]["wall_s"]
        print_ledger("set-up ledger (traced)", setup,
                     run["setups"][0]["setup_s"])
        print_ledger("pass ledger (traced)", ledger, traced_wall)
        print_table("per-layer", values)
        result = {name: {"value": values[name], "unit": unit}
                  for name, unit, _better in PER_LAYER}
        record["per_layer"] = values
        record["ledger"] = {layer: vars(row)
                            for layer, row in ledger.rows.items()}
    print(f"cells: {run['attempted']} attempted, {run['failed']} failed; "
          f"run took {run['elapsed_s']:.1f}s")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
