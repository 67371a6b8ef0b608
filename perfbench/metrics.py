"""The benchmark's metrics: names, units, directions and how to compute them.

``END_TO_END`` is what a user of the suite sees, measured on untraced
passes; ``PER_LAYER`` comes from the traced pass's ledger.  Every
``*_s`` layer time is *self* time: seconds inside the layer's wrapped
calls minus the seconds of layer calls nested in them.  ``BENCHMARK.json``
declares the same lists (the smoke test keeps the two in step).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

from perfbench.layers import Ledger

MB = float(1 << 20)

#: Printed on stdout and returned in the result line (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Printed on stdout only.  ``*_raw_s`` are the measured seconds that
#: ``run.py`` scales by ``host_factor`` (passes) and
#: ``setup_host_factor`` (set-up) into the declared times.  The
#: quality figures are fixed by the seed
#: (rows are bit-identical), so they carry no measurement noise to
#: bound; they vary by up to a quarter between seeds, and the golden
#: row check already fails any change to them.  ``hidap_wl_norm``
#: exists only on workloads that run HiDaP.  ``failed_frac`` is the
#: result line's ``failed``/``attempted``.
REPORT_ONLY: Tuple[Tuple[str, str], ...] = (
    ("wall_raw_s", "s"),
    ("cpu_raw_s", "s"),
    ("setup_raw_s", "s"),
    ("host_factor", "ratio"),
    ("setup_host_factor", "ratio"),
    ("hidap_wl_norm", "ratio"),
    ("indeda_wl_norm", "ratio"),
    ("grc_pct_mean", "%"),
    ("wns_pct_mean", "%"),
    ("failed_frac", "frac"),
)

#: Printed on stdout and returned in the result line (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("gen.build_s", "s", "lower"),
    ("netlist.flatten_s", "s", "lower"),
    ("hiergraph.gnet_s", "s", "lower"),
    ("hiergraph.gseq_s", "s", "lower"),
    ("hiergraph.tree_s", "s", "lower"),
    ("metrics.compile_s", "s", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.entry_mb", "MB", "lower"),
    ("store.load_s", "s", "lower"),
    ("shm.export_s", "s", "lower"),
    ("shm.segment_mb", "MB", "lower"),
    ("shm.attach_s", "s", "lower"),
    ("shm.attaches", "count", "lower"),
    ("jobs.pool_start_s", "s", "lower"),
    ("jobs.queue_wait_s", "s", "lower"),
    ("jobs.busy_s", "s", "lower"),
    ("jobs.failed", "count", "lower"),
    ("shapecurve.s", "s", "lower"),
    ("shapecurve.calls", "count", "lower"),
    ("shapecurve.cost_evals", "count", "lower"),
    ("shapecurve.compose_hit_ratio", "ratio", "higher"),
    ("floorplan.s", "s", "lower"),
    ("floorplan.calls", "count", "lower"),
    ("floorplan.layouts", "count", "lower"),
    ("floorplan.cost_evals", "count", "lower"),
    ("floorplan.cost_cache_hit_ratio", "ratio", "higher"),
    ("floorplan.expand_ratio", "ratio", "lower"),
    ("floorplan.subtree_hit_ratio", "ratio", "higher"),
    ("flip.s", "s", "lower"),
    ("flip.calls", "count", "lower"),
    ("flip.macros_flipped", "count", "lower"),
    ("legalize.s", "s", "lower"),
    ("legalize.moves", "count", "lower"),
    ("referee.s", "s", "lower"),
    ("referee.calls", "count", "lower"),
    ("referee.stdcell_s", "s", "lower"),
    ("referee.locate_s", "s", "lower"),
    ("referee.hpwl_s", "s", "lower"),
    ("referee.congestion_s", "s", "lower"),
    ("referee.timing_s", "s", "lower"),
    ("baselines.indeda_s", "s", "lower"),
    ("baselines.indeda_calls", "count", "lower"),
    ("baselines.handfp_strip_s", "s", "lower"),
    ("suite.unattributed_s", "s", "lower"),
    ("suite.trace_overhead_frac", "frac", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
UNITS.update(dict(REPORT_ONLY))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def quality(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Table II/III figures of one pass's rows (flows by label)."""
    out: Dict[str, float] = {}
    for label in ("hidap", "indeda"):
        norms = [r["wl_norm"] for r in rows if r["flow"] == label]
        if norms and all(n > 0 for n in norms):
            out[f"{label}_wl_norm"] = geomean(norms)
    out["grc_pct_mean"] = statistics.fmean(r["grc_percent"] for r in rows)
    out["wns_pct_mean"] = statistics.fmean(r["wns_percent"] for r in rows)
    return out


def layer_values(setup: Ledger, setup_bytes: Tuple[int, int],
                 traced: Ledger, traced_wall: float, untraced_wall: float,
                 queue_waits: Sequence[float], jobs_failed: int,
                 busy_s: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from the set-up and pass ledgers."""
    entries, size = setup_bytes
    c = traced.count
    values = {
        "gen.build_s": setup.row("gen.build").self_s,
        "netlist.flatten_s": setup.row("netlist.flatten").self_s,
        "hiergraph.gnet_s": setup.row("hiergraph.gnet").self_s,
        "hiergraph.gseq_s": setup.row("hiergraph.gseq").self_s,
        "hiergraph.tree_s": setup.row("hiergraph.tree").self_s,
        "metrics.compile_s": setup.row("metrics.compile").self_s,
        "store.save_s": setup.row("store.save").self_s,
        "store.entry_mb": size / entries / MB if entries else 0.0,
        "store.load_s": traced.row("store.load").self_s,
        "shm.export_s": traced.row("shm.export").self_s,
        "shm.segment_mb": c("shm.export", "bytes") / MB,
        "shm.attach_s": traced.row("shm.attach").self_s,
        "shm.attaches": traced.row("shm.attach").calls,
        "jobs.pool_start_s": traced.row("jobs.pool_start").self_s,
        "jobs.queue_wait_s": sum(queue_waits),
        "jobs.busy_s": busy_s,
        "jobs.failed": jobs_failed,
        "shapecurve.s": traced.row("shapecurve").self_s,
        "shapecurve.calls": traced.row("shapecurve").calls,
        "shapecurve.cost_evals": c("shapecurve", "cost_evals"),
        "shapecurve.compose_hit_ratio": _ratio(
            c("shapecurve", "compose_hits"),
            c("shapecurve", "compose_hits")
            + c("shapecurve", "compose_misses")),
        "floorplan.s": traced.row("floorplan").self_s,
        "floorplan.calls": traced.row("floorplan").calls,
        "floorplan.layouts": c("floorplan", "layouts"),
        "floorplan.cost_evals": c("floorplan", "cost_evals"),
        "floorplan.cost_cache_hit_ratio": _ratio(
            c("floorplan", "cost_cache_hits"), c("floorplan", "cost_evals")),
        "floorplan.expand_ratio": _ratio(
            c("floorplan", "nodes_expanded"), c("floorplan", "nodes_total")),
        "floorplan.subtree_hit_ratio": _ratio(
            c("floorplan", "subtree_hits"),
            c("floorplan", "subtree_hits")
            + c("floorplan", "subtree_misses")),
        "flip.s": traced.row("flip").self_s,
        "flip.calls": traced.row("flip").calls,
        "flip.macros_flipped": c("flip", "macros_flipped"),
        "legalize.s": traced.row("legalize").self_s,
        "legalize.moves": c("legalize", "moves"),
        "referee.s": traced.row("referee").self_s,
        "referee.calls": traced.row("referee").calls,
        "baselines.indeda_s": traced.row("baselines.indeda").self_s,
        "baselines.indeda_calls": traced.row("baselines.indeda").calls,
        "baselines.handfp_strip_s": traced.row(
            "baselines.handfp_strip").self_s,
        "suite.unattributed_s": traced.unattributed_s,
        "suite.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for kernel in ("stdcell", "locate", "hpwl", "congestion", "timing"):
        values[f"referee.{kernel}_s"] = c("referee", f"{kernel}_us") / 1e6
    return values
