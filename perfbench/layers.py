"""Per-layer ledger: wrappers around each layer's public functions.

``traced_layers()`` wraps the functions named in :data:`TARGETS` so
every call records a ``bench:<layer>`` span (plus counts taken from the
call's arguments and result) into the active :mod:`repro.obs` tracer,
and restores the originals on exit.  Pool workers are forked while the
wrappers are installed, so they inherit them, and their spans come
back in the per-cell trace payloads that ``run_suite`` already ships.
:func:`build_ledger` turns those payloads into per-layer calls,
inclusive and self time, summed counts, and the ``(unattributed)``
remainder.

``legality_probe()`` is the one wrapper every pass installs, traced or
not: it marks each referee row with whether all macros of the scored
placement lie inside the die (the row itself carries the overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.checks import INSIDE_DIE_KEY

SPAN_PREFIX = "bench:"

Counts = Callable[[tuple, dict, object], Dict[str, float]]


def _shapecurve_counts(args, kwargs, result):
    stats = kwargs.get("stats")
    if stats is None:
        return {}
    return {"cost_evals": stats.cost_evals,
            "compose_hits": stats.curve_compose_hits,
            "compose_misses": stats.curve_compose_misses}


def _floorplan_counts(args, kwargs, result):
    planner = args[0]
    stats = planner.stats
    # RecursiveFloorplanner bumps ``_level_seed`` once per
    # generate_layout call, so it counts the layouts of this run.
    return {"layouts": planner._level_seed,
            "cost_evals": stats.cost_evals,
            "cost_cache_hits": stats.cost_cache_hits,
            "nodes_total": stats.layout_nodes_total,
            "nodes_expanded": stats.layout_nodes_expanded,
            "subtree_hits": stats.subtree_hits,
            "subtree_misses": stats.subtree_misses}


_REFEREE_KERNELS = ("stdcell", "locate", "hpwl", "congestion", "timing")


def _referee_counts(args, kwargs, result):
    counters = result.eval_counters
    return {f"{kernel}_us": counters.get(f"referee_{kernel}_us", 0)
            for kernel in _REFEREE_KERNELS}


def _segment_counts(args, kwargs, result):
    return {"bytes": result.shm.size}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``func`` or ``Class.method``."""

    layer: str
    module: str
    attr: str
    counts: Optional[Counts] = None


TARGETS: Tuple[Target, ...] = (
    Target("gen.build", "repro.gen.designs", "build_design"),
    Target("gen.build", "repro.gen.designs", "die_for"),
    Target("netlist.flatten", "repro.netlist.flatten", "flatten"),
    Target("hiergraph.gnet", "repro.hiergraph.gnet", "build_gnet"),
    Target("hiergraph.gseq", "repro.hiergraph.gseq", "build_gseq"),
    Target("hiergraph.tree", "repro.hiergraph.hierarchy",
           "build_hierarchy"),
    Target("metrics.compile", "repro.placement.cluster", "cluster_cells"),
    Target("metrics.compile", "repro.metrics.netarrays",
           "compile_net_arrays"),
    Target("metrics.compile", "repro.metrics.stdcell_kernel",
           "compile_stdcell_arrays"),
    Target("metrics.compile", "repro.metrics.timing_kernel",
           "compile_timing_arrays"),
    Target("store.save", "repro.service.store", "CompiledDesignStore.save"),
    Target("store.load", "repro.service.store", "CompiledDesignStore.load"),
    Target("store.load", "repro.service.store", "StoreEntry.materialize"),
    Target("shm.export", "repro.service.shm", "export_entry",
           _segment_counts),
    Target("shm.attach", "repro.service.shm", "ShmHandoff.materialize"),
    Target("jobs.wait", "repro.service.jobs", "JobHandle.result"),
    Target("shapecurve", "repro.shapecurve.generation",
           "generate_shape_curves", _shapecurve_counts),
    Target("floorplan", "repro.core.recursive", "RecursiveFloorplanner.run",
           _floorplan_counts),
    Target("flip", "repro.core.flipping", "flip_macros",
           lambda args, kwargs, result: {"macros_flipped": result}),
    Target("legalize", "repro.core.legalize", "legalize_macros",
           lambda args, kwargs, result: {"moves": result}),
    Target("referee", "repro.api.run", "evaluate_placement",
           _referee_counts),
    Target("baselines.indeda", "repro.baselines.indeda", "place_indeda"),
    Target("baselines.handfp_strip", "repro.baselines.handfp",
           "place_handfp"),
)

#: Modules imported before patching, so that every ``from X import f``
#: binding already exists (and is found and restored) when wrappers go in.
_PRELOAD = ("repro.api", "repro.api.pipeline", "repro.api.flows",
            "repro.service", "repro.service.engine", "repro.service.jobs",
            "repro.service.shm", "repro.service.store",
            "repro.baselines.indeda", "repro.baselines.handfp")


def _layer_span(layer: str):
    from repro.obs import current_tracer
    return current_tracer().span(SPAN_PREFIX + layer)


def _wrap(fn, layer: str, counts: Optional[Counts]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _layer_span(layer) as span:
            result = fn(*args, **kwargs)
            if counts is not None:
                span.set(**counts(args, kwargs, result))
        return result
    return wrapper


def _timed_pool_class(base):
    """``ProcessPoolExecutor`` whose start-up lands in ``jobs.pool_start``.

    CPython forks each worker in ``_spawn_process`` (called from the
    first ``submit``); construction plus those forks is the pool's
    start-up cost in the submitting process.
    """

    class TimedPool(base):
        def __init__(self, *args, **kwargs):
            with _layer_span("jobs.pool_start"):
                super().__init__(*args, **kwargs)

        def _spawn_process(self):
            with _layer_span("jobs.pool_start"):
                super()._spawn_process()

    return TimedPool


def _bindings(original) -> List[Tuple[object, str]]:
    """Every ``(repro module, global name)`` bound to ``original``."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


@contextmanager
def _patched(replacements) -> Iterator[None]:
    """Install ``(owner, attr, new)`` triples; restore all on exit."""
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def _target_replacements(targets) -> List[Tuple[object, str, object]]:
    replacements = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            wrapped = _wrap(vars(owner)[attr], target.layer, target.counts)
            replacements.append((owner, attr, wrapped))
            continue
        original = getattr(module, attr)
        wrapped = _wrap(original, target.layer, target.counts)
        replacements.extend((owner, name, wrapped)
                            for owner, name in _bindings(original))
    return replacements


@contextmanager
def traced_layers(handles: List[object]) -> Iterator[None]:
    """Wrap every :data:`TARGETS` callable for the duration of the block.

    ``handles`` collects the ``JobHandle`` of every pooled submit.
    """
    for name in _PRELOAD:
        importlib.import_module(name)
    from concurrent.futures import ProcessPoolExecutor

    def collect(args, kwargs, handle):
        handles.append(handle)
        return {}

    submit = Target("jobs.submit", "repro.service.jobs",
                    "PlacementService.submit", collect)
    replacements = _target_replacements(TARGETS + (submit,))
    pool = _timed_pool_class(ProcessPoolExecutor)
    replacements.extend((owner, name, pool)
                        for owner, name in _bindings(ProcessPoolExecutor))
    with _patched(replacements):
        yield


def _probe_inside_die(fn):
    @functools.wraps(fn)
    def probe(flat, placement, *args, **kwargs):
        metrics = fn(flat, placement, *args, **kwargs)
        metrics.eval_counters[INSIDE_DIE_KEY] = placement.macros_inside_die()
        return metrics
    return probe


@contextmanager
def legality_probe() -> Iterator[None]:
    """Record die containment on every referee row (see module doc)."""
    for name in _PRELOAD:
        importlib.import_module(name)
    from repro.api.run import evaluate_placement

    probe = _probe_inside_die(evaluate_placement)
    with _patched([(owner, name, probe)
                   for owner, name in _bindings(evaluate_placement)]):
        yield


# -- the ledger -------------------------------------------------------------


@dataclass
class LayerRow:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


class Ledger:
    """Per-layer calls, inclusive/self seconds and summed span counts."""

    def __init__(self) -> None:
        self.rows: Dict[str, LayerRow] = {}
        self.counts: Dict[str, float] = {}
        #: Seconds of each process's root interval under no layer span.
        self.unattributed_s = 0.0

    def count(self, layer: str, key: str) -> float:
        return self.counts.get(f"{layer}.{key}", 0.0)

    def row(self, layer: str) -> LayerRow:
        return self.rows.get(layer, LayerRow())

    def _visit(self, span: Dict, open_layers: Tuple[str, ...]) -> float:
        """Record ``span``'s subtree; return seconds its layer spans cover."""
        name = span["name"]
        children = span.get("children", ())
        if not name.startswith(SPAN_PREFIX):
            return sum(self._visit(child, open_layers) for child in children)
        layer = name[len(SPAN_PREFIX):]
        seconds = span["t1"] - span["t0"]
        inner = open_layers + (layer,)
        covered = sum(self._visit(child, inner) for child in children)
        row = self.rows.setdefault(layer, LayerRow())
        row.calls += 1
        row.self_s += seconds - covered
        if layer not in open_layers:
            row.incl_s += seconds
        for key, value in span.get("attrs", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                full = f"{layer}.{key}"
                self.counts[full] = self.counts.get(full, 0) + value
        return seconds

    def add_interval(self, seconds: float, spans) -> None:
        """Add one process interval of ``seconds`` covering ``spans``."""
        covered = sum(self._visit(span, ()) for span in spans)
        self.unattributed_s += seconds - covered


def worker_cells(payloads) -> List[Tuple[Dict, Dict]]:
    """``(payload, suite.task span)`` for every pool-worker cell."""
    cells = []
    for payload in payloads[1:]:
        for span in payload.get("spans", ()):
            if span["name"] == "suite.task":
                cells.append((payload, span))
    return cells


def build_ledger(payloads, main_wall: float) -> Ledger:
    """Ledger of one traced suite pass.

    ``payloads[0]`` is the main process, observed for ``main_wall``
    seconds; every later payload is one pool-worker cell, observed for
    its ``suite.task`` span.
    """
    ledger = Ledger()
    if payloads:
        ledger.add_interval(main_wall, payloads[0].get("spans", ()))
    for _payload, task in worker_cells(payloads):
        # suite.task is a program span, not a layer: its duration is
        # the interval and its layer descendants the coverage.
        ledger.add_interval(task["t1"] - task["t0"], [task])
    return ledger


def span_wall(payload: Dict, perf_time: float) -> float:
    """A span timestamp of ``payload`` on the wall clock."""
    return payload["wall_anchor"] + (perf_time - payload["perf_anchor"])


def queue_waits(handles, payloads) -> List[float]:
    """Seconds each pooled job waited between submit and worker start."""
    starts = {}
    for payload, task in worker_cells(payloads):
        attrs = task.get("attrs", {})
        starts[(attrs.get("design"), attrs.get("flow"))] = span_wall(
            payload, task["t0"])
    waits = []
    for handle in handles:
        queued = [e.wall for e in handle.events() if e.name == "job.queued"]
        start = starts.get((handle.design, handle.flow))
        if queued and start is not None:
            waits.append(max(0.0, start - queued[0]))
    return waits
