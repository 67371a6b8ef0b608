"""Suite runner: the c1..c8 comparison behind Tables II and III.

``run_suite`` is a thin client of the placement service layer
(:mod:`repro.service`): serial runs execute cells inline through
:func:`repro.service.engine.execute_cell`; ``workers=N`` runs submit
every (design, flow) pair to a :class:`repro.service.PlacementService`
pool.  Rows are returned in deterministic serial order — design order
of ``suite_specs``, then flow order — so a parallel run is row-for-row
identical to a serial one.

Pooled workers never compile: they attach each design's compiled
arrays through shared memory.  ``store=`` names a
:class:`repro.service.CompiledDesignStore` (or a directory for one),
so designs are compiled at most once, ever — a warm store skips every
``prepare.*`` compile.  Without a store, a pooled run compiles into a
temporary store that the service removes on close, and a serial run
prepares each design in-process.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

from repro.api.prepared import prepare_design
from repro.api.run import RunOptions
from repro.gen.designs import select_suite_specs
from repro.obs import (
    NULL_TRACER,
    Tracer,
    perf_seconds,
    use_tracer,
    write_chrome_trace,
)
from repro.service import engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.run import FlowMetrics
    from repro.service.store import CompiledDesignStore

DEFAULT_FLOWS = ("indeda", "hidap-best3", "handfp")


@dataclass
class SuiteResult:
    """All rows plus bookkeeping for table formatting."""

    rows: List["FlowMetrics"] = field(default_factory=list)
    design_info: Dict[str, str] = field(default_factory=dict)
    total_seconds: float = 0.0
    #: Tracer payloads (one per traced process, serial task order)
    #: when ``options.trace`` was set; ``None`` otherwise.
    #: Timing-only — excluded from every row/table comparison.
    trace: Optional[List[Dict[str, Any]]] = None

    def rows_for(self, design: str) -> List["FlowMetrics"]:
        return [r for r in self.rows if r.design == design]


def _resolve_store(store) -> Optional["CompiledDesignStore"]:
    if store is None:
        return None
    from repro.service.store import CompiledDesignStore

    if isinstance(store, CompiledDesignStore):
        return store
    return CompiledDesignStore(store)


def run_suite(scale: str = "bench",
              flows: Sequence[str] = DEFAULT_FLOWS,
              designs: Optional[Sequence[str]] = None,
              verbose: bool = False,
              workers: Optional[int] = None,
              options: Optional[RunOptions] = None,
              store=None) -> SuiteResult:
    """Run every flow on every (selected) suite design.

    ``workers=None`` (or 1) runs serially in-process; ``workers=N``
    submits the (design, flow) pairs to a
    :class:`repro.service.PlacementService` pool of ``N`` workers.
    Both modes produce identical rows in identical order.

    ``designs`` selects suite designs by name (``None`` → all); an
    unknown name raises
    :class:`~repro.gen.designs.UnknownDesignError`.

    ``options`` carries the run knobs (:class:`RunOptions`: seed,
    effort, referee backend, trace — see :mod:`repro.api.run` for the
    one trace semantics shared by every entry point).

    ``store`` (a directory path or a
    :class:`repro.service.CompiledDesignStore`) persists compiled
    designs across runs and processes: cold entries are compiled once
    in the main process (``store.miss`` + ``store.compile`` spans) and
    warm ones memory-map back (``store.hit``).  Pooled workers always
    attach the arrays through shared memory (``store.attach``) with
    zero ``prepare.*`` compile spans — with no store named, from a
    temporary one.  Rows are bit-identical with and without a store.

    Tracing records the main process plus every (design, flow) cell —
    including cells inside pool workers, whose span trees ride back on
    the pool's result path.  Payloads land on ``SuiteResult.trace`` in
    serial task order, main process first.  Tracing never changes rows
    (asserted in ``tests/test_obs_determinism.py``).
    """
    from repro.eval.tables import normalize_to_handfp

    opts = options if options is not None else RunOptions()
    start = perf_seconds()
    tracing = opts.tracing
    tracer = Tracer("main") if tracing else None
    result = SuiteResult()
    specs = select_suite_specs(scale, designs)
    flows = tuple(flows)
    tasks = [(spec.name, flow) for spec in specs for flow in flows]
    payloads: Dict[Tuple[str, str], Dict[str, Any]] = {}

    if workers is not None and workers > 1 and len(tasks) > 1:
        from repro.service.jobs import PlacementService, iter_completed

        with use_tracer(tracer) if tracing else nullcontext():
            with PlacementService(scale=scale,
                                  designs=[s.name for s in specs],
                                  store=store, workers=workers,
                                  options=opts) as service:
                handles = {(name, flow): service.submit(name, flow)
                           for name, flow in tasks}
                if verbose:
                    for handle in iter_completed(handles.values()):
                        print(handle.result().row(), flush=True)
                for name, flow in tasks:           # serial row order
                    handle = handles[(name, flow)]
                    metrics = handle.result()
                    result.design_info.setdefault(
                        name, handle.design_info)
                    result.rows.append(metrics)
                    if handle.trace_payload is not None:
                        payloads[(name, flow)] = handle.trace_payload
    else:
        suite_store = _resolve_store(store)
        with use_tracer(tracer) if tracing else nullcontext():
            active = tracer if tracing else NULL_TRACER
            for spec in specs:
                if suite_store is not None:
                    prepared = suite_store.ensure_spec(
                        spec).materialize()
                else:
                    prepared = prepare_design(spec)
                result.design_info[spec.name] = prepared.info()
                for flow in flows:
                    with active.span("suite.task", design=spec.name,
                                     flow=flow):
                        metrics = engine.execute_cell(prepared, flow,
                                                      opts)
                    result.rows.append(metrics)
                    if verbose:
                        print(metrics.row(), flush=True)

    normalize_to_handfp(result.rows)
    result.total_seconds = perf_seconds() - start
    if tracing:
        tracer.metrics.gauge("suite.total_seconds",
                             result.total_seconds)
        tracer.metrics.label("suite.scale", scale)
        result.trace = [tracer.payload()] + [
            payloads[key] for key in tasks if key in payloads]
        if opts.trace_path is not None:
            write_chrome_trace(opts.trace_path, result.trace)
    return result
