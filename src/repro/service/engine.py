"""The shared placement-execution engine behind suite and service.

One (design, flow) cell executes identically whether it was submitted
by ``run_suite`` (serial or pooled) or by
:class:`~repro.service.jobs.PlacementService`: :func:`execute_cell`
runs the flow through the registry and collapses the paper's hidap
labels.  In a pool worker, :func:`run_cell` first resolves the
prepared design from the worker-local cache or else from the job's
shared-memory handoff — workers never compile.

Worker bootstrap lives here too: :func:`init_worker` replays
third-party flow/backend registrations into spawn-mode workers, and
:func:`portable_flow_entries` / :func:`portable_backend_entries`
collect what to replay (warning — not silently dropping — entries that
cannot be pickled).
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.api.prepared import PreparedDesign
from repro.api.registry import get_flow, parse_flow_spec
from repro.api.run import FlowMetrics, RunOptions
from repro.obs import Tracer, use_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.shm import ShmHandoff

#: Per-process prepared-design cache (populated inside pool workers so
#: every flow scheduled on the same worker reuses flat/gnet/gseq — and,
#: with a store handoff, the attached compiled arrays).
_PREPARED_CACHE: Dict[Tuple[str, str], PreparedDesign] = {}


def portable_flow_entries():
    """Registry entries beyond the builtins, for shipping to workers.

    Under spawn/forkserver start methods a worker re-imports
    ``repro.api`` and only sees the builtin flows; third-party
    registrations must be replayed.  Entries whose factories cannot be
    pickled (lambdas, closures) cannot be replayed — each one emits a
    :class:`RuntimeWarning` naming the entry (they still work under
    fork, where workers inherit the registry).
    """
    import pickle

    from repro.api.flows import BUILTIN_FLOW_NAMES
    from repro.api.registry import _REGISTRY

    entries = []
    for name, entry in _REGISTRY.items():
        # Skip entries the worker's own `import repro.api` recreates:
        # a builtin name still bound to a builtin factory.  A builtin
        # class registered under a custom name (or a builtin name
        # overwritten with a custom factory) must be replayed.
        is_builtin = (
            name in BUILTIN_FLOW_NAMES
            and getattr(entry.factory, "__module__", None)
            == "repro.api.flows")
        if is_builtin:
            continue
        item = (name, entry.factory, entry.description)
        try:
            pickle.dumps(item)
        except Exception:
            warnings.warn(
                f"flow {name!r} has an unpicklable factory "
                f"({entry.factory!r}) and cannot be replayed into "
                "spawn-mode suite workers; it will be missing there "
                "(register a module-level callable to ship it)",
                RuntimeWarning, stacklevel=3)
            continue
        entries.append(item)
    return entries


def portable_backend_entries():
    """Third-party referee backends + the default name, for workers.

    Like flows, backend registrations live in-process: under
    spawn/forkserver a worker's ``import repro.metrics`` only recreates
    the builtin python/numpy backends, so custom backends (and a
    ``set_default_backend`` override) must be replayed.  Unpicklable
    backend objects cannot be — each emits a :class:`RuntimeWarning`
    naming the backend (they still work under fork).
    """
    import pickle

    from repro.metrics import (
        available_backends,
        default_backend_name,
        get_backend,
    )

    entries = []
    for name in available_backends():
        if name in ("python", "numpy"):
            continue
        backend = get_backend(name)
        try:
            pickle.dumps(backend)
        except Exception:
            warnings.warn(
                f"referee backend {name!r} ({backend!r}) is not "
                "picklable and cannot be replayed into spawn-mode "
                "suite workers; it will be missing there",
                RuntimeWarning, stacklevel=3)
            continue
        entries.append(backend)
    # Only replay a default the worker will actually be able to
    # resolve; an unpicklable custom default degrades to the builtin
    # default instead of crashing every worker.
    default = default_backend_name()
    if default not in {"python", "numpy"} | {b.name for b in entries}:
        default = None
    return entries, default


def init_worker(entries, backend_entries=(),
                default_backend=None) -> None:
    """Pool initializer: replay third-party flow/backend registrations.

    Runs once per worker process, before any task; the registry writes
    it performs are therefore init-time replay of the parent's state,
    not cross-task mutation.
    """
    from repro.api.registry import register_flow
    from repro.metrics import register_backend, set_default_backend

    for name, factory, description in entries:
        register_flow(name, factory, description=description,
                      overwrite=True)
    for backend in backend_entries:
        register_backend(backend, overwrite=True)
    if default_backend is not None:
        set_default_backend(default_backend)


def prepared_for(scale: str, name: str,
                 handoff: "ShmHandoff") -> PreparedDesign:
    """This process's prepared design for ``(scale, name)``.

    The process-local cache first, else the shared-memory ``handoff``
    (attach compiled arrays + unpickle graphs — zero compile work).
    """
    key = (scale, name)
    prepared = _PREPARED_CACHE.get(key)
    if prepared is None:
        prepared = handoff.materialize()
        # Worker-local memo of the immutable PreparedDesign: filled
        # once per (scale, name) per process, never read across
        # processes, and the cached value is frozen — determinism does
        # not depend on which worker attached it.
        _PREPARED_CACHE[key] = prepared  # repro: noqa[REP009] frozen memo
    return prepared


def execute_cell(prepared: PreparedDesign, flow: str,
                 options: RunOptions) -> FlowMetrics:
    """Run one (prepared design, flow) cell through the registry."""
    metrics = get_flow(flow, seed=options.seed, effort=options.effort,
                       referee_backend=options.referee_backend
                       ).evaluate(prepared)
    # The paper reports every builtin hidap variant simply as "hidap".
    # Match the parsed registry name, not a spec prefix, so that
    # third-party flows named e.g. "hidap-mine" keep their own label.
    name, _params = parse_flow_spec(flow)
    if name in ("hidap", "hidap-best3"):
        metrics.flow = "hidap"
    return metrics


def run_cell(scale: str, design_name: str, flow: str,
             options: RunOptions, handoff: "ShmHandoff"
             ) -> Tuple[str, str, FlowMetrics, str,
                        Optional[Dict[str, Any]]]:
    """One (design, flow) cell, executed inside a pool worker.

    With ``options.trace`` set, the cell runs under a worker-local
    tracer and ships its span-tree payload back through the pool's
    result path; it shows ``store.attach`` on the worker's first cell
    of a design and no ``prepare.*`` compile span ever.  One tracer per
    cell (not per worker) keeps payload transport on the existing
    result channel with no worker-exit hooks.
    """
    if not options.tracing:
        prepared = prepared_for(scale, design_name, handoff)
        metrics = execute_cell(prepared, flow, options)
        return design_name, flow, metrics, prepared.info(), None
    tracer = Tracer(f"worker-{os.getpid()}")
    with use_tracer(tracer):
        with tracer.span("suite.task", design=design_name, flow=flow):
            prepared = prepared_for(scale, design_name, handoff)
            metrics = execute_cell(prepared, flow, options)
    return design_name, flow, metrics, prepared.info(), tracer.payload()
