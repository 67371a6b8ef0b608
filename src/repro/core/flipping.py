"""Macro flipping: the orientation post-pass (Algorithm 1, line 6).

Once macro locations are fixed, each macro can still be mirrored inside
its footprint.  Pin positions move with the orientation, so choosing
flips well shortens the nets attached to macro pins ("macro side
dataflow").  The pass greedily sweeps the macros, picking for each the
footprint-preserving orientation minimizing the HPWL of its incident
nets, until a sweep changes nothing.

:func:`flip_macros` scores on arrays.  It builds one table per call
from the design's cached ``NetArrays``: a row per macro pin on an
incident net (net, macro, as-drawn offset) and a static min/max box per
net (standard-cell region centres and top ports).  For the macro being
swept it reduces the box of everything else on each incident net once,
then scores all of its mirror orientations in one array computation.
Per-net HPWL is exact min/max arithmetic and each orientation's cost is
summed sequentially in incident order, so every decision matches
:func:`flip_macros_reference`, the per-pin loop kept as the test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point
from repro.metrics.netarrays import (
    KIND_MACRO,
    KIND_PORT,
    NetArrays,
    net_arrays_for,
)
from repro.netlist.cells import CellType
from repro.netlist.flatten import FlatDesign


@dataclass
class _FlipNet:
    """One flat net touching at least one macro pin."""

    static_points: List[Point] = field(default_factory=list)
    macro_pins: List[Tuple[int, str, int]] = field(default_factory=list)

    def interesting(self) -> bool:
        return bool(self.macro_pins) and (
            len(self.macro_pins) + len(self.static_points) >= 2)


def _collect_nets(flat: FlatDesign, placement: MacroPlacement,
                  port_positions: Dict[str, Point]) -> List[_FlipNet]:
    nets: List[_FlipNet] = []
    for net in flat.nets:
        fn = _FlipNet()
        for cell_index, pin, bit in net.endpoints:
            cell = flat.cells[cell_index]
            if cell.is_macro and cell_index in placement.macros:
                fn.macro_pins.append((cell_index, pin, bit))
            else:
                region = placement.region_of_cell(flat, cell_index)
                fn.static_points.append(region.center)
        for port_name, _bit in net.top_ports:
            pos = port_positions.get(port_name)
            if pos is not None:
                fn.static_points.append(pos)
        if fn.interesting():
            nets.append(fn)
    return nets


def _net_hpwl(fn: _FlipNet, flat: FlatDesign,
              placement: MacroPlacement) -> float:
    xs: List[float] = []
    ys: List[float] = []
    for p in fn.static_points:
        xs.append(p.x)
        ys.append(p.y)
    for cell_index, pin, bit in fn.macro_pins:
        pos = placement.macros[cell_index].pin_position(flat, pin, bit)
        xs.append(pos.x)
        ys.append(pos.y)
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


class _SweptMacro:
    """One macro's slice of the pin table and its candidate positions.

    ``rows`` are the macro's pin rows in incident order (net order, then
    pin order within a net), so ``nets[own_seg]`` lists a net once per
    macro pin on it, as the reference's ``nets_of_macro`` does.
    ``cand_x``/``cand_y`` hold the pin positions under each orientation
    of ``group`` (``Orientation.flips_of`` order), one row each.
    """

    def __init__(self, rows: np.ndarray, pin_net: np.ndarray,
                 pin_macro: np.ndarray, cell_index: int,
                 px: np.ndarray, py: np.ndarray, placed: PlacedMacro,
                 ctype: CellType):
        self.rows = rows
        own_nets = pin_net[rows]
        self.nets, self.starts, self.own_seg = np.unique(
            own_nets, return_index=True, return_inverse=True)
        others = (np.isin(pin_net, self.nets)
                  & (pin_macro != cell_index))
        self.other_rows = np.flatnonzero(others)
        self.other_seg = np.searchsorted(self.nets,
                                         pin_net[self.other_rows])
        self.group = Orientation.flips_of(placed.orientation)
        self.current = self.group.index(placed.orientation)
        xs, ys = [], []
        for orient in self.group:
            ox, oy = orient.pin_offset(px[rows], py[rows],
                                       ctype.width, ctype.height)
            xs.append(placed.rect.x + ox)
            ys.append(placed.rect.y + oy)
        self.cand_x = np.stack(xs)
        self.cand_y = np.stack(ys)

    def costs(self, lo_x: np.ndarray, hi_x: np.ndarray,
              lo_y: np.ndarray, hi_y: np.ndarray,
              cur_x: np.ndarray, cur_y: np.ndarray) -> List[float]:
        """Incident-net HPWL of every orientation in ``group``.

        ``lo_*``/``hi_*`` are the static boxes of every flat net and
        ``cur_*`` the current position of every pin row.
        """
        # The box of everything else on each incident net.
        lo_x = lo_x[self.nets]
        hi_x = hi_x[self.nets]
        lo_y = lo_y[self.nets]
        hi_y = hi_y[self.nets]
        other_x = cur_x[self.other_rows]
        other_y = cur_y[self.other_rows]
        np.minimum.at(lo_x, self.other_seg, other_x)
        np.maximum.at(hi_x, self.other_seg, other_x)
        np.minimum.at(lo_y, self.other_seg, other_y)
        np.maximum.at(hi_y, self.other_seg, other_y)
        # Joined with this macro's pins, one row per orientation.
        reduce_lo = np.minimum.reduceat
        reduce_hi = np.maximum.reduceat
        span_x = (np.maximum(hi_x, reduce_hi(self.cand_x, self.starts, 1))
                  - np.minimum(lo_x, reduce_lo(self.cand_x, self.starts, 1)))
        span_y = (np.maximum(hi_y, reduce_hi(self.cand_y, self.starts, 1))
                  - np.minimum(lo_y, reduce_lo(self.cand_y, self.starts, 1)))
        per_pin = (span_x + span_y)[:, self.own_seg]
        # Sequential sums in incident order, as the reference adds them.
        return [sum(row) for row in per_pin.tolist()]


def _gather(flags: np.ndarray, ref: np.ndarray,
            mask: np.ndarray) -> np.ndarray:
    """``flags[ref]`` on the rows in ``mask``, False elsewhere."""
    out = np.zeros(len(ref), dtype=bool)
    out[mask] = flags[ref[mask]]
    return out


def _flip_table(flat: FlatDesign, arrays: NetArrays,
                placement: MacroPlacement,
                port_positions: Dict[str, Point]):
    """The incident-net table of one flip call over compiled ``arrays``.

    Returns ``(rows, boxes)``: the compiled endpoint rows that are
    placed-macro pins on a net :func:`_collect_nets` keeps, in net
    order, and the static ``(lo_x, hi_x, lo_y, hi_y)`` box of every
    flat net (``±inf`` where a net has no static point).  Standard
    cells and unplaced macros sit at their module's region centre,
    looked up once per module path; top ports without a position are
    left out, as in :func:`_collect_nets`.
    """
    kind, ref, net_of_row = arrays.kind, arrays.ref, arrays.net_of_row
    macro_row = kind == KIND_MACRO
    placed = np.array([cell in placement.macros
                       for cell in arrays.macro_cells.tolist()], dtype=bool)
    pin_row = _gather(placed, ref, macro_row)
    # Only nets with a placed-macro pin can be kept.
    candidate = np.zeros(arrays.n_nets, dtype=bool)
    candidate[net_of_row[pin_row]] = True
    candidate = candidate[net_of_row]

    cell_row = candidate & ~pin_row & (kind != KIND_PORT)
    cell_of_row = ref.copy()
    cell_of_row[macro_row] = arrays.macro_cells[ref[macro_row]]
    cell_ids, cell_inverse = np.unique(cell_of_row[cell_row],
                                       return_inverse=True)
    centre_of: Dict[str, Point] = {}
    cell_x, cell_y = [], []
    for cell_index in cell_ids.tolist():
        path = flat.cells[cell_index].module_path
        centre = centre_of.get(path)
        if centre is None:
            centre = placement.region_of_cell(flat, cell_index).center
            centre_of[path] = centre
        cell_x.append(centre.x)
        cell_y.append(centre.y)

    known = [port_positions.get(name) for name in arrays.port_names]
    port_row = candidate & _gather(
        np.array([pos is not None for pos in known], dtype=bool),
        ref, kind == KIND_PORT)
    port_x = np.array([0.0 if pos is None else pos.x for pos in known])
    port_y = np.array([0.0 if pos is None else pos.y for pos in known])

    static_net = np.concatenate([net_of_row[cell_row],
                                 net_of_row[port_row]])
    static_x = np.concatenate([np.array(cell_x)[cell_inverse],
                               port_x[ref[port_row]]])
    static_y = np.concatenate([np.array(cell_y)[cell_inverse],
                               port_y[ref[port_row]]])
    lo_x = np.full(arrays.n_nets, np.inf)
    hi_x = np.full(arrays.n_nets, -np.inf)
    lo_y = np.full(arrays.n_nets, np.inf)
    hi_y = np.full(arrays.n_nets, -np.inf)
    np.minimum.at(lo_x, static_net, static_x)
    np.maximum.at(hi_x, static_net, static_x)
    np.minimum.at(lo_y, static_net, static_y)
    np.maximum.at(hi_y, static_net, static_y)

    n_pins = np.bincount(net_of_row[pin_row], minlength=arrays.n_nets)
    n_static = np.bincount(static_net, minlength=arrays.n_nets)
    kept = (n_pins >= 1) & (n_pins + n_static >= 2)
    rows = np.flatnonzero(pin_row & kept[net_of_row])
    return rows, (lo_x, hi_x, lo_y, hi_y)


def flip_macros(flat: FlatDesign, placement: MacroPlacement,
                port_positions: Optional[Dict[str, Point]] = None,
                max_passes: int = 4) -> int:
    """Greedily flip macros to reduce incident-net HPWL.

    Mutates orientations in ``placement``; returns the number of
    orientation changes applied.  Footprints never change, so the
    placement stays geometrically identical apart from pin positions.
    Picks the same orientations as :func:`flip_macros_reference`.
    """
    arrays = net_arrays_for(flat)
    rows, boxes = _flip_table(flat, arrays, placement, port_positions or {})
    pin_net = arrays.net_of_row[rows]
    pin_macro = arrays.macro_cells[arrays.ref[rows]]
    px = arrays.pin_dx[rows]
    py = arrays.pin_dy[rows]

    cur_x = np.zeros(len(rows))
    cur_y = np.zeros(len(rows))
    swept: List[Tuple[int, _SweptMacro]] = []
    for cell_index in sorted(placement.macros):
        own = np.flatnonzero(pin_macro == cell_index)
        if not len(own):
            continue
        macro = _SweptMacro(own, pin_net, pin_macro, cell_index, px, py,
                            placement.macros[cell_index],
                            flat.cells[cell_index].ctype)
        cur_x[own] = macro.cand_x[macro.current]
        cur_y[own] = macro.cand_y[macro.current]
        swept.append((cell_index, macro))

    total_flips = 0
    for _sweep in range(max_passes):
        changed = False
        for cell_index, macro in swept:
            costs = macro.costs(*boxes, cur_x, cur_y)
            start = best = macro.current
            best_cost = costs[start]
            for i, cost in enumerate(costs):
                if i != start and cost < best_cost - 1e-9:
                    best_cost = cost
                    best = i
            if best != start:
                macro.current = best
                cur_x[macro.rows] = macro.cand_x[best]
                cur_y[macro.rows] = macro.cand_y[best]
                placement.macros[cell_index].orientation = macro.group[best]
                changed = True
                total_flips += 1
        if not changed:
            break
    return total_flips


def flip_macros_reference(flat: FlatDesign, placement: MacroPlacement,
                          port_positions: Optional[Dict[str, Point]] = None,
                          max_passes: int = 4) -> int:
    """:func:`flip_macros` as a per-pin loop: the equivalence oracle.

    Re-derives every incident net's HPWL from pin positions for each
    candidate orientation.  Same arguments, result and mutation as
    :func:`flip_macros`.
    """
    port_positions = port_positions or {}
    nets = _collect_nets(flat, placement, port_positions)
    nets_of_macro: Dict[int, List[_FlipNet]] = {}
    for fn in nets:
        for cell_index, _pin, _bit in fn.macro_pins:
            nets_of_macro.setdefault(cell_index, []).append(fn)

    total_flips = 0
    for _sweep in range(max_passes):
        changed = False
        for cell_index in sorted(placement.macros):
            incident = nets_of_macro.get(cell_index)
            if not incident:
                continue
            placed = placement.macros[cell_index]
            start_orient = placed.orientation
            best_orient = start_orient
            best_cost = sum(_net_hpwl(fn, flat, placement)
                            for fn in incident)
            for orient in Orientation.flips_of(start_orient):
                if orient is start_orient:
                    continue
                placed.orientation = orient
                cost = sum(_net_hpwl(fn, flat, placement)
                           for fn in incident)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_orient = orient
            placed.orientation = best_orient
            if best_orient is not start_orient:
                changed = True
                total_flips += 1
        if not changed:
            break
    return total_flips
