"""Tests for corner placement and the flipping post-pass."""

import copy
import random

import pytest

from repro.api import prepare_suite_design
from repro.core import HiDaP, HiDaPConfig
from repro.core.config import Effort
from repro.core.corners import corner_candidates, place_single_macro
from repro.core.flipping import (
    _collect_nets,
    flip_macros,
    flip_macros_reference,
)
from repro.core.result import MacroPlacement, PlacedMacro
from repro.geometry.orientation import Orientation
from repro.geometry.rect import Point, Rect
from repro.netlist.builder import ModuleBuilder
from repro.netlist.cells import (
    Direction,
    PinGeometry,
    PortDef,
    Side,
    macro_cell,
)
from repro.netlist.core import Design
from repro.netlist.flatten import flatten


class TestCornerCandidates:
    def test_four_corners(self):
        region = Rect(0, 0, 10, 10)
        rects = corner_candidates(region, 3, 2)
        assert len(rects) == 4
        for rect in rects:
            assert region.contains_rect(rect)
        corners = {(r.x, r.y) for r in rects}
        assert (0, 0) in corners
        assert (7, 8) in corners

    def test_oversized_centered(self):
        region = Rect(0, 0, 4, 4)
        rects = corner_candidates(region, 6, 2)
        assert len(rects) == 1
        assert rects[0].center.x == pytest.approx(region.center.x)


class TestPlaceSingleMacro:
    def test_attracted_to_nearest_corner(self):
        region = Rect(0, 0, 10, 10)
        rect, orient = place_single_macro(
            region, 2, 2, [(Point(20, 20), 1.0)])
        assert (rect.x, rect.y) == (8, 8)

    def test_rotation_chosen_when_it_fits_better(self):
        region = Rect(0, 0, 3, 12)       # slim column
        rect, orient = place_single_macro(
            region, 8, 2, [(Point(0, 0), 1.0)])
        assert orient is Orientation.E
        assert region.contains_rect(rect)

    def test_no_attraction_prefers_center(self):
        region = Rect(0, 0, 10, 10)
        rect, _orient = place_single_macro(region, 2, 2, [])
        # All corners tie by symmetry; the result must be a corner and
        # the call must not crash.
        assert region.contains_rect(rect)

    def test_contained_beats_closer_overflow(self):
        """An in-region option always beats an out-of-region one."""
        region = Rect(0, 0, 10, 5)
        rect, _ = place_single_macro(region, 4, 4,
                                     [(Point(5, 100), 1.0)])
        assert region.contains_rect(rect)


def _macro_placement(flat):
    """Place the two macros of the two-stage design manually."""
    placement = MacroPlacement("two_stage", "test",
                               Rect(0, 0, 100, 40))
    placement.block_rects[""] = placement.die
    mem_a = flat.cell_by_path("sa/mem")
    mem_b = flat.cell_by_path("sb/mem")
    placement.macros[mem_a.index] = PlacedMacro(
        mem_a.index, mem_a.path, Rect(10, 10, 6, 4))
    placement.macros[mem_b.index] = PlacedMacro(
        mem_b.index, mem_b.path, Rect(60, 10, 6, 4))
    placement.block_rects["sa"] = Rect(0, 0, 50, 40)
    placement.block_rects["sb"] = Rect(50, 0, 50, 40)
    return placement


class TestFlipping:
    def test_flip_reduces_or_keeps_hpwl(self, two_stage_flat):
        placement = _macro_placement(two_stage_flat)

        def total_macro_hpwl():
            from repro.core.flipping import _collect_nets, _net_hpwl
            nets = _collect_nets(two_stage_flat, placement, {})
            return sum(_net_hpwl(fn, two_stage_flat, placement)
                       for fn in nets)

        before = total_macro_hpwl()
        flips = flip_macros(two_stage_flat, placement)
        after = total_macro_hpwl()
        assert after <= before + 1e-9
        assert flips >= 0

    def test_footprints_unchanged(self, two_stage_flat):
        placement = _macro_placement(two_stage_flat)
        rects_before = {i: p.rect for i, p in placement.macros.items()}
        flip_macros(two_stage_flat, placement)
        for i, placed in placement.macros.items():
            assert placed.rect == rects_before[i]
            assert not placed.orientation.swaps_sides

    def test_fixpoint(self, two_stage_flat):
        """A second run changes nothing."""
        placement = _macro_placement(two_stage_flat)
        flip_macros(two_stage_flat, placement)
        orients = {i: p.orientation for i, p in placement.macros.items()}
        again = flip_macros(two_stage_flat, placement)
        assert again == 0
        assert orients == {i: p.orientation
                           for i, p in placement.macros.items()}

    def test_pin_positions_respect_orientation(self, two_stage_flat):
        placement = _macro_placement(two_stage_flat)
        mem_a = two_stage_flat.cell_by_path("sa/mem")
        placed = placement.macros[mem_a.index]
        placed.orientation = Orientation.N
        west = placed.pin_position(two_stage_flat, "din", 0)
        placed.orientation = Orientation.FN
        east = placed.pin_position(two_stage_flat, "din", 0)
        # Mirroring about Y moves a west-edge pin to the east edge.
        assert west.x == pytest.approx(placed.rect.x)
        assert east.x == pytest.approx(placed.rect.x2)


def _orientations(placement):
    return {i: p.orientation for i, p in placement.macros.items()}


def _assert_matches_reference(flat, placement, port_positions=None):
    """Both flip passes make the same decisions from ``placement``.

    Returns the flip count; ``placement`` itself is left untouched.
    """
    fast = copy.deepcopy(placement)
    oracle = copy.deepcopy(placement)
    flips = flip_macros(flat, fast, port_positions)
    assert flips == flip_macros_reference(flat, oracle, port_positions)
    assert _orientations(fast) == _orientations(oracle)
    return flips


def _top_only_flat(macros, nets):
    """A flat design of macros under the top module.

    ``macros`` maps instance name to cell type; ``nets`` maps a top
    input port (or a plain wire, when the name starts with ``w``) to
    the ``(instance, pin)`` pairs it drives.
    """
    top = ModuleBuilder("top")
    insts = {name: top.instance(ctype, name)
             for name, ctype in macros.items()}
    for net, pins in nets.items():
        if net.startswith("w"):
            top.wire(net)
        else:
            top.input(net)
        for inst, pin in pins:
            top.connect(net, insts[inst], pin)
    design = Design("flip_case")
    design.add_module(top.build())
    design.set_top("top")
    return flatten(design)


def _one_bit_macro(name, geometry):
    return macro_cell(name, 6.0, 4.0,
                      [PortDef(pin, Direction.IN) for pin in geometry],
                      pin_geometry=geometry)


def _placement_of(flat, rects):
    placement = MacroPlacement("flip_case", "test", Rect(0, 0, 100, 40))
    placement.block_rects[""] = placement.die
    for path, rect in rects.items():
        cell = flat.cell_by_path(path)
        placement.macros[cell.index] = PlacedMacro(cell.index, cell.path,
                                                   rect)
    return placement


class TestFlipOracle:
    """``flip_macros`` against the per-pin reference loop."""

    @pytest.mark.parametrize("name", ["c1", "c2", "c3"])
    def test_hidap_placements_from_random_mirrors(self, name):
        prepared = prepare_suite_design(name, "tiny")
        placer = HiDaP(HiDaPConfig(seed=1, effort=Effort.FAST,
                                   flipping=False))
        placement = placer.place(prepared.flat, prepared.die_w,
                                 prepared.die_h, gnet=prepared.gnet,
                                 gseq=prepared.gseq, tree=prepared.tree)
        ports = placer.artifacts.port_positions
        assert _assert_matches_reference(prepared.flat, placement,
                                         ports) > 0
        rng = random.Random(7)
        for index in sorted(placement.macros):
            placed = placement.macros[index]
            placed.orientation = rng.choice(
                Orientation.flips_of(placed.orientation))
        assert _assert_matches_reference(prepared.flat, placement,
                                         ports) > 0

    def test_two_pins_of_one_macro_on_one_net(self):
        """The net counts once per macro pin, as ``nets_of_macro`` has it.

        ``m2`` stays unplaced, so it is a static point at its region
        centre.
        """
        ram = _one_bit_macro("DUAL", {"a": PinGeometry(Side.WEST, 0.3),
                                      "b": PinGeometry(Side.SOUTH, 0.8),
                                      "c": PinGeometry(Side.NORTH, 0.6)})
        flat = _top_only_flat({"m0": ram, "m1": ram, "m2": ram},
                              {"p": [("m0", "a"), ("m0", "b")],
                               "q": [("m0", "c"), ("m1", "a")],
                               "r": [("m1", "b"), ("m1", "c"),
                                     ("m2", "a")]})
        placement = _placement_of(flat, {"m0": Rect(10, 10, 6, 4),
                                         "m1": Rect(60, 20, 6, 4)})
        ports = {"p": Point(66, 31), "q": Point(86, 20), "r": Point(63, 31)}
        assert _assert_matches_reference(flat, placement, ports) > 0

    def test_net_with_only_macro_pins(self):
        ram = _one_bit_macro("PAIR", {"din": PinGeometry(Side.WEST, 0.2),
                                      "dout": PinGeometry(Side.EAST, 0.7)})
        flat = _top_only_flat({"m0": ram, "m1": ram},
                              {"w_link": [("m0", "dout"), ("m1", "din")],
                               "p": [("m0", "din")],
                               "q": [("m1", "dout")]})
        placement = _placement_of(flat, {"m0": Rect(60, 10, 6, 4),
                                         "m1": Rect(10, 25, 6, 4)})
        ports = {"p": Point(100, 5), "q": Point(0, 40)}
        nets = _collect_nets(flat, placement, ports)
        assert any(not fn.static_points for fn in nets)
        assert _assert_matches_reference(flat, placement, ports) > 0

    def test_side_swapped_macros(self, two_stage_flat):
        placement = _macro_placement(two_stage_flat)
        for orient, placed in zip((Orientation.E, Orientation.FW),
                                  placement.macros.values()):
            placed.orientation = orient
            placed.rect = Rect(placed.rect.x, placed.rect.y,
                               placed.rect.h, placed.rect.w)
        _assert_matches_reference(two_stage_flat, placement)
        flip_macros(two_stage_flat, placement)
        for placed in placement.macros.values():
            assert placed.orientation.swaps_sides

    def test_tie_inside_margin_keeps_start(self):
        """FN beats N by 2e-10, inside the 1e-9 margin: N stays."""
        ram = _one_bit_macro("TOP", {"din": PinGeometry(Side.NORTH, 0.4)})
        flat = _top_only_flat({"m0": ram}, {"p": [("m0", "din")]})
        placement = _placement_of(flat, {"m0": Rect(10, 10, 6, 4)})
        # N puts the pin at x=12.4, FN at x=13.6; the port sits just
        # right of their midpoint.
        ports = {"p": Point(13.0 + 1e-10, 30)}
        assert _assert_matches_reference(flat, placement, ports) == 0
        assert flip_macros(flat, placement, ports) == 0
        assert _orientations(placement) == {
            flat.cell_by_path("m0").index: Orientation.N}
