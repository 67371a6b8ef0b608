"""Table III — per-circuit WL / congestion / timing for the three flows.

Paper reference (DATE'19, Table III), per circuit c1..c8: wirelength in
meters and normalized to handFP, global-routing congestion (GRC %),
WNS as % of the clock period and TNS.  Key shapes we check:

* HiDaP beats IndEDA on wirelength in (nearly) all circuits
  (paper: all but one);
* HiDaP's WNS is no worse than IndEDA's on average;
* HiDaP wins outright against handFP on at least one circuit
  (paper: c3 and c8).
"""

from benchmarks.conftest import OPTIONS, SCALE, pedantic
from repro.api import format_table3, prepare_design, run_flow
from repro.gen.designs import suite_specs

PAPER_NORM_WL = {
    "c1": {"indeda": 1.029, "hidap": 1.046},
    "c2": {"indeda": 1.180, "hidap": 1.045},
    "c3": {"indeda": 1.175, "hidap": 0.918},
    "c4": {"indeda": 1.174, "hidap": 1.054},
    "c5": {"indeda": 1.162, "hidap": 1.038},
    "c6": {"indeda": 1.288, "hidap": 1.058},
    "c7": {"indeda": 1.174, "hidap": 1.007},
    "c8": {"indeda": 0.987, "hidap": 0.944},
}


def test_table3_detail(suite_result, benchmark):
    rows = suite_result.rows

    # The benchmarked unit: regenerating one full circuit row set
    # (workload build + all three referee passes on c1's placements
    # would dominate; we re-run the cheapest full flow end to end).
    def regenerate_one_row():
        spec = suite_specs(SCALE)[0]
        prepared = prepare_design(spec)
        flat, truth, die_w, die_h = (prepared.flat, prepared.truth,
                                      prepared.die_w, prepared.die_h)
        return run_flow(flat, truth, "indeda", die_w, die_h,
                        options=OPTIONS)

    pedantic(benchmark, regenerate_one_row)

    print()
    print(format_table3(rows, suite_result.design_info))
    print("\npaper normalized WL for reference:")
    for circuit, ref in PAPER_NORM_WL.items():
        print(f"  {circuit}: IndEDA {ref['indeda']:.3f}, "
              f"HiDaP {ref['hidap']:.3f}, handFP 1.000")

    by = {(r.design, r.flow): r for r in rows}
    designs = sorted({r.design for r in rows})

    hidap_beats_indeda = sum(
        1 for d in designs
        if by[(d, "hidap")].wl_meters < by[(d, "indeda")].wl_meters)
    assert hidap_beats_indeda >= len(designs) - 1, \
        "HiDaP must beat IndEDA on WL in all but at most one circuit"

    hidap_beats_handfp = sum(
        1 for d in designs
        if by[(d, "hidap")].wl_norm < 1.0)
    assert hidap_beats_handfp >= 1, \
        "HiDaP should win at least one circuit outright (paper: c3, c8)"

    avg_wns_hidap = sum(by[(d, "hidap")].wns_percent
                        for d in designs) / len(designs)
    avg_wns_indeda = sum(by[(d, "indeda")].wns_percent
                         for d in designs) / len(designs)
    assert avg_wns_hidap >= avg_wns_indeda, \
        "HiDaP must close timing better than IndEDA on average"
