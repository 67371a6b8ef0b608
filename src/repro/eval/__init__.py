"""Paper tables: Table II and Table III from referee rows.

The paper's referee is fixed: every flow's macro placement is followed
by the *same* standard-cell placement, congestion estimation and STA
(:func:`repro.api.evaluate_placement`); wirelength is compared as
geometric-mean ratios against handFP.  This package formats those rows
as Table II and Table III.
"""

from repro.eval.tables import format_table2, format_table3, geomean

__all__ = [
    "format_table2",
    "format_table3",
    "geomean",
]
