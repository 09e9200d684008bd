"""Traced memory of the three passes of a line analysis, per voter.

Validation, the span view and the sweep each need little memory beside
the society they read.  Their traced peaks are bounded per voter on a
20 000-voter p/q line with 2 % empty voters, like the largest line input
of the benchmark.  tracemalloc counts the interpreter's own allocations, so
the figures do not depend on how the allocator hands memory back to the
system, as a resident-memory threshold would.

Run as a script on a society document to check the same budgets on it:
``PYTHONPATH=src python tests/test_memory.py society.json``.
"""

import sys
import tracemalloc
from fractions import Fraction

from agreeable import RandomConfig, agreement, dumps_society, linear_society, load_society, loads_society, random_society
from agreeable.society import require_valid

# Bytes per voter beyond what each pass keeps: validation keeps its empty
# findings, the span view its two tuples of keys, agreement its report.  Sets
# of every id, lists of all 2n ends and a count per voter took 131, 42 and 77.
BUDGETS = {"require_valid": 40, "span view": 25, "agreement": 45}


def traced_peaks(society) -> dict[str, float]:
    """Each pass's traced peak beyond what it keeps, in bytes per voter, on
    a society none of whose cached views is built yet."""
    phases = {
        "require_valid": lambda: require_valid(society),
        "span view": lambda: society._spans,
        "agreement": lambda: agreement(society),
    }
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    peaks = {}
    try:
        for phase, run in phases.items():
            tracemalloc.reset_peak()
            run()
            after, peak = tracemalloc.get_traced_memory()
            peaks[phase] = (peak - after) / society.n
    finally:
        if started:
            tracemalloc.stop()
    return peaks


def over_budget(society) -> dict[str, float]:
    """The passes whose traced peak exceeds its budget, with that peak."""
    return {phase: round(peak, 1) for phase, peak in traced_peaks(society).items() if peak > BUDGETS[phase]}


def test_line_analysis_stays_within_its_memory_budgets():
    config = RandomConfig(coord_min=0, coord_max=20000, min_length=0, max_length=500, empty_percent=2)
    drawn = random_society("line", 20000, 7, config)
    scale = Fraction(2, 7)
    society = loads_society(dumps_society(linear_society(
        [None if v.approval is None else (v.approval.lo * scale, v.approval.hi * scale) for v in drawn.voters]
    )))
    assert over_budget(society) == {}


if __name__ == "__main__":
    found = over_budget(load_society(sys.argv[1]))
    if found:
        sys.exit(f"over the budgets {BUDGETS} bytes per voter: {found}")
