"""Self-tests of the benchmark's independent checkers.

Each checker must accept the program's true answer and reject a corrupted
one, and the greedy 1-D verdict must agree with the program's exhaustive
subset search on a few hundred small seeded instances.  Run from the root
of a checkout::

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import agreeable as ag  # noqa: E402
import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import boxes_of, intervals_of  # noqa: E402

LINE = ag.RandomConfig(coord_min=0, coord_max=30, min_length=0, max_length=10, empty_percent=10)


def corrupt(obj: dict, key: str, delta: int) -> dict:
    bad = json.loads(json.dumps(obj))
    bad[key] += delta
    return bad


class LineReport(unittest.TestCase):
    def setUp(self):
        self.society = ag.random_society("line", 40, 3, LINE)
        self.intervals = intervals_of(self.society)
        self.report = ag.agreement(self.society).to_obj()

    def test_accepts_true_report(self):
        checks.check_line_report(self.report, self.intervals)

    def test_rejects_agreement_number_off_by_one(self):
        for delta in (-1, 1):
            with self.assertRaises(CheckError):
                checks.check_line_report(corrupt(self.report, "agreement_number", delta), self.intervals)

    def test_rejects_shrunken_witness(self):
        bad = json.loads(json.dumps(self.report))
        lo, hi = bad["witnesses"][0]
        bad["witnesses"][0] = [lo, lo] if lo != hi else [lo - 1, hi]
        with self.assertRaises(CheckError):
            checks.check_line_report(bad, self.intervals)

    def test_sweep_matches_program_on_touching_intervals(self):
        society = ag.linear_society([(0, 1), (1, 2), (2, 3), None, ("1/2", "5/2")])
        best, witnesses = checks.line_optimum(intervals_of(society))
        report = ag.agreement(society)
        self.assertEqual(best, report.agreement_number)
        self.assertEqual(witnesses, [(w.lo, w.hi) for w in report.witnesses])


class SlateChecks(unittest.TestCase):
    def setUp(self):
        self.society = ag.random_society("line", 60, 5, ag.RandomConfig(coord_max=100, max_length=15, empty_percent=5))
        self.slate = [Fraction(c) for c in sorted(random.Random(5).sample(range(101), 12))]
        self.intervals = intervals_of(self.society)
        self.election = ag.restrict_to_candidates(self.society, self.slate)
        self.ids = self.society.voter_ids()
        self.hulls = checks.hull_indices(self.intervals, self.slate)

    def test_tally(self):
        report = ag.agreement(self.election)
        checks.check_tally(report.per_candidate, report.agreement_number, report.witnesses, self.intervals, self.slate)
        wrong = dict(report.per_candidate)
        first = next(iter(wrong))
        wrong[first] += 1
        with self.assertRaises(CheckError):
            checks.check_tally(wrong, report.agreement_number, report.witnesses, self.intervals, self.slate)
        with self.assertRaises(CheckError):
            checks.check_tally(report.per_candidate, report.agreement_number + 1, report.witnesses, self.intervals, self.slate)

    def test_restriction(self):
        checks.check_restriction(intervals_of(self.election), self.intervals, self.slate)
        moved = intervals_of(self.election)
        pos = next(i for i, iv in enumerate(moved) if iv is not None)
        moved[pos] = (moved[pos][0], moved[pos][1] + 1)
        with self.assertRaises(CheckError):
            checks.check_restriction(moved, self.intervals, self.slate)

    def test_graph_edges(self):
        graph = ag.agreement_graph(self.election)
        checks.check_graph_edges(graph.edges, self.ids, self.hulls)
        with self.assertRaises(CheckError):
            checks.check_graph_edges(set(list(graph.edges)[1:]), self.ids, self.hulls)

    def test_coloring(self):
        coloring = ag.greedy_interval_coloring(self.election)
        checks.check_coloring(coloring.assignment, self.ids, self.hulls)
        # Give one voter the color of a neighbor: improper.
        graph = ag.agreement_graph(self.election)
        u, v = next(iter(graph.edges))
        improper = dict(coloring.assignment)
        improper[u] = improper[v]
        with self.assertRaises(CheckError):
            checks.check_coloring(improper, self.ids, self.hulls)
        # A fresh color for one voter: proper but not optimal.
        wasteful = dict(coloring.assignment)
        wasteful[u] = coloring.num_colors + 1
        with self.assertRaises(CheckError):
            checks.check_coloring(wasteful, self.ids, self.hulls)


class Verdicts(unittest.TestCase):
    def test_flipped_1d_verdict_is_rejected(self):
        society = ag.random_society("line", 10, 8, LINE)
        spans, ids = intervals_of(society), society.voter_ids()
        for k, m in ((2, 3), (2, 6), (3, 5), (3, 8)):
            result = ag.is_km_agreeable(society, ag.AgreeParams(k, m))
            checks.check_1d_verdict(result.agreeable, result.witness, ids, spans, k, m)
            with self.assertRaises(CheckError):
                checks.check_1d_verdict(not result.agreeable, None if not result.agreeable else ids[:m], ids, spans, k, m)

    def test_bad_witness_is_rejected(self):
        society = ag.linear_society([(0, 1), (0, 1), (5, 6), (8, 9)])
        spans, ids = intervals_of(society), society.voter_ids()
        checks.check_1d_verdict(False, ["v1", "v3", "v4"], ids, spans, 2, 3)
        with self.assertRaises(CheckError):
            checks.check_1d_verdict(False, ["v1", "v2", "v3"], ids, spans, 2, 3)

    def test_box_verdicts(self):
        config = ag.RandomConfig(coord_max=12, max_length=8, dimension=2)
        society = ag.random_society("box", 9, 4, config)
        boxes, ids = boxes_of(society), society.voter_ids()
        largest = checks.box_deficient_size(boxes, 2)
        positive = ag.is_km_agreeable(society, ag.AgreeParams(2, largest + 1))
        self.assertTrue(positive.agreeable)
        checks.check_box_verdict(True, None, ids, boxes, 2, largest + 1, exhaustive=True)
        negative = ag.is_km_agreeable(society, ag.AgreeParams(2, largest))
        self.assertFalse(negative.agreeable)
        checks.check_box_verdict(False, negative.witness, ids, boxes, 2, largest, exhaustive=True)
        with self.assertRaises(CheckError):
            checks.check_box_verdict(True, None, ids, boxes, 2, largest, exhaustive=True)
        with self.assertRaises(CheckError):
            checks.check_box_verdict(False, ids[:largest + 1], ids, boxes, 2, largest + 1, exhaustive=True)
        self.assertEqual(checks.box_depth(boxes), ag.agreement(society).agreement_number)

    def test_bound_sheet(self):
        society = ag.extremal_linear(21, ag.AgreeParams(4, 15))
        a = ag.agreement(society).agreement_number
        sheet = ag.bound_sheet(society, ag.AgreeParams(4, 15)).to_obj()
        checks.check_bound_sheet(sheet, 21, a, 4, 15, True, None)
        with self.assertRaises(CheckError):
            checks.check_bound_sheet(sheet, 21, a, 4, 15, False, None)
        with self.assertRaises(CheckError):
            checks.check_bound_sheet(sheet, 21, a - 1, 4, 15, True, None)


class GreedyAgreesWithSearch(unittest.TestCase):
    """The independent 1-D verdict against ``is_km_agreeable`` on small instances."""

    def test_line_and_candidate_societies(self):
        compared = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(2, 11)
            kind = "candidates" if seed % 2 else "line"
            config = ag.RandomConfig(
                coord_max=rng.choice((6, 12, 20)), max_length=rng.randint(1, 8),
                empty_percent=rng.choice((0, 10, 25)), num_candidates=5,
            )
            society = ag.random_society(kind, n, seed, config)
            ids = society.voter_ids()
            if kind == "candidates":
                spans = checks.hull_indices(intervals_of(society), list(society.spectrum.candidates))
            else:
                spans = intervals_of(society)
            k = rng.randint(1, min(4, n))
            for m in range(k, n + 1):
                result = ag.is_km_agreeable(society, ag.AgreeParams(k, m))
                checks.check_1d_verdict(result.agreeable, result.witness, ids, spans, k, m)
                compared += 1
        self.assertGreater(compared, 900)


if __name__ == "__main__":
    unittest.main()
