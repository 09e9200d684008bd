"""The four workloads: their inputs, made from a seed, and one round of operations.

A workload's ``build`` is the set-up the benchmark times: it generates the
inputs through the program's own generators and serializer and writes them
under the run's work directory.  ``plan`` does, once and untimed, whatever
choosing of inputs the benchmark itself needs before that.  ``operations``
lists one round: a fixed sequence of operations over the inputs, each
paired with a check against the independent computations in ``checks``.
Expected answers are computed once per input, lazily, outside every timed
interval.
"""

from __future__ import annotations

import json
import math
import random
import re
import zlib
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable

import checks
from checks import require

# Same figure as the program's default C(n, m) enumeration cap: an input
# beyond it would be refused, so generation never produces one.
SUBSET_CAP = 2_000_000


def sub_seed(seed: int, label: str, index: int = 0) -> int:
    """A per-input seed derived from the run's seed; stable across platforms."""
    return zlib.crc32(f"{label}:{seed}:{index}".encode("ascii"))


@dataclass
class Op:
    """One operation of a round.

    ``argv`` is an ``agreeable`` command line (a CLI operation) or ``call`` a
    library call.  ``check`` receives the command's standard output, or the
    call's result, and raises ``checks.CheckError`` on a wrong answer.
    ``family`` and ``size`` group operations for the traced run's slopes.
    """

    label: str
    family: str
    size: int
    check: Callable
    argv: list[str] | None = None
    call: Callable | None = None


def intervals_of(society) -> list:
    return [None if v.approval is None else (v.approval.lo, v.approval.hi) for v in society.voters]


def boxes_of(society) -> list:
    return [None if v.approval is None else tuple((s.lo, s.hi) for s in v.approval.sides) for v in society.voters]


class _Lazy:
    """A value computed on first use, outside the timed intervals."""

    def __init__(self, make: Callable):
        self._make = make

    @cached_property
    def value(self):
        return self._make()


def write_text(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# line-bulk
# ---------------------------------------------------------------------------

# (voters, coordinate scale, percent of empty voters, written as decimals).
# A scale below 1 gives "p/q" coordinates; the decimal input rewrites its
# quarter-integer coordinates as JSON number literals such as 12.25.  Five
# inputs of 8000 voters in the same form hold the median operation, so the
# median rests on five societies of equal work rather than on whichever of
# two kinds happens to sit in the middle; the smallest and largest inputs
# give the slopes.
LINE_BULK_INPUTS = (
    (2000, Fraction(1), 0, False),
    (4000, Fraction(1, 4), 10, True),
) + ((8000, Fraction(1, 3), 5, False),) * 5 + (
    (16000, Fraction(1), 0, False),
    (24000, Fraction(2, 7), 2, False),
)

_PQ = re.compile(r'"(-?\d+)/(\d+)"')


def _as_decimal_literal(match: re.Match) -> str:
    return str(Decimal(int(match[1])) / Decimal(int(match[2])))


class Workload:
    name = ""
    why = ""

    def plan(self, seed: int, ag) -> None:
        """Untimed preparation before the timed set-ups; none by default."""

    def build(self, seed: int, work: Path, ag) -> list:
        raise NotImplementedError

    def operations(self, inputs, ag) -> list[Op]:
        raise NotImplementedError


class LineBulk(Workload):
    name = "line-bulk"
    why = "analyze --format json on 2k-24k voter line files: parse, validate and the exact sweep; no agreeability, graph or box code"

    def build(self, seed: int, work: Path, ag) -> list:
        inputs = []
        for i, (n, scale, empty, decimal) in enumerate(LINE_BULK_INPUTS):
            config = ag.RandomConfig(coord_min=0, coord_max=n, min_length=0, max_length=n // 40, empty_percent=empty)
            society = ag.random_society("line", n, sub_seed(seed, self.name, i), config)
            if scale != 1:
                society = ag.linear_society(
                    [None if v.approval is None else (v.approval.lo * scale, v.approval.hi * scale) for v in society.voters]
                )
            text = ag.dumps_society(society)
            if decimal:
                text = _PQ.sub(_as_decimal_literal, text)
            path = write_text(work / f"line-{i}.json", text)
            inputs.append((n, path, society))
        return inputs

    def operations(self, inputs, ag) -> list[Op]:
        ops = []
        for n, path, society in inputs:
            expected = _Lazy(lambda s=society: intervals_of(s))

            def check(out: str, expected=expected) -> None:
                checks.check_line_report(json.loads(out), expected.value)

            ops.append(Op(f"analyze n={n}", "line", n, check, argv=["analyze", path, "--format", "json"]))
        return ops


# ---------------------------------------------------------------------------
# slate-graph
# ---------------------------------------------------------------------------

# (voters, candidates on the slate).  Graph and coloring are quadratic in the
# voters today, so 500 keeps one tour near a second.  Seven draws at 280
# voters hold the median operation, so the median rests on seven societies
# rather than one; the smallest and largest inputs give the slopes.
SLATE_GRAPH_INPUTS = ((100, 10), (180, 18)) + ((280, 28),) * 7 + ((400, 40), (500, 50))
SLATE_SPAN = 1000


@dataclass
class Tour:
    """The results of one README tour over a society and a slate."""

    line: object
    election: object
    tally: object
    graph: object
    coloring: object


def tour(ag, society, slate) -> Tour:
    election = ag.restrict_to_candidates(society, slate)
    return Tour(
        ag.agreement(society), election, ag.agreement(election),
        ag.agreement_graph(election), ag.greedy_interval_coloring(election),
    )


class SlateGraph(Workload):
    name = "slate-graph"
    why = "in-process README tour on 100-500 voters, 10-50 candidates: sweep, restriction, tally, agreement graph, coloring"

    def build(self, seed: int, work: Path, ag) -> list:
        inputs = []
        for i, (n, c) in enumerate(SLATE_GRAPH_INPUTS):
            # An evenly spaced slate at a seeded offset, and intervals one to
            # three gaps long: every non-empty voter approves a candidate.
            # Graph and coloring cost grow with the square of that count, so
            # it must not vary much from seed to seed.
            gap = SLATE_SPAN // c
            config = ag.RandomConfig(coord_min=0, coord_max=SLATE_SPAN, min_length=gap, max_length=3 * gap, empty_percent=5)
            s = sub_seed(seed, self.name, i)
            society = ag.random_society("line", n, s, config)
            offset = random.Random(s).randrange(gap)
            slate = [offset + j * gap for j in range(c + 1)]
            write_text(work / f"slate-{i}.json", ag.dumps_society(society))
            inputs.append((n, society, slate))
        return inputs

    def operations(self, inputs, ag) -> list[Op]:
        ops = []
        for n, society, slate in inputs:
            ids = society.voter_ids()
            cands = [Fraction(c) for c in slate]
            intervals = _Lazy(lambda s=society: intervals_of(s))
            hulls = _Lazy(lambda iv=intervals, cs=cands: checks.hull_indices(iv.value, cs))
            line = _Lazy(lambda iv=intervals: checks.line_optimum(iv.value))

            def check(t: Tour, ids=ids, cands=cands, intervals=intervals, hulls=hulls, line=line) -> None:
                best, witnesses = line.value
                require(t.line.agreement_number == best, f"agreement number {t.line.agreement_number} expected {best}")
                require([(w.lo, w.hi) for w in t.line.witnesses] == witnesses, "line witnesses differ")
                checks.check_restriction(intervals_of(t.election), intervals.value, cands)
                checks.check_tally(t.tally.per_candidate, t.tally.agreement_number, t.tally.witnesses, intervals.value, cands)
                require(t.graph.vertices == ids, "graph vertices differ from the voters")
                checks.check_graph_edges(t.graph.edges, ids, hulls.value)
                checks.check_coloring(t.coloring.assignment, ids, hulls.value)

            ops.append(Op(f"tour n={n} c={len(slate)}", "tour", n, check, call=lambda s=society, sl=slate: tour(ag, s, sl)))
        return ops


# ---------------------------------------------------------------------------
# agree-search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpec:
    """One agree-search instance: a society kind and size, k, and the verdict sought."""

    kind: str  # "line", "candidates" or "box"
    n: int
    k: int
    agreeable: bool
    d: int = 1
    config: dict = field(default_factory=dict)


SEARCH_SPECS = (
    SearchSpec("line", 18, 3, True, config=dict(coord_max=54, max_length=10)),
    SearchSpec("line", 18, 3, True, config=dict(coord_max=54, max_length=10)),
    SearchSpec("line", 28, 3, False, config=dict(coord_max=84, max_length=12)),
    SearchSpec("candidates", 20, 3, True, config=dict(coord_max=40, max_length=10, num_candidates=10, empty_percent=5)),
    SearchSpec("candidates", 28, 3, False, config=dict(coord_max=56, max_length=12, num_candidates=14)),
    SearchSpec("box", 12, 2, True, d=2, config=dict(coord_max=12, max_length=8)),
    SearchSpec("box", 24, 3, False, d=2, config=dict(coord_max=12, max_length=6)),
    SearchSpec("box", 10, 2, True, d=3, config=dict(coord_max=12, max_length=9)),
    SearchSpec("box", 20, 3, False, d=3, config=dict(coord_max=12, max_length=8)),
)
# Each spec is drawn this many times per round.  Search work varies widely
# from one draw to the next; more draws keep a run's total steady across seeds.
# The exhaustive line search varies most (its time per draw has a standard
# deviation near 80 % of its mean), so it has two specs of 18 voters, six
# draws in all, rather than three draws of 20 voters at two and a half times
# the work each.
SEARCH_REPLICAS = 3


@dataclass
class SearchInstance:
    spec: SearchSpec
    society: object
    m: int
    path: str


def _choose_m(spec: SearchSpec, society) -> int | None:
    """m for the verdict the spec asks for, or None to draw another society.

    A positive instance takes m one above the largest deficient set, so the
    subset search must run to exhaustion.  A negative one takes m at half a
    known deficient set, where the search meets a witness early.
    """
    n, k = spec.n, spec.k
    if spec.kind == "box":
        boxes = boxes_of(society)
        largest = checks.box_deficient_size(boxes, k) if spec.agreeable else len(checks.greedy_box_deficient(boxes, k))
    else:
        largest = checks.deficient_size(_spans(spec, society), k)
    m = largest + 1 if spec.agreeable else max(k, largest // 2)
    if spec.agreeable and not (k <= m <= n):
        return None
    if not spec.agreeable and m > largest:
        return None
    if math.comb(n, m) > SUBSET_CAP or m <= spec.d:
        return None
    return m


def _spans(spec: SearchSpec, society) -> list:
    if spec.kind == "candidates":
        return checks.hull_indices(intervals_of(society), list(society.spectrum.candidates))
    return intervals_of(society)


class AgreeSearch(Workload):
    name = "agree-search"
    why = "check and analyze --k --m on line, candidate and 2-/3-box societies (n <= 28): masks, subset search, box depth, bound sheet"

    def plan(self, seed: int, ag) -> None:
        """Per instance, the first draw with the verdict its spec asks for, and its m."""
        self._chosen = []
        for i, spec in enumerate(SEARCH_SPECS * SEARCH_REPLICAS):
            config = ag.RandomConfig(dimension=spec.d, **spec.config)
            attempt = 0
            while True:
                society = ag.random_society(spec.kind, spec.n, sub_seed(seed, f"{self.name}-{i}", attempt), config)
                m = _choose_m(spec, society)
                if m is not None:
                    break
                attempt += 1
            self._chosen.append((spec, sub_seed(seed, f"{self.name}-{i}", attempt), m))

    def build(self, seed: int, work: Path, ag) -> list:
        instances = []
        for i, (spec, society_seed, m) in enumerate(self._chosen):
            config = ag.RandomConfig(dimension=spec.d, **spec.config)
            society = ag.random_society(spec.kind, spec.n, society_seed, config)
            path = write_text(work / f"search-{i}.json", ag.dumps_society(society))
            instances.append(SearchInstance(spec, society, m, path))
        return instances

    def operations(self, instances, ag) -> list[Op]:
        ops = []
        for inst in instances:
            spec, k, m = inst.spec, inst.spec.k, inst.m
            family = spec.kind if spec.kind != "box" else f"box{spec.d}"
            tag = f"{family} n={spec.n} k={k} m={m}"

            def check_text(out: str, inst=inst) -> None:
                head = f"({inst.spec.k},{inst.m})-agreeable: "
                line = out.strip()
                require(line.startswith(head), f"unexpected check output {line!r}")
                verdict = line[len(head):]
                if verdict == "yes":
                    _check_verdict(inst, True, None)
                else:
                    found = re.fullmatch(r"no \(witness (.*)\)", verdict)
                    require(found is not None, f"unexpected check output {line!r}")
                    _check_verdict(inst, False, found[1].split(","))

            def check_json(out: str, inst=inst) -> None:
                _check_analysis(inst, json.loads(out))

            ops.append(Op(f"check {tag}", family, spec.n, check_text,
                          argv=["check", inst.path, "--k", str(k), "--m", str(m)]))
            ops.append(Op(f"analyze {tag}", family, spec.n, check_json,
                          argv=["analyze", inst.path, "--k", str(k), "--m", str(m), "--format", "json"]))
        return ops


def _check_verdict(inst: SearchInstance, agreeable: bool, witness) -> None:
    spec = inst.spec
    ids = inst.society.voter_ids()
    require(agreeable == spec.agreeable, f"verdict {agreeable}, generated to be {spec.agreeable}")
    if spec.kind == "box":
        checks.check_box_verdict(agreeable, witness, ids, boxes_of(inst.society), spec.k, inst.m, exhaustive=spec.n <= 14)
    else:
        checks.check_1d_verdict(agreeable, witness, ids, _spans(spec, inst.society), spec.k, inst.m)


def _check_analysis(inst: SearchInstance, obj: dict) -> None:
    spec, society = inst.spec, inst.society
    n = spec.n
    if spec.kind == "line":
        checks.check_line_report({k: v for k, v in obj.items() if k != "bound_sheet"}, intervals_of(society))
        a = obj["agreement_number"]
    elif spec.kind == "candidates":
        slate = list(society.spectrum.candidates)
        per = {checks.parse_coord(c): t for c, t in obj["per_candidate"].items()}
        witnesses = [checks.parse_coord(c) for c in obj["witnesses"]]
        checks.check_tally(per, obj["agreement_number"], witnesses, intervals_of(society), slate)
        a = obj["agreement_number"]
    else:
        boxes = boxes_of(society)
        a = checks.box_depth(boxes)
        require(obj["agreement_number"] == a, f"box agreement number {obj['agreement_number']} expected {a}")
        for point in obj["witnesses"]:
            p = [checks.parse_coord(x) for x in point]
            depth = sum(1 for b in boxes if b is not None and all(lo <= x <= hi for (lo, hi), x in zip(b, p)))
            require(depth == a, f"witness point {point} has depth {depth}, not {a}")
    require(obj["n"] == n and obj["agreement_proportion"] == checks.ratio_str(a, n), "report n or proportion differ")
    sheet = obj["bound_sheet"]
    checks.check_bound_sheet(sheet, n, a, spec.k, inst.m, spec.agreeable, spec.d if spec.kind == "box" else None)
    _check_verdict(inst, not sheet["vacuous"], sheet.get("agreeability_witness"))


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

# Per-seed work varies by some 15 %; fifteen seeds per round keep a run's
# total steady across runs.
VERIFY_SEEDS_PER_ROUND = 15
VERIFY_TRIALS = 24

# Every property the three suites can report; each must be checked at least
# once by every verify operation (at 24 trials each of them is, on every seed
# tried).
VERIFY_PROPERTIES = {
    "linear": (
        "agreeable-societies-meet-linear-bounds", "agreement-graph-is-perfect",
        "clique-bound-dominates-proportion-bound", "clique-plus-isolated-achieves-small-m-bound",
        "extremal-construction-tight", "generated-societies-validate",
        "greedy-colors-equal-omega-equal-sweep", "restriction-preserves-candidate-tallies",
        "superagreeable-iff-common-platform", "sweep-matches-endpoint-oracle",
        "two-platform-cover-covers-everyone", "witness-intervals-attain-maximum",
    ),
    "box": (
        "box-depth-equals-brute-clique", "five-cycle-boxes-regression", "fractional-helly-power-inequality",
        "generated-societies-validate", "good-set-counting-inequality", "one-box-matches-line-agreement",
        "small-m-bound-on-boxes",
    ),
    "graph": (
        "clique-hypothesis-implies-chi-bound", "clique-hypothesis-implies-small-m-omega",
        "cover-clique-complement-duality", "critical-cover-lemma-holds",
        "disjoint-cliques-show-gate-necessity", "omega-at-most-chi",
    ),
}

# Properties checked once per trial, whatever the instance.
ONCE_PER_TRIAL = {
    ("linear", "generated-societies-validate"), ("linear", "sweep-matches-endpoint-oracle"),
    ("linear", "restriction-preserves-candidate-tallies"), ("box", "generated-societies-validate"),
    ("box", "box-depth-equals-brute-clique"), ("graph", "omega-at-most-chi"),
    ("graph", "cover-clique-complement-duality"), ("graph", "critical-cover-lemma-holds"),
}


class VerifySuites(Workload):
    name = "verify-suites"
    why = "verify --trials 24 over fifteen seeds: thousands of fast-path calls on <= 12 voters next to the oracles"

    def build(self, seed: int, work: Path, ag) -> list:
        """The verify seeds, and a replay corpus of the linear suite's societies.

        The corpus regenerates, through the program's generator and the
        suite's documented child seeds, the line society of every trial, so
        the witness and superagreeable check counts of each report can be
        recomputed by the benchmark's own sweep.
        """
        from agreeable import verify

        failures = work / "failures"
        failures.mkdir(exist_ok=True)
        runs = []
        for i in range(VERIFY_SEEDS_PER_ROUND):
            vseed = sub_seed(seed, self.name, i) % 1_000_000
            corpus = []
            for t in range(VERIFY_TRIALS):
                n = random.Random(verify.child_seed(vseed, "linear-shape", t)).randint(2, 12)
                config = (verify.SPREAD, verify.CONCENTRATED, verify.SPREAD_EMPTY)[t % 3]
                society = ag.random_society("line", n, verify.child_seed(vseed, "linear-society", t), config)
                corpus.append(society)
            write_text(work / f"verify-{vseed}.jsonl", "".join(ag.dumps_society(s) for s in corpus))
            runs.append((vseed, corpus, str(failures)))
        return runs

    def operations(self, runs, ag) -> list[Op]:
        ops = []
        for vseed, corpus, failures in runs:
            expected = _Lazy(lambda c=corpus: _linear_counts(c))

            def check(out: str, expected=expected, vseed=vseed) -> None:
                report = json.loads(out)
                require(report["ok"] is True and report["seed"] == vseed and report["trials"] == VERIFY_TRIALS, "report not ok")
                counts = {}
                for p in report["properties"]:
                    require(not p["violations"], f"{p['suite']}/{p['property']}: {p['violations'][:1]}")
                    require(p["checked"] >= 1, f"{p['suite']}/{p['property']} listed but never checked")
                    counts[(p["suite"], p["property"])] = p["checked"]
                for key in ONCE_PER_TRIAL:
                    require(counts.get(key) == VERIFY_TRIALS, f"{key} checked {counts.get(key)} times, not {VERIFY_TRIALS}")
                for prop, value in expected.value.items():
                    got = counts.get(("linear", prop), 0)
                    require(got == value, f"linear/{prop} checked {got} times, the replay corpus gives {value}")
                known = {(s, p) for s, names in VERIFY_PROPERTIES.items() for p in names}
                require(set(counts) == known, f"properties differ: {sorted(set(counts) ^ known)}")

            ops.append(Op(f"verify seed={vseed}", "verify", VERIFY_TRIALS, check,
                          argv=["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(vseed),
                                "--format", "json", "--failure-dir", failures]))
        return ops


def _linear_counts(corpus) -> dict[str, int]:
    witnesses = superagreeable = 0
    for society in corpus:
        intervals = intervals_of(society)
        witnesses += len(checks.line_optimum(intervals)[1])
        superagreeable += all(iv is not None for iv in intervals)
    return {"witness-intervals-attain-maximum": witnesses, "superagreeable-iff-common-platform": superagreeable}


WORKLOADS = {w.name: w for w in (LineBulk(), SlateGraph(), AgreeSearch(), VerifySuites())}
