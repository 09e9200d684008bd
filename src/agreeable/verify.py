"""Seeded property suites cross-checking every fast path against oracles.

Each suite generates a deterministic stream of random instances from a base
seed (child seeds are ``crc32(label) * 1_000_003 + index`` offsets of the
base; see README) and re-verifies the package's guarantees on them: sweep
reports against scoring every endpoint and gap, box depth, platform masks
and good-set counts against the containment grid, agreement graphs against
testing every pair of voters, greedy colorings against brute-force clique
numbers, the bound sheet's verdicts against computed agreement numbers, and
the purely graph-theoretic statements against exhaustive search.  The
fixed-construction regressions (tight generators, the 5-cycle box society)
run in every suite invocation regardless of the trial count.

A violation report always carries the child seed that reproduces the
failing instance, and the instance itself can be written to a directory
for replay.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from ._frozen import Frozen
from .agreeability import (
    AgreeParams,
    _largest_deficient_size,
    _subset_search,
    is_km_agreeable,
    platform_masks,
)
from .agreement import agreement, common_platform, good_set_count, good_set_lower_bound, two_platform_cover
from .bounds import bound_sheet, bound_values, clique_bound
from .generators import (
    RandomConfig,
    clique_plus_isolated,
    disjoint_cliques,
    extremal_linear,
    five_cycle_boxes,
    random_graph,
    random_society,
)
from .graphs import agreement_graph, greedy_interval_coloring
from .oracles import (
    brute_box_depth,
    brute_chromatic,
    brute_clique,
    brute_first_fit_coloring,
    brute_good_set_count,
    brute_interval_graph,
    brute_line_agreement,
    brute_min_vertex_cover,
    brute_platform_masks,
    check_cover_lemma,
    every_m_subset_has_k_clique,
    is_perfect_by_enumeration,
)
from .society import Society, dumps_society, linear_society, restrict_to_candidates, to_box_society

SUITES = ("linear", "box", "graph")

# One interval-length profile that keeps societies loosely connected and one
# that concentrates them, so both agreeable and non-agreeable instances occur.
SPREAD = RandomConfig(coord_min=0, coord_max=12, min_length=0, max_length=8)
CONCENTRATED = RandomConfig(coord_min=0, coord_max=5, min_length=2, max_length=8)
SPREAD_EMPTY = RandomConfig(coord_min=0, coord_max=12, min_length=0, max_length=8, empty_percent=15)


def child_seed(base: int, label: str, index: int) -> int:
    """Deterministic per-instance seed; stable across runs and platforms."""
    return base + zlib.crc32(label.encode("ascii")) * 1_000_003 + index


class PropertyResult(Frozen):
    # The suites count into it as they run, so it stays mutable (and unhashable).
    __slots__ = ("suite", "name", "checked", "violations")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite: str, name: str, checked: int = 0, violations: list[str] | None = None):
        self.suite = suite
        self.name = name
        self.checked = checked
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "property": self.name,
            "checked": self.checked,
            "violations": list(self.violations),
        }


class _Recorder:
    def __init__(self, suite: str, failure_dir: str | None):
        self.suite = suite
        self.results: dict[str, PropertyResult] = {}
        self.failure_dir = failure_dir

    def prop(self, name: str) -> PropertyResult:
        if name not in self.results:
            self.results[name] = PropertyResult(self.suite, name)
        return self.results[name]

    def check(
        self, name: str, ok: bool, detail: Callable[[], str], artifact: Callable[[], str] | None = None
    ) -> None:
        """Count one check; ``detail`` and ``artifact`` make the violation's
        text and replay file, and are called only when the check fails."""
        r = self.prop(name)
        r.checked += 1
        if not ok:
            r.violations.append(detail())
            if self.failure_dir and artifact is not None:
                path = Path(self.failure_dir) / f"{self.suite}_{name}_{len(r.violations)}.json"
                path.write_text(artifact(), encoding="utf-8")

    def ordered(self) -> list[PropertyResult]:
        return [self.results[name] for name in sorted(self.results)]


def _km_pairs(rng: random.Random, n: int) -> list[AgreeParams]:
    pairs = []
    for _ in range(2):
        k = rng.randint(2, min(6, n))
        pairs.append(AgreeParams(k, rng.randint(k, min(6, n))))
    return pairs


def _farey_image(society: Society) -> Society:
    """The line society under x -> x/(x+1).

    The map keeps the order of non-negative coordinates and sends
    consecutive integers i, i+1 to the Farey neighbours i/(i+1), (i+1)/(i+2),
    so the sweep meets p/q endpoints as close together as their
    denominators allow.
    """
    def image(x: int | Fraction) -> Fraction:
        return Fraction(x, x + 1)

    return linear_society(
        [None if v.approval is None else (image(v.approval.lo), image(v.approval.hi)) for v in society.voters],
        ids=society.voter_ids(),
    )


def run_linear_suite(trials: int, seed: int, failure_dir: str | None = None) -> list[PropertyResult]:
    rec = _Recorder("linear", failure_dir)

    for t in range(trials):
        shape_rng = random.Random(child_seed(seed, "linear-shape", t))
        n = shape_rng.randint(2, 12)
        config = (SPREAD, CONCENTRATED, SPREAD_EMPTY)[t % 3]
        s_seed = child_seed(seed, "linear-society", t)
        society = random_society("line", n, s_seed, config)
        tag = f"seed={s_seed} n={n}"
        art = partial(dumps_society, society)

        rec.check("generated-societies-validate", not society.violations, lambda: tag, art)

        report = agreement(society)
        image = _farey_image(society)
        reports = (report, brute_line_agreement(society), agreement(image), brute_line_agreement(image))
        rec.check(
            "sweep-matches-endpoint-oracle",
            reports[0] == reports[1] and reports[2] == reports[3],
            lambda: f"{tag} sweep, oracle, image sweep, image oracle: {[r.to_obj() for r in reports]}",
            art,
        )
        for w in report.witnesses:
            depth = sum(
                1
                for v in society.voters
                if v.approval is not None and v.approval.intersect(w) == w
            )
            rec.check(
                "witness-intervals-attain-maximum",
                depth == report.agreement_number,
                lambda: f"{tag} witness={w}",
                art,
            )

        all_nonempty = all(v.approval is not None for v in society.voters)
        if all_nonempty:
            platform = common_platform(society)
            rec.check(
                "superagreeable-iff-common-platform",
                (platform is not None) == (report.agreement_number == society.n),
                lambda: f"{tag} common={platform} a={report.agreement_number}",
                art,
            )
            if n >= 3 and is_km_agreeable(society, AgreeParams(2, 3)).agreeable:
                cover = two_platform_cover(society)
                covered = all(
                    v.approval.contains(cover.x) or v.approval.contains(cover.y)
                    for v in society.voters
                )
                rec.check(
                    "two-platform-cover-covers-everyone",
                    covered and cover.best_count >= -(-n // 2),
                    lambda: f"{tag} cover={cover}",
                    art,
                )

        pair_rng = random.Random(child_seed(seed, "linear-params", t))
        for params in _km_pairs(pair_rng, n):
            # The track greedy's verdict and the subset search's: either one
            # positive runs the check, which fails unless they agree.
            greedy = _largest_deficient_size(society, params.k) < params.m
            result = _subset_search(society, params)
            if not (greedy or result.agreeable):
                continue
            clique, proportion = bound_sheet(society, params, agreeability=result, report=report).entries
            cb, pb = clique.value, proportion.value
            rec.check(
                "agreeable-societies-meet-linear-bounds",
                greedy == result.agreeable and clique.satisfied and proportion.satisfied,
                lambda: f"{tag} k={params.k} m={params.m} a={report.agreement_number} cb={cb}"
                f" greedy={greedy} search={result.agreeable}",
                art,
            )
            rec.check(
                "clique-bound-dominates-proportion-bound",
                Fraction(cb) >= pb * n,
                lambda: f"{tag} k={params.k} m={params.m}",
            )

        if n <= 9:
            graph = agreement_graph(society)
            if any(v.approval is not None for v in society.voters):
                omega = brute_clique(graph)
                coloring = greedy_interval_coloring(society)
                colors = coloring.num_colors
                first_fit = coloring == brute_first_fit_coloring(society)
                rec.check(
                    "greedy-colors-equal-omega-equal-sweep",
                    first_fit and colors == omega == report.agreement_number,
                    lambda: f"{tag} colors={colors} omega={omega} a={report.agreement_number}"
                    f" first_fit_oracle={first_fit}",
                    art,
                )
            same_graph = graph == brute_interval_graph(society)
            rec.check(
                "agreement-graph-is-perfect",
                same_graph and is_perfect_by_enumeration(graph),
                lambda: f"{tag} pairwise_oracle={same_graph}",
                art,
            )

        slate_rng = random.Random(child_seed(seed, "linear-slate", t))
        slate = sorted(slate_rng.sample(range(-1, 14), 4))
        restricted = restrict_to_candidates(society, slate)
        sub_report = agreement(restricted)
        per_candidate_ok = all(
            sub_report.per_candidate[c]
            == sum(
                1 for v in society.voters if v.approval is not None and v.approval.contains(c)
            )
            for c in restricted.spectrum.candidates
        )
        rec.check(
            "restriction-preserves-candidate-tallies",
            per_candidate_ok and sub_report.agreement_number <= report.agreement_number,
            lambda: f"{tag} slate={slate}",
            art,
        )

    # Fixed-construction regressions (independent of the trial count).
    for params, n in [
        (AgreeParams(4, 15), 21),
        (AgreeParams(2, 3), 7),
        (AgreeParams(2, 4), 7),
        (AgreeParams(3, 5), 9),
        (AgreeParams(5, 7), 11),
    ]:
        society = extremal_linear(n, params)
        a = agreement(society).agreement_number
        cb = clique_bound(n, params)
        ok = (
            not society.violations
            and a == cb
            and _largest_deficient_size(society, params.k) < params.m
            and _subset_search(society, params).agreeable
        )
        rec.check("extremal-construction-tight", ok, lambda: f"n={n} k={params.k} m={params.m} a={a} cb={cb}")

    for params, n in [(AgreeParams(3, 4), 10), (AgreeParams(2, 2), 6), (AgreeParams(4, 6), 9)]:
        society = clique_plus_isolated(n, params)
        expected = n - params.m + params.k
        a = agreement(society).agreement_number
        box_a = agreement(to_box_society(society)).agreement_number
        rec.check(
            "clique-plus-isolated-achieves-small-m-bound",
            not society.violations and a == expected == box_a,
            lambda: f"n={n} k={params.k} m={params.m} a={a}",
        )

    return rec.ordered()


def run_box_suite(trials: int, seed: int, failure_dir: str | None = None) -> list[PropertyResult]:
    rec = _Recorder("box", failure_dir)

    small_m_params = [AgreeParams(k, m) for k in (2, 3, 4) for m in range(k, 2 * k - 1)]

    for t in range(trials):
        shape_rng = random.Random(child_seed(seed, "box-shape", t))
        d = 1 if t % 2 else 2
        n = shape_rng.randint(2, 12 if d == 1 else 10)
        config = (SPREAD, CONCENTRATED)[t % 4 // 2]  # dimension 2; a line draw ignores it
        s_seed = child_seed(seed, "box-society", t)
        if d == 1:
            line = random_society("line", n, s_seed, config)
            society = to_box_society(line)
        else:
            society = random_society("box", n, s_seed, config)
        tag = f"seed={s_seed} n={n} d={d}"
        art = partial(dumps_society, society)

        rec.check("generated-societies-validate", not society.violations, lambda: tag, art)

        report = agreement(society)
        graph = agreement_graph(society)
        omega = brute_clique(graph)
        same_depth = report == brute_box_depth(society)
        brute_masks = brute_platform_masks(society)
        same_masks = platform_masks(society) == brute_masks
        same_graph = graph == brute_interval_graph(society)
        rec.check(
            "box-depth-equals-brute-clique",
            report.agreement_number == omega and same_depth and same_masks and same_graph,
            lambda: f"{tag} depth={report.agreement_number} omega={omega}"
            f" grid_oracle={same_depth} masks_oracle={same_masks} pairwise_oracle={same_graph}",
            art,
        )

        if d == 1:
            rec.check(
                "one-box-matches-line-agreement",
                agreement(line).agreement_number == report.agreement_number,
                lambda: tag,
                art,
            )

        pair_rng = random.Random(child_seed(seed, "box-params", t))
        pairs = _km_pairs(pair_rng, n) + small_m_params
        seen: set[tuple[int, int]] = set()
        g = None  # the good-set count and its oracle's, once per society
        for params in pairs:
            if (params.k, params.m) in seen or n < params.m or params.m <= d:
                continue
            seen.add((params.k, params.m))
            result = is_km_agreeable(society, params)
            if not result.agreeable:
                continue
            helly, small_m = bound_sheet(society, params, agreeability=result, report=report).entries
            rec.check(
                "fractional-helly-power-inequality",
                helly.satisfied,
                lambda: f"{tag} k={params.k} m={params.m} a={report.agreement_number}",
                art,
            )
            if g is None:
                g, brute_g = good_set_count(society), brute_good_set_count(society, d + 1, brute_masks)
            bound = good_set_lower_bound(n, d, params.k, params.m)
            rec.check(
                "good-set-counting-inequality",
                g == brute_g and Fraction(g) >= bound,
                lambda: f"{tag} k={params.k} m={params.m} g={g} oracle={brute_g} bound={bound}",
                art,
            )
            if small_m.applicable:
                rec.check(
                    "small-m-bound-on-boxes",
                    small_m.satisfied,
                    lambda: f"{tag} k={params.k} m={params.m} a={report.agreement_number} bound={small_m.value}",
                    art,
                )

    ring = five_cycle_boxes()
    graph = agreement_graph(ring)
    cycle_edges = {("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v1", "v5")}
    rec.check(
        "five-cycle-boxes-regression",
        set(graph.edges) == cycle_edges
        and brute_clique(graph) == 2
        and brute_chromatic(graph) == 3
        and agreement(ring).agreement_number == 2,
        lambda: f"edges={sorted(graph.edges)}",
        partial(dumps_society, ring),
    )

    return rec.ordered()


def run_graph_suite(trials: int, seed: int, failure_dir: str | None = None) -> list[PropertyResult]:
    rec = _Recorder("graph", failure_dir)

    hypothesis_pairs = [
        AgreeParams(2, 2),
        AgreeParams(2, 3),
        AgreeParams(2, 4),
        AgreeParams(3, 3),
        AgreeParams(3, 4),
        AgreeParams(3, 5),
        AgreeParams(4, 5),
        AgreeParams(4, 6),
    ]

    for t in range(trials):
        shape_rng = random.Random(child_seed(seed, "graph-shape", t))
        n = shape_rng.randint(3, 10)
        percent = (50, 70, 85)[t % 3]
        g_seed = child_seed(seed, "graph-instance", t)
        graph = random_graph(n, percent, g_seed)
        tag = f"seed={g_seed} n={n} p={percent}"
        art = graph.to_json

        omega = brute_clique(graph)
        chi = brute_chromatic(graph)
        rec.check("omega-at-most-chi", omega <= chi, lambda: f"{tag} omega={omega} chi={chi}", art)

        cert = brute_min_vertex_cover(graph.complement())
        rec.check(
            "cover-clique-complement-duality",
            n - omega == cert.size,
            lambda: f"{tag} omega={omega} cover={cert.size}",
            art,
        )

        for params in hypothesis_pairs:
            if n < params.m:
                continue
            if not every_m_subset_has_k_clique(graph, params):
                continue
            bounds = bound_values(params, n)
            rec.check(
                "clique-hypothesis-implies-chi-bound",
                chi >= bounds["clique_bound"],
                lambda: f"{tag} k={params.k} m={params.m} chi={chi}",
                art,
            )
            if isinstance(bounds["small_m_bound"], int):
                rec.check(
                    "clique-hypothesis-implies-small-m-omega",
                    omega >= bounds["small_m_bound"],
                    lambda: f"{tag} k={params.k} m={params.m} omega={omega}",
                    art,
                )

    for t in range(trials):
        shape_rng = random.Random(child_seed(seed, "cover-shape", t))
        n = shape_rng.randint(1, 12)
        percent = (30, 50, 70)[t % 3]
        g_seed = child_seed(seed, "cover-instance", t)
        graph = random_graph(n, percent, g_seed)
        result = check_cover_lemma(graph)
        rec.check(
            "critical-cover-lemma-holds",
            not (result.hypothesis_holds and not result.conclusion_holds),
            lambda: f"seed={g_seed} n={n} z={result.cover_size}",
            graph.to_json,
        )

    for params, n in [(AgreeParams(2, 3), 10), (AgreeParams(3, 5), 12), (AgreeParams(2, 4), 8)]:
        society = disjoint_cliques(n, params)
        graph = agreement_graph(society)
        a = agreement(society).agreement_number
        hypothesis = every_m_subset_has_k_clique(graph, params)
        rec.check(
            "disjoint-cliques-show-gate-necessity",
            hypothesis and a == -(-n // 2) and a < n - params.m + params.k,
            lambda: f"n={n} k={params.k} m={params.m} a={a}",
        )

    return rec.ordered()


class VerifyReport(Frozen):
    # Mutable and unhashable, like PropertyResult.
    __slots__ = ("seed", "trials", "results")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "properties": [r.to_obj() for r in self.results],
        }


def run_suites(
    suite: str, trials: int, seed: int, failure_dir: str | None = None
) -> VerifyReport:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    results: list[PropertyResult] = []
    if suite in ("all", "linear"):
        results += run_linear_suite(trials, seed, failure_dir)
    if suite in ("all", "box"):
        results += run_box_suite(trials, seed, failure_dir)
    if suite in ("all", "graph"):
        results += run_graph_suite(trials, seed, failure_dir)
    return VerifyReport(seed, trials, results)
