"""Exact agreement numbers for line, candidate and box societies.

The agreement number of a platform is the number of voters approving it;
the agreement number of a society is the maximum over all platforms of the
spectrum.  Everything here is exact rational arithmetic.

Costs: the line sweep is O(n log n) comparisons of plain ints, on two
sorted key lists and no table of endpoints.  It reads the society's integer
span view (``Society._spans``), where each endpoint p/q is the integer key
(p << s) // q, with s = 2b + 1 for the largest denominator bit length b:
distinct endpoints differ by more than 2**-2b, so the keys order them
exactly and no Fraction is hashed or compared while sorting and
bisecting.  The candidate tally reads the same view, each voter's first and
last approved candidate index (bisected once per society, or handed over by
``restrict_to_candidates``), into a difference array, O(n log c + c) for c
candidates.  A 1-box is the line it encodes and takes the sweep.  Box
depth for d >= 2 is the size of the largest of the society's cached
maximal cliques, capped at 30 voters and 3 dimensions.  Those come from the
line's one-pass clique sweep, run axis by axis on the voters of each clique
so far: up to n^(d-1) restricted sweeps, then a maximality test of one
closed-neighbourhood AND per member.  The neighbourhoods come from the
runs of first-axis spans each voter meets, and good sets are cliques on
them.

Closed-interval semantics enter the computation in two places: the line
sweep counts, at a left end, only the right ends strictly below it, so
touching intervals count as overlapping, and ``society._candidate_range``
bisects left on an interval's lower end and right on its upper end.  That
one slate rule serves the candidate tally, the platform masks and
``common_platform``; ``restrict_to_candidates`` inlines the same two
bisections, since a call per voter costs its slate tour about 3 %.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache

from ._frozen import Frozen
from .errors import _require_box_caps
from .society import (
    BoxSpectrum,
    CandidateSpectrum,
    Coord,
    Interval,
    LineSpectrum,
    Society,
    _candidate_range,
    _coord_to_json,
    _members,
    coord_str,
    require_valid,
)


class AgreementReport(Frozen):
    """Result of an agreement computation.

    ``witnesses`` holds every optimal platform, in a spectrum-dependent
    shape: maximal closed intervals for a line society, candidate platforms
    for a candidate society, and grid points (coordinate tuples) for a box
    society.  ``per_candidate`` is populated for candidate societies only.

    For a society whose approval sets are all empty the agreement number is
    0; on the line the optimum is then attained everywhere, which bounded
    intervals cannot express, so ``witnesses`` is empty in that one case.
    """

    __slots__ = ("agreement_number", "n", "witnesses", "per_candidate")
    _defaults = {"per_candidate": None}

    @property
    def proportion(self) -> Fraction:
        return Fraction(self.agreement_number, self.n)

    def to_obj(self) -> dict:
        obj: dict = {
            "agreement_number": self.agreement_number,
            "n": self.n,
            "agreement_proportion": coord_str(self.proportion),
        }
        witnesses = []
        for w in self.witnesses:
            if isinstance(w, Interval):
                witnesses.append([_coord_to_json(w.lo), _coord_to_json(w.hi)])
            elif isinstance(w, tuple):
                witnesses.append([_coord_to_json(x) for x in w])
            else:
                witnesses.append(_coord_to_json(w))
        obj["witnesses"] = witnesses
        if self.per_candidate is not None:
            obj["per_candidate"] = {coord_str(c): k for c, k in self.per_candidate.items()}
        return obj


def _sweep(intervals: list[Interval], lo_keys, hi_keys) -> tuple[int, tuple[Interval, ...]]:
    """Endpoint sweep over closed intervals.

    ``intervals`` are the non-empty approval sets, and ``lo_keys[i]`` and
    ``hi_keys[i]`` the exact integer order keys of voter i's ends
    (``Society._spans``), None for a voter approving nothing.  Returns the
    maximum overlap count and the set of maximal closed intervals on which
    it is attained.  The depth at a left end x is the number of left keys
    <= x less the number of right keys < x (so touching intervals overlap):
    on the sorted left keys, its 1-based rank less one ``bisect_left`` into
    the sorted right keys; the last of equal left keys counts them all.
    Depth rises only at a left end, so a run of maximum depth opens at one
    and closes at the first right key at or after it, where the depth falls.
    One pass keeps the best depth so far and its runs, not a count per voter.

    Sorting and counting run on the keys, plain ints; only the witnesses'
    endpoints are mapped back to their coordinates.
    """
    if not intervals:
        return 0, ()

    los, his = (sorted(key for key in keys if key is not None) for keys in (lo_keys, hi_keys))
    best, runs = 0, []
    for rank, x in enumerate(los, 1):
        depth = rank - bisect_left(his, x)
        if depth >= best:
            if depth > best:
                best, runs = depth, []
            runs.append((x, his[rank - depth]))

    opens, closes = (set(ends) for ends in zip(*runs))
    lo_of = {key: iv.lo for iv, key in zip(intervals, (x for x in lo_keys if x is not None)) if key in opens}
    hi_of = {key: iv.hi for iv, key in zip(intervals, (y for y in hi_keys if y is not None)) if key in closes}
    return best, tuple(Interval(lo_of[lo], hi_of[hi]) for lo, hi in runs)


def _box_agreement(society: Society) -> AgreementReport:
    """Box depth: the size of the first of ``Society._cliques``.

    The witnesses are the points of the grid of per-axis lower endpoints
    inside a maximum clique's intersection box.  Each is approved by that
    clique alone, so their sorted union is the grid's optimal points in
    ``itertools.product`` order.
    """
    cliques = society._cliques
    best = cliques[0].bit_count() if cliques else 0
    boxes = [v.approval for v in society.voters]
    axes = [sorted({b.sides[a].lo for b in boxes if b is not None}) for a in range(society.spectrum.dimension)]
    points: list[tuple] = []
    for clique in itertools.takewhile(lambda m: m.bit_count() == best, cliques):
        sides = zip(*[boxes[i].sides for i in _members(clique)])
        points += itertools.product(*[
            axis[bisect_left(axis, max(s.lo for s in side)) : bisect_right(axis, min(s.hi for s in side))]
            for axis, side in zip(axes, sides)
        ])
    return AgreementReport(best, society.n, tuple(sorted(points)))


def agreement(society: Society) -> AgreementReport:
    """Compute the agreement number, witnesses and proportion of a society.

    A line or a 1-box takes the sweep, on the span view as it stands; a
    1-box reports each maximal run's one lower end as a grid point.
    """
    require_valid(society)
    spectrum = society.spectrum

    if isinstance(spectrum, CandidateSpectrum):
        # Each voter approves a contiguous run of candidates: +1 at its start,
        # -1 just past its end; prefix sums give every candidate's tally.
        cs = spectrum.candidates
        diff = [0] * (len(cs) + 1)
        for lo, hi in zip(*society._spans):
            if lo is not None:
                diff[lo] += 1
                diff[hi + 1] -= 1
        tally = dict(zip(cs, itertools.accumulate(diff)))
        best = max(tally.values())
        witnesses = tuple(c for c in spectrum.candidates if tally[c] == best)
        return AgreementReport(best, society.n, witnesses, per_candidate=tally)

    if spectrum.dimension >= 2:
        return _box_agreement(society)

    intervals = [v.approval for v in society.voters if v.approval is not None]
    if isinstance(spectrum, BoxSpectrum):
        intervals = [box.sides[0] for box in intervals]
    best, witnesses = _sweep(intervals, *society._spans)
    if isinstance(spectrum, BoxSpectrum):
        witnesses = tuple((run.lo,) for run in witnesses)
    return AgreementReport(best, society.n, witnesses)


def _consensus_ends(society: Society) -> tuple[Coord, Coord]:
    """The largest left and the smallest right endpoint over all approval
    sets; raises if any approval set is empty."""
    empties = [v.id for v in society.voters if v.approval is None]
    if empties:
        raise ValueError(f"voters with empty approval sets: {', '.join(empties)}")
    return max(v.approval.lo for v in society.voters), min(v.approval.hi for v in society.voters)


def common_platform(society: Society) -> Interval | None:
    """The platforms approved by *every* voter, if any.

    Takes x = the largest left endpoint and y = the smallest right endpoint
    over all approval sets; when x <= y the interval [x, y] is approved by
    everyone.  For a candidate spectrum a candidate must additionally fall
    inside [x, y].  Returns None when no universally approved platform
    exists.  Raises if any approval set is empty, since such a voter rules
    out every platform.
    """
    require_valid(society)
    if isinstance(society.spectrum, BoxSpectrum):
        raise ValueError("common_platform applies to line or candidate societies")
    x, y = _consensus_ends(society)
    platform = Interval(x, y)
    if isinstance(society.spectrum, CandidateSpectrum):
        return platform if _candidate_range(platform, society.spectrum.candidates) else None
    return platform if x <= y else None


class TwoPlatformCover(Frozen):
    """Two platforms such that every approval set contains at least one."""

    __slots__ = ("x", "y", "count_x", "count_y")

    @property
    def best_count(self) -> int:
        return max(self.count_x, self.count_y)


def two_platform_cover(society: Society) -> TwoPlatformCover:
    """The two-platform construction behind the half-approval guarantee.

    For a society in which every three voters contain an agreeing pair, the
    platforms x = max of left endpoints and y = min of right endpoints
    together meet every approval set, so the more popular of the two is
    approved by at least half the voters.  The precondition, vacuous below
    three voters, is checked and violations are reported as errors.
    """
    require_valid(society)
    if not isinstance(society.spectrum, LineSpectrum):
        raise ValueError("two_platform_cover applies to line societies")
    x, y = _consensus_ends(society)

    from .agreeability import AgreeParams, is_km_agreeable

    if society.n >= 3:
        check = is_km_agreeable(society, AgreeParams(2, 3))
        if not check.agreeable:
            raise ValueError(f"society is not (2,3)-agreeable; witness {check.witness}")

    count_x = sum(1 for v in society.voters if v.approval.contains(x))
    count_y = sum(1 for v in society.voters if v.approval.contains(y))
    cover = TwoPlatformCover(x, y, count_x, count_y)
    if cover.best_count < -(-society.n // 2):
        raise RuntimeError(f"two-platform cover {cover} reaches fewer than half of {society.n} voters")
    return cover


def good_set_count(society: Society, size: int | None = None) -> int:
    """Count voter subsets of the given size whose boxes share a point.

    ``size`` defaults to d+1 for a d-box society, the subset size whose
    counting argument feeds the fractional intersection bound.  A subset
    containing an empty approval set is never counted.  By Helly number 2
    these are the ``size``-cliques of the agreement graph, counted on the
    closed neighbourhoods ``Society._near``, each clique extended by later
    voters only.  Each (later voters, size) count is made once, but the count
    itself can be exponential in n, so the box caps apply at every
    dimension, 1-boxes included.
    """
    require_valid(society)
    spectrum = society.spectrum
    if not isinstance(spectrum, BoxSpectrum):
        raise ValueError("good_set_count applies to box societies")
    if size is None:
        size = spectrum.dimension + 1
    if size < 1:
        raise ValueError(f"good_set_count needs size >= 1, got size={size}")
    if society.n <= spectrum.dimension:
        raise ValueError(f"need more than d={spectrum.dimension} voters, got {society.n}")
    _require_box_caps(society.n, spectrum.dimension)
    near = society._near

    @cache
    def count(later: int, size: int) -> int:
        if size == 1:
            return later.bit_count()
        return sum(count(later & near[i] & -(2 << i), size - 1) for i in _members(later))

    return count(sum(1 << i for i, mask in enumerate(near) if mask), size)


def good_set_lower_bound(n: int, d: int, k: int, m: int) -> Fraction:
    """Exact counting lower bound on good sets in a (k,m)-agreeable d-box society."""
    return Fraction(math.comb(k, d + 1) * math.comb(n, d + 1), math.comb(m, d + 1))
