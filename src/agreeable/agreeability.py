"""Deciding (k,m)-agreeability exactly.

A society with at least m voters is (k,m)-agreeable when every subset of m
voters contains k voters whose approval sets share a platform.  The check
reduces to: does some m-subset S have sub-society agreement number below k?

Sub-society agreement numbers are read off the society's platform masks:
the maximal voter sets that share a platform, which (Helly number 2) are
the maximal cliques of the agreement graph, built once per society.  A
subset S is *deficient* iff every platform mask meets S in at most k-1
voters.  Deficient sets are closed under taking subsets, so a depth-first
search in voter order that only ever extends deficient sets finds the
lexicographically first deficient m-subset, or proves none exists.

A search node is one int, the bitmask of the chosen voters S, with the
voters below some index already decided.  One pass over the M maximal
masks gives both what the node needs.  The capacity bound: each further
voter consumes a unit of some mask's slack k-1-|S & mask|, so at most
sum_j min(slack_j, members of mask j past the index) non-empty voters can
still be added, and the branch is pruned when that cannot reach m.  The
blocked voters: the union of the masks with no slack left, since adding
any of their members would leave S not deficient.  The work is therefore
nodes x M big-int operations.

A voter with an empty approval set appears in no platform mask: it can
never be among the k agreeing voters, and (1,m)-agreeability requires a
voter with a non-empty approval set in every m-subset.

On a one-dimensional (line, slate, 1-box) society, a largest deficient
set is a maximum (k-1)-colorable subgraph of the interval graph, which a
greedy pass over the spans by right end finds in O(n log n + n k)
(Yannakakis & Gavril 1987; Carlisle & Lloyd 1995).  When it has fewer than
m voters the society is agreeable and no search runs.  The search still
decides every other case: it alone gives the lexicographically first
witness, and boxes with d >= 2 have no such greedy.  The caps bound the
search alone, so a one-dimensional "yes" is answered at any size.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from operator import or_

from ._frozen import Frozen
from .errors import _node_budget, _require_subset_cap
from .society import Society, require_valid


class AgreeParams(Frozen):
    """The pair (k, m) with 1 <= k <= m."""

    __slots__ = ("k", "m")

    def _check(self) -> None:
        if not (1 <= self.k <= self.m):
            raise ValueError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")


class AgreeabilityResult(Frozen):
    """A verdict; for a negative one, ``witness`` is the lexicographically
    first (in voter order) m-subset with no platform approved by k of its
    members."""

    __slots__ = ("agreeable", "params", "witness")
    _defaults = {"witness": None}


def platform_masks(society: Society) -> list[int]:
    """Voter bitmasks of the maximal voter sets that share a platform.

    These are the maximal cliques of the agreement graph, ordered by
    decreasing voter count (ties by value); every platform's voter set lies
    in one of them.  Built once per society and cached; each call returns a
    fresh list.  Raises ValueError for a malformed society and
    CapExceededError past the box caps (boxes with d >= 2).
    """
    return list(society._cliques)


def is_km_agreeable(society: Society, params: AgreeParams) -> AgreeabilityResult:
    """Decide (k,m)-agreeability, with a deterministic failure witness.

    A one-dimensional (line, slate, 1-box) society whose largest deficient
    set (:func:`_largest_deficient_size`) has fewer than m voters is
    agreeable, at any size and without a search; the subset search decides
    every other case, and raises CapExceededError past its caps.
    """
    require_valid(society)
    if society.n < params.m:
        raise ValueError(f"society has {society.n} voters but m={params.m}")
    if society.spectrum.dimension == 1 and _largest_deficient_size(society, params.k) < params.m:
        return AgreeabilityResult(True, params)
    return _subset_search(society, params)


def _largest_deficient_size(society: Society, k: int) -> int:
    """The voter count of a largest deficient set of a one-dimensional society.

    A set of spans is deficient iff no point lies in k of them, that is iff
    it splits into k-1 tracks of pairwise disjoint spans: the largest one is
    a maximum (k-1)-colorable subgraph of the interval graph.  The track
    greedy finds one: take the spans by right end, put each on the track
    whose last right end is the latest one strictly below its left end, or
    open a track while fewer than k-1 exist, else leave it out.  Voters with
    no span join every deficient set.  O(n log n + n k).
    """
    los, his = society._spans
    ends: list[int] = []  # the last right end of each track, ascending
    size = 0
    for hi, lo in sorted([(hi, lo) for lo, hi in zip(los, his) if lo is not None]):
        track = bisect_left(ends, lo)  # ends[:track] lie strictly below lo
        if track:
            del ends[track - 1]
        elif len(ends) == k - 1:
            continue
        ends.append(hi)  # no end so far exceeds hi, so ends stay sorted
        size += 1
    return size + his.count(None)


def _subset_search(society: Society, params: AgreeParams) -> AgreeabilityResult:
    """The depth-first search of the module docstring, on a valid society
    with at least m voters; raises CapExceededError past the C(n, m) cap,
    the box caps (from the masks, for d >= 2) or the node budget, in that
    order."""
    n = society.n
    k, m = params.k, params.m
    _require_subset_cap(n, m)
    masks = platform_masks(society)
    full = (1 << n) - 1
    # Voters in no mask approve no platform at all (empty approval set, or
    # an interval containing no candidate); they join any deficient subset.
    free = full & ~reduce(or_, masks, 0)

    # Depth-first in voter order with an explicit stack, so no subset size
    # can overflow the interpreter's recursion limit.  A node is the chosen
    # voter set, with voters below ``start`` already decided; each stack
    # entry is an expanded node and the voters it has still to try.
    chosen, start, stack = 0, 0, []
    for _ in _node_budget():
        size = chosen.bit_count()
        if size == m:
            ids = tuple(v.id for i, v in enumerate(society.voters) if chosen >> i & 1)
            return AgreeabilityResult(False, params, witness=ids)
        reach = size + (free >> start).bit_count()
        blocked = 0
        for mask in masks:
            slack = k - 1 - (chosen & mask).bit_count()
            if slack:
                rest = (mask >> start).bit_count()
                reach += slack if slack < rest else rest
            else:
                blocked |= mask
        if reach >= m:
            stack.append((chosen, (full >> start << start) & ~blocked))
        while stack and not stack[-1][1]:
            stack.pop()
        if not stack:
            return AgreeabilityResult(True, params)
        chosen, todo = stack[-1]
        low = todo & -todo
        stack[-1] = (chosen, todo ^ low)
        chosen |= low
        start = low.bit_length()


def pigeonhole_sufficient(num_candidates: int, min_approvals_per_voter: int, params: AgreeParams) -> bool:
    """Counting shortcut: sufficient (never necessary) for (k,m)-agreeability.

    If every voter approves at least a of the c candidates, then among any
    m voters the approvals total at least m*a; if every candidate were
    approved by at most k-1 of them the total would be at most (k-1)*c.
    So m*a > (k-1)*c forces a candidate approved by k of any m voters.
    """
    if num_candidates < 1 or min_approvals_per_voter < 0:
        raise ValueError("need a positive candidate count and non-negative approvals")
    return params.m * min_approvals_per_voter > (params.k - 1) * num_candidates
