"""Deciding (k,m)-agreeability exactly.

A society with at least m voters is (k,m)-agreeable when every subset of m
voters contains k voters whose approval sets share a platform.  The check
reduces to: does some m-subset S have sub-society agreement number below k?

Sub-society agreement numbers are evaluated on a finite platform set that
is exhaustive for every voter subset at once: left endpoints for a line
society, the candidates themselves, and the grid of per-axis lower
endpoints for a box society (a maximum-depth point shifts onto that grid).
Each platform contributes the bitmask of voters approving it.  The masks
are built once per society: per axis, two bisections per voter and a
prefix XOR over a difference array, O(n log P + P) big-int operations for
P coordinates, then O(P^d * d) ANDs for a d-box grid.  A subset S is
*deficient* iff every platform mask meets S in at most k-1 voters.
Deficient sets are closed under taking subsets, so a depth-first search in
voter order that only ever extends deficient sets finds the
lexicographically first deficient m-subset, or proves none exists.  The
search prunes a branch when its capacity bound shows size m is out of
reach: each further voter consumes a unit of some platform mask's
remaining slack, so at most sum_j min(slack_j, remaining members of mask j)
non-empty voters can still be added.

A voter with an empty approval set appears in no platform mask: it can
never be among the k agreeing voters, and (1,m)-agreeability requires a
voter with a non-empty approval set in every m-subset.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import CapExceededError
from .society import Society, require_valid

# Upper bound on C(n, m) for an exact check; override with the
# AGREE_MAX_SUBSETS environment variable.
DEFAULT_SUBSET_CAP = 2_000_000
_NODE_BUDGET_FACTOR = 8


def subset_cap() -> int:
    raw = os.environ.get("AGREE_MAX_SUBSETS")
    return int(raw) if raw else DEFAULT_SUBSET_CAP


@dataclass(frozen=True)
class AgreeParams:
    """The pair (k, m) with 1 <= k <= m."""

    k: int
    m: int

    def __post_init__(self):
        if not (1 <= self.k <= self.m):
            raise ValueError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")


@dataclass(frozen=True)
class AgreeabilityResult:
    agreeable: bool
    params: AgreeParams
    # For a negative verdict: the lexicographically first (in voter order)
    # m-subset with no platform approved by k of its members.
    witness: tuple[str, ...] | None = None


def platform_masks(society: Society) -> list[int]:
    """Voter bitmasks of every platform that can attain a maximum depth.

    Deduplicated, ordered by decreasing voter count (ties by value); masks
    contained in another mask are dropped (they can never decide a depth
    comparison).  Built once per society and cached; each call returns a
    fresh list.  Raises ValueError for a malformed society and
    CapExceededError past the box caps.
    """
    return list(society._platform_table.maximal)


def is_km_agreeable(
    society: Society, params: AgreeParams, cap: int | None = None
) -> AgreeabilityResult:
    """Decide (k,m)-agreeability, with a deterministic failure witness."""
    require_valid(society)
    n = society.n
    k, m = params.k, params.m
    if n < m:
        raise ValueError(f"society has {n} voters but m={m}")
    if cap is None:
        cap = subset_cap()
    if math.comb(n, m) > cap:
        raise CapExceededError(
            f"C({n},{m}) = {math.comb(n, m)} exceeds the enumeration cap {cap}"
        )

    masks = platform_masks(society)
    num_masks = len(masks)
    member_masks: list[list[int]] = [[] for _ in range(n)]
    for j, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            member_masks[low.bit_length() - 1].append(j)
            mask ^= low

    # remaining[j][i]: members of mask j with voter index >= i.
    remaining = []
    for mask in masks:
        suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + (mask >> i & 1)
        remaining.append(suffix)
    # Voters in no mask approve no platform at all (empty approval set, or
    # an interval containing no candidate); they join any deficient subset.
    free_suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        free_suffix[i] = free_suffix[i + 1] + (not member_masks[i])

    counts = [0] * num_masks
    chosen: list[int] = []
    budget = cap * _NODE_BUDGET_FACTOR
    nodes = 0

    def enter(start: int) -> bool:
        """Count a search node; True when ``chosen`` has size m or can reach it."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapExceededError(f"subset search exceeded {budget} nodes")
        if len(chosen) == m:
            return True
        reach = len(chosen) + free_suffix[start]
        for j in range(num_masks):
            slack = (k - 1) - counts[j]
            if slack > 0:
                rem = remaining[j][start]
                reach += slack if slack < rem else rem
            if reach >= m:
                return True
        return reach >= m

    def drop_last() -> None:
        for j in member_masks[chosen.pop()]:
            counts[j] -= 1

    # Depth-first in voter order with an explicit stack, so no subset size
    # can overflow the interpreter's recursion limit: next_voter[d] is the
    # next voter to try as the (d+1)-th member, and chosen[:d] is the path.
    witness = None
    next_voter = [0] if enter(0) else []
    while next_voter:
        i = next_voter[-1]
        while i < n and any(counts[j] >= k - 1 for j in member_masks[i]):
            i += 1
        if i == n:
            next_voter.pop()
            if chosen:
                drop_last()
            continue
        next_voter[-1] = i + 1
        for j in member_masks[i]:
            counts[j] += 1
        chosen.append(i)
        if not enter(i + 1):
            drop_last()
        elif len(chosen) == m:
            witness = tuple(chosen)
            break
        else:
            next_voter.append(i + 1)

    if witness is None:
        return AgreeabilityResult(True, params)
    ids = tuple(society.voters[i].id for i in witness)
    return AgreeabilityResult(False, params, witness=ids)


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
