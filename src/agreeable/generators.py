"""Deterministic society constructions and seeded random instances.

The deterministic generators realize the extremal configurations behind
each lower bound, with small-integer coordinates (any coordinates with the
same overlap pattern would do; tests pin the patterns, not the numbers).

Random generation uses Python's Mersenne Twister (`random.Random`) with a
documented draw order, so a (seed, config) pair reproduces an instance
bit-for-bit; see README for the exact order of draws.
"""

from __future__ import annotations

import random

from ._frozen import Frozen
from .agreeability import AgreeParams
from .bounds import division, small_m_bound
from .graphs import Graph
from .society import (
    Box,
    BoxSpectrum,
    CandidateSpectrum,
    Interval,
    LINE,
    Society,
    Voter,
    box_society,
    linear_society,
    make_interval,
)


def _unit_interval(slot: int) -> Interval:
    # [2*slot, 2*slot + 1]: unit intervals at even offsets are pairwise disjoint
    return make_interval(2 * slot, 2 * slot + 1)


def extremal_linear(n: int, params: AgreeParams) -> Society:
    """The tight example for the ceil((n - rho)/q) clique bound.

    q pairwise disjoint intervals repeated cyclically over the first
    n - rho voters, then rho fresh intervals disjoint from everything.
    The society is (k,m)-agreeable and its agreement number is exactly
    ceil((n - rho)/q).
    """
    if n < params.m:
        raise ValueError(f"need n >= m, got n={n}, m={params.m}")
    div = division(params)
    intervals = []
    for i in range(n - div.rho):
        intervals.append(_unit_interval(i % div.q))
    for t in range(div.rho):
        intervals.append(_unit_interval(div.q + t))
    return linear_society(intervals)


def clique_plus_isolated(n: int, params: AgreeParams) -> Society:
    """n - m + k identical intervals plus m - k isolated ones.

    Realizes equality in the small-m bound (agreement number exactly
    n - m + k).  :func:`small_m_bound` sizes the clique and gives the
    refusals, so only its applicability regime m <= 2k-2 is defined.
    """
    intervals = [make_interval(0, 1)] * small_m_bound(n, params)
    intervals += [_unit_interval(1 + t) for t in range(params.m - params.k)]
    return linear_society(intervals)


def disjoint_cliques(n: int, params: AgreeParams) -> Society:
    """Two far-apart blocks of identical intervals, sizes floor/ceil(n/2).

    In the regime m >= 2k-1, n >= 2(m-k+1) every m-subset still contains k
    voters sharing a platform (the larger half of the subset), yet the
    agreement number is ceil(n/2) < n - m + k: the counterexample showing
    the small-m bound needs its m <= 2k-2 hypothesis.
    """
    k, m = params.k, params.m
    if m < 2 * k - 1:
        raise ValueError(f"requires m >= 2k-1, got m={m}, k={k}")
    if n < 2 * (m - k + 1):
        raise ValueError(f"requires n >= 2(m-k+1) = {2 * (m - k + 1)}, got n={n}")
    intervals = [make_interval(0, 1)] * (n // 2) + [make_interval(10, 11)] * (n - n // 2)
    return linear_society(intervals)


def five_cycle_boxes() -> Society:
    """Five 2-boxes whose agreement graph is the 5-cycle v1-v2-v3-v4-v5-v1.

    Witnesses that box agreement graphs need not be perfect: the 5-cycle
    has clique number 2 but chromatic number 3.  The box society still has
    agreement number 2.
    """
    return box_society(
        [
            ((0, 5), (1, 4)),
            ((0, 12), (0, 2)),
            ((10, 11), (0, 10)),
            ((0, 12), (5, 8)),
            ((0, 5), (3, 6)),
        ]
    )


class RandomConfig(Frozen):
    """Coordinate ranges and shape for random societies.

    All draws are integers, so every generated coordinate is exact.
    ``empty_percent`` voters (in expectation) get an empty approval set.
    """

    __slots__ = (
        "coord_min", "coord_max", "min_length", "max_length", "empty_percent", "num_candidates", "dimension"
    )
    _defaults = {
        "coord_min": 0,
        "coord_max": 12,
        "min_length": 0,
        "max_length": 8,
        "empty_percent": 0,
        "num_candidates": 6,
        "dimension": 2,
    }

    def _check(self) -> None:
        if self.coord_min > self.coord_max:
            raise ValueError("coord_min > coord_max")
        if not (0 <= self.min_length <= self.max_length):
            raise ValueError("need 0 <= min_length <= max_length")
        if not (0 <= self.empty_percent <= 100):
            raise ValueError("empty_percent out of range")


def _below(getrandbits, width: int) -> int:
    """``Random.randrange(width)`` for an int width >= 1 (TypeError for any
    other type), by its rejection loop on ``getrandbits``: the same draws."""
    k = int.bit_length(width)
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return r


def random_society(kind: str, n: int, seed: int, config: RandomConfig = RandomConfig()) -> Society:
    """Seeded random society of the given spectrum kind.

    Draw order (fixed; changing it is a compatibility break): for the
    candidates kind, first the candidate platforms (a sorted distinct
    sample); then per voter, the emptiness draw (when enabled), then per
    axis a start and a length.
    """
    if n < 1:
        raise ValueError("a society needs at least one voter")
    if kind not in ("line", "candidates", "box"):
        raise ValueError(f"unknown society kind {kind!r}")
    if kind == "box" and config.dimension < 1:
        raise ValueError(f"box societies need dimension >= 1, got {config.dimension}")
    if kind == "candidates" and config.num_candidates < 1:
        raise ValueError(f"candidate societies need at least one candidate, got {config.num_candidates}")
    rng = random.Random(seed)

    spectrum = LINE
    if kind == "candidates":
        span = config.coord_max - config.coord_min + 1
        if config.num_candidates > span:
            raise ValueError(f"cannot place {config.num_candidates} distinct candidates in {span} slots")
        platforms = sorted(rng.sample(range(config.coord_min, config.coord_max + 1), config.num_candidates))
        spectrum = CandidateSpectrum(tuple(platforms))
    elif kind == "box":
        spectrum = BoxSpectrum(config.dimension)

    # The draws go straight into Interval: they are ints, as as_coord would give them.
    bits, empty, lo_min, length_min = rng.getrandbits, config.empty_percent, config.coord_min, config.min_length
    lo_width, length_width = config.coord_max - lo_min + 1, config.max_length - length_min + 1

    def draw() -> Interval:
        lo = lo_min + _below(bits, lo_width)
        return Interval(lo, lo + length_min + _below(bits, length_width))

    voters = []
    for i in range(n):
        vid = f"v{i + 1}"
        if empty and _below(bits, 100) < empty:
            voters.append(Voter(vid, None))
        elif kind == "box":
            voters.append(Voter(vid, Box(tuple(draw() for _ in range(config.dimension)))))
        else:
            voters.append(Voter(vid, draw()))
    return Society(spectrum, tuple(voters))


def random_graph(num_vertices: int, edge_percent: int, seed: int) -> Graph:
    """Seeded Erdos-Renyi-style graph on vertices v1..vn.

    Each pair (in lexicographic index order) is an edge with probability
    edge_percent/100, decided by one integer draw.
    """
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    if not (0 <= edge_percent <= 100):
        raise ValueError("edge_percent out of range")
    bits = random.Random(seed).getrandbits
    vertices = tuple(f"v{i + 1}" for i in range(num_vertices))
    edges = set()
    for i in range(num_vertices):
        for j in range(i + 1, num_vertices):
            if _below(bits, 100) < edge_percent:
                edges.add((vertices[i], vertices[j]))
    return Graph(vertices, frozenset(edges))
