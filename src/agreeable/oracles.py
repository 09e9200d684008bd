"""Independent brute-force references for the property suites.

Everything here recomputes graph and society quantities by exhaustive
enumeration on Fractions, sharing no logic with the fast paths it is used
to validate (the sweep and its integer order keys, the platform masks and
box depth, the subset search, the sorted-endpoint graph and coloring).
Instance-size caps on the exponential searches are hard errors: an oracle
never silently approximates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._frozen import Frozen, set_field
from .agreeability import AgreeParams, _require_subset_cap
from .agreement import AgreementReport
from .errors import CapExceededError
from .graphs import Coloring, Graph
from .society import Box, BoxSpectrum, CandidateSpectrum, Interval, LineSpectrum, Society

MAX_CLIQUE_VERTICES = 24
MAX_CHROMATIC_VERTICES = 13
MAX_COVER_VERTICES = 18
MAX_COVER_LEMMA_VERTICES = 14


def _adjacency_masks(graph: Graph) -> list[int]:
    index = {v: i for i, v in enumerate(graph.vertices)}
    masks = [0] * graph.n
    for u, v in graph.edges:
        masks[index[u]] |= 1 << index[v]
        masks[index[v]] |= 1 << index[u]
    return masks


def brute_clique(graph: Graph) -> int:
    """Exact clique number by exhaustive candidate-set expansion."""
    if graph.n > MAX_CLIQUE_VERTICES:
        raise CapExceededError(f"brute_clique capped at {MAX_CLIQUE_VERTICES} vertices")
    if graph.n == 0:
        return 0
    adj = _adjacency_masks(graph)
    best = 0

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while candidates:
            if size + candidates.bit_count() <= best:
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            expand(candidates & adj[v], size + 1)

    expand((1 << graph.n) - 1, 0)
    return best


def _chromatic_table(adj: list[int]) -> list[int]:
    """chi of every induced subgraph, indexed by vertex bitmask.

    chi(S) = 1 + min over independent sets I in S containing S's first
    vertex of chi(S - I); there is always an optimal coloring in which
    that vertex's color class is such a set.
    """
    n = len(adj)
    full = (1 << n) - 1

    independent = [False] * (full + 1)
    independent[0] = True
    for mask in range(1, full + 1):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        independent[mask] = independent[rest] and not (adj[v] & rest)

    chi = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        best = n
        sub = mask
        while sub:
            if sub & low and independent[sub]:
                candidate = 1 + chi[mask ^ sub]
                if candidate < best:
                    best = candidate
            sub = (sub - 1) & mask
        chi[mask] = best
    return chi


def brute_chromatic(graph: Graph) -> int:
    """Exact chromatic number by dynamic programming over vertex subsets."""
    if graph.n > MAX_CHROMATIC_VERTICES:
        raise CapExceededError(f"brute_chromatic capped at {MAX_CHROMATIC_VERTICES} vertices")
    return _chromatic_table(_adjacency_masks(graph))[-1]


def induced_subgraph_tables(graph: Graph) -> tuple[list[int], list[int]]:
    """(omega, chi) for every induced subgraph, indexed by vertex bitmask.

    omega uses the recurrence omega(S) = max(omega(S - v), 1 + omega of
    S's neighbors of v) with v the first vertex of S; chi as in
    :func:`_chromatic_table`.  Used for exhaustive perfection checks.
    """
    if graph.n > MAX_CHROMATIC_VERTICES:
        raise CapExceededError(f"induced tables capped at {MAX_CHROMATIC_VERTICES} vertices")
    adj = _adjacency_masks(graph)

    omega = [0] * (1 << graph.n)
    for mask in range(1, len(omega)):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        with_v = 1 + omega[rest & adj[v]]
        omega[mask] = max(omega[rest], with_v)
    return omega, _chromatic_table(adj)


def is_perfect_by_enumeration(graph: Graph) -> bool:
    """True iff every induced subgraph has equal clique and chromatic number."""
    omega, chi = induced_subgraph_tables(graph)
    return all(omega[mask] == chi[mask] for mask in range(len(omega)))


class CoverCertificate(Frozen):
    """A minimum vertex cover with its exhaustively-proved size."""

    __slots__ = ("cover", "size")

    def __init__(self, cover: tuple[str, ...], size: int):
        set_field(self, "cover", cover)
        set_field(self, "size", size)


def _edge_index_pairs(graph: Graph) -> list[tuple[int, int]]:
    index = {v: i for i, v in enumerate(graph.vertices)}
    return [(index[u], index[v]) for u, v in graph.sorted_edges()]


def _has_cover_of_size(edges: list[tuple[int, int]], n: int, size: int) -> tuple[int, ...] | None:
    if size < 0:
        return None
    if not edges:
        return ()
    if size == 0:
        return None
    for combo in itertools.combinations(range(n), size):
        chosen = set(combo)
        if all(u in chosen or v in chosen for u, v in edges):
            return combo
    return None


def brute_min_vertex_cover(graph: Graph) -> CoverCertificate:
    """Minimum vertex cover by ascending-size exhaustion."""
    if graph.n > MAX_COVER_VERTICES:
        raise CapExceededError(f"brute_min_vertex_cover capped at {MAX_COVER_VERTICES} vertices")
    edges = _edge_index_pairs(graph)
    for size in range(graph.n + 1):
        combo = _has_cover_of_size(edges, graph.n, size)
        if combo is not None:
            return CoverCertificate(tuple(graph.vertices[i] for i in combo), size)
    raise AssertionError("the full vertex set always covers")


class CoverLemmaReport(Frozen):
    __slots__ = ("hypothesis_holds", "conclusion_holds", "cover_size")

    def __init__(self, hypothesis_holds: bool, conclusion_holds: bool, cover_size: int):
        set_field(self, "hypothesis_holds", hypothesis_holds)
        set_field(self, "conclusion_holds", conclusion_holds)
        set_field(self, "cover_size", cover_size)


def check_cover_lemma(graph: Graph) -> CoverLemmaReport:
    """Check one graph against the critical-cover lemma.

    Hypothesis: the minimum cover size is z, and deleting any single
    vertex drops it to z-1.  Conclusion: the graph has at most 2z
    vertices.  An edgeless graph fails the hypothesis (deletions would
    need covers of size -1).  Any instance with a true hypothesis and a
    false conclusion is a bug-stopper.
    """
    if graph.n > MAX_COVER_LEMMA_VERTICES:
        raise CapExceededError(f"check_cover_lemma capped at {MAX_COVER_LEMMA_VERTICES} vertices")
    z = brute_min_vertex_cover(graph).size
    hypothesis = True
    for v in graph.vertices:
        rest = graph.induced([u for u in graph.vertices if u != v])
        edges = _edge_index_pairs(rest)
        if _has_cover_of_size(edges, rest.n, z - 1) is None:
            hypothesis = False
            break
    return CoverLemmaReport(hypothesis, graph.n <= 2 * z, z)


def _has_clique_of_size(members: list[int], adj: list[int], k: int) -> bool:
    if k == 0:
        return True

    def extend(candidates: int, need: int) -> bool:
        if need == 0:
            return True
        while candidates:
            if candidates.bit_count() < need:
                return False
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if extend(candidates & adj[v], need - 1):
                return True
        return False

    mask = 0
    for i in members:
        mask |= 1 << i
    return extend(mask, k)


def every_m_subset_has_k_clique(graph: Graph, params: AgreeParams, cap: int | None = None) -> bool:
    """Exhaustively test: does every m-subset of vertices include a k-clique?

    This is the purely graph-theoretic hypothesis shared by the coloring
    and small-m bounds, checked here independently of any geometry.
    """
    n = graph.n
    k, m = params.k, params.m
    if n < m:
        raise ValueError(f"graph has {n} vertices but m={m}")
    _require_subset_cap(n, m, cap)
    adj = _adjacency_masks(graph)
    for subset in itertools.combinations(range(n), m):
        if not _has_clique_of_size(list(subset), adj, k):
            return False
    return True


def brute_agreement_line(society: Society) -> int:
    """Agreement number of a line society by evaluating every endpoint.

    The maximum depth over the line is attained at some interval endpoint,
    so scoring each endpoint platform directly is exhaustive.  Kept
    independent of the sweep it cross-checks.
    """
    if not isinstance(society.spectrum, LineSpectrum):
        raise ValueError("brute_agreement_line applies to line societies")
    intervals = [v.approval for v in society.voters if isinstance(v.approval, Interval)]
    platforms = {iv.lo for iv in intervals} | {iv.hi for iv in intervals}
    best = 0
    for p in platforms:
        depth = sum(1 for iv in intervals if iv.contains(p))
        best = max(best, depth)
    return best


def brute_line_witnesses(society: Society) -> tuple[Interval, ...]:
    """Maximal closed intervals of maximum depth in a line society.

    Scores every distinct endpoint and the midpoint of every gap between
    consecutive endpoints by counting the intervals containing it, then
    merges each maximal run of optimal points and gaps into one interval.
    Depth is constant on each open gap, so these points see every depth on
    the line.  Fractions only, O(n^2); kept independent of the sweep it
    cross-checks.  Empty when no voter approves anything.
    """
    if not isinstance(society.spectrum, LineSpectrum):
        raise ValueError("brute_line_witnesses applies to line societies")
    intervals = [v.approval for v in society.voters if isinstance(v.approval, Interval)]
    points = sorted({iv.lo for iv in intervals} | {iv.hi for iv in intervals})

    def depth(p) -> int:
        return sum(1 for iv in intervals if iv.contains(p))

    # Alternating pieces: point 0, gap (0, 1), point 1, ...; a gap's closure
    # is its two endpoints.
    pieces = []
    for i, p in enumerate(points):
        pieces.append((depth(p), p, p))
        if i + 1 < len(points):
            pieces.append((depth(Fraction(p + points[i + 1], 2)), p, points[i + 1]))
    best = max((d for d, _, _ in pieces), default=0)
    if best == 0:
        return ()

    runs: list[Interval] = []
    previous_optimal = False
    for d, lo, hi in pieces:
        if d == best and previous_optimal:
            runs[-1] = Interval(runs[-1].lo, hi)
        elif d == best:
            runs.append(Interval(lo, hi))
        previous_optimal = d == best
    return tuple(runs)


def _scanned_intervals(society: Society) -> list[Interval | None]:
    """Per-voter interval representation, candidate hulls found by a linear
    scan of the slate; None for an empty approval set."""
    out: list[Interval | None] = []
    for v in society.voters:
        iv = v.approval
        if isinstance(iv, Box):
            if iv.dimension != 1:
                raise ValueError("no interval representation for boxes with d >= 2")
            iv = iv.sides[0]
        if iv is not None and isinstance(society.spectrum, CandidateSpectrum):
            inside = [c for c in society.spectrum.candidates if iv.lo <= c <= iv.hi]
            iv = Interval(inside[0], inside[-1]) if inside else None
        out.append(iv)
    return out


def brute_interval_graph(society: Society) -> Graph:
    """Agreement graph of a line, candidate or 1-box society by testing
    every pair of voters: O(n^2)."""
    ids = society.voter_ids()
    reps = _scanned_intervals(society)
    edges = set()
    for i, a in enumerate(reps):
        if a is None:
            continue
        for j in range(i + 1, len(reps)):
            b = reps[j]
            if b is not None and a.intersect(b) is not None:
                edges.add((ids[i], ids[j]))
    return Graph(ids, frozenset(edges))


def brute_first_fit_coloring(society: Society) -> Coloring:
    """First-fit coloring by decreasing right endpoint, testing each voter
    against every colored voter: O(n^2).

    Same order as the fast path: empty approval sets first (color 1), then
    decreasing right endpoint with ties in society order.
    """
    reps = list(zip(society.voter_ids(), _scanned_intervals(society)))
    empties = [(vid, iv) for vid, iv in reps if iv is None]
    filled = [(vid, iv) for vid, iv in reps if iv is not None]
    order = empties + sorted(filled, key=lambda r: r[1].hi, reverse=True)

    assignment: dict[str, int] = {}
    colored: list[tuple[str, Interval]] = []
    for vid, iv in order:
        if iv is None:
            assignment[vid] = 1
            continue
        used = {assignment[other] for other, other_iv in colored if iv.intersect(other_iv) is not None}
        color = 1
        while color in used:
            color += 1
        assignment[vid] = color
        colored.append((vid, iv))
    return Coloring(assignment)


def brute_platform_masks(society: Society) -> list[int]:
    """Platform masks by testing every voter against every platform.

    Platforms: the distinct left endpoints of a line society, the slate of a
    candidate society, the grid of per-axis distinct lower endpoints of a
    box society.  Deduplicated, most voters first (ties by value), masks
    contained in another dropped, all kept past 4000 distinct masks.
    O(P n) Fraction containment tests, O(n^(d+1)) for d-boxes; kept
    independent of the difference-array masks it cross-checks.
    """
    voters = society.voters
    spectrum = society.spectrum
    masks: set[int] = set()

    if isinstance(spectrum, CandidateSpectrum):
        for c in spectrum.candidates:
            mask = 0
            for i, v in enumerate(voters):
                if isinstance(v.approval, Interval) and v.approval.contains(c):
                    mask |= 1 << i
            masks.add(mask)
    elif isinstance(spectrum, LineSpectrum):
        for p in {v.approval.lo for v in voters if isinstance(v.approval, Interval)}:
            mask = 0
            for i, v in enumerate(voters):
                if isinstance(v.approval, Interval) and v.approval.contains(p):
                    mask |= 1 << i
            masks.add(mask)
    else:
        boxes = [(i, v.approval) for i, v in enumerate(voters) if isinstance(v.approval, Box)]
        axes = [sorted({b.sides[axis].lo for _, b in boxes}) for axis in range(spectrum.dimension)]
        for point in itertools.product(*axes):
            mask = 0
            for i, b in boxes:
                if b.contains(point):
                    mask |= 1 << i
            masks.add(mask)

    masks.discard(0)
    ordered = sorted(masks, key=lambda m: (-m.bit_count(), m))
    if len(ordered) > 4000:
        return ordered
    maximal: list[int] = []
    for m in ordered:
        if not any(m & keep == m for keep in maximal):
            maximal.append(m)
    return maximal


def brute_box_depth(society: Society) -> AgreementReport:
    """Box agreement by counting the boxes containing each grid point.

    The grid of per-axis lower endpoints is exhaustive: a maximum-depth
    point shifts, axis by axis, down to the largest lower endpoint among the
    boxes containing it.  Witnesses are the optimal grid points in
    ``itertools.product`` order.  O(n^(d+1)) Fraction containment tests.
    """
    if not isinstance(society.spectrum, BoxSpectrum):
        raise ValueError("brute_box_depth applies to box societies")
    boxes = [v.approval for v in society.voters if isinstance(v.approval, Box)]
    axes = [sorted({b.sides[axis].lo for b in boxes}) for axis in range(society.spectrum.dimension)]
    best = 0
    witnesses: list[tuple] = []
    for point in itertools.product(*axes):
        depth = sum(1 for b in boxes if b.contains(point))
        if depth > best:
            best = depth
            witnesses = [point]
        elif depth == best and best > 0:
            witnesses.append(point)
    return AgreementReport(best, society.n, tuple(witnesses))
