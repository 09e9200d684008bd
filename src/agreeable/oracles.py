"""Independent brute-force references for the property suites.

Everything here recomputes graph and society quantities by exhaustive
enumeration with exact comparisons, sharing no logic with the fast paths it
is used to validate (the sweep and its integer order keys, the clique
masks, box depth and good sets, the subset search, the sorted-endpoint graph
and coloring).  Line agreement scores every endpoint and gap once; platform
masks, box depth and good sets read one containment grid.  The graph
oracles run on vertex bitmasks; only the perfection check spends O(3^n).
Instance-size caps on the exponential searches are hard errors: an oracle
never silently approximates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator

from ._frozen import Frozen
from .agreeability import AgreeParams
from .agreement import AgreementReport
from .errors import CapExceededError, _require_subset_cap
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


def _independent_table(adj: list[int]) -> list[bool]:
    """Whether each vertex bitmask is an independent set, built by doubling:
    the masks with highest vertex v extend the masks below 1 << v."""
    independent = [True]
    for a in adj:
        independent += [ok and not (a & mask) for mask, ok in enumerate(independent)]
    return independent


def _chromatic_table(adj: list[int]) -> list[int]:
    """chi of every induced subgraph, indexed by vertex bitmask: O(3^n).

    chi(S) = 1 + min over independent sets I in S containing S's first
    vertex of chi(S - I); there is always an optimal coloring in which
    that vertex's color class is such a set.
    """
    n = len(adj)
    independent = _independent_table(adj)
    chi = [0] * len(independent)
    for mask in range(1, len(chi)):
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
    """Exact chromatic number by inclusion-exclusion: O(2^n chi).

    With i(S) the number of independent sets inside S, the empty one
    included (i(S + v) = i(S) + i(S - N(v)) for v above S), the sum over S
    of (-1)^(n - |S|) i(S)^k counts the k-tuples of independent sets that
    cover every vertex, so it is positive iff chi <= k (Bjorklund,
    Husfeldt and Koivisto).  Exact ints throughout.
    """
    n = graph.n
    if n > MAX_CHROMATIC_VERTICES:
        raise CapExceededError(f"brute_chromatic capped at {MAX_CHROMATIC_VERTICES} vertices")
    if n == 0:
        return 0
    count = [1]
    for a in _adjacency_masks(graph):
        count += [c + count[mask & ~a] for mask, c in enumerate(count)]
    # The sum's terms grouped by i(S): value -> net sign count.
    weight = Counter(c for mask, c in enumerate(count) if not (n - mask.bit_count()) & 1)
    weight.subtract(c for mask, c in enumerate(count) if (n - mask.bit_count()) & 1)
    for k in range(1, n):
        if sum(w * c**k for c, w in weight.items()) > 0:
            return k
    return n


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


def _covers(independent: list[bool], bits: list[int], size: int) -> Iterator[tuple[int, ...]]:
    """The ``size``-combinations of the vertex ``bits``, in ``combinations``
    order, that cover the graph the bits induce: the rest is independent."""
    among = sum(bits)
    return (combo for combo in itertools.combinations(bits, size) if independent[among ^ sum(combo)])


def _min_cover(independent: list[bool], n: int) -> tuple[int, ...]:
    bits = [1 << i for i in range(n)]
    return next(combo for size in range(n + 1) for combo in _covers(independent, bits, size))


def brute_min_vertex_cover(graph: Graph) -> CoverCertificate:
    """Minimum vertex cover by ascending-size exhaustion, in
    ``itertools.combinations`` order, each candidate tested by one lookup
    in the table of independent vertex sets."""
    if graph.n > MAX_COVER_VERTICES:
        raise CapExceededError(f"brute_min_vertex_cover capped at {MAX_COVER_VERTICES} vertices")
    combo = _min_cover(_independent_table(_adjacency_masks(graph)), graph.n)
    return CoverCertificate(tuple(graph.vertices[b.bit_length() - 1] for b in combo), len(combo))


class CoverLemmaReport(Frozen):
    __slots__ = ("hypothesis_holds", "conclusion_holds", "cover_size")


def check_cover_lemma(graph: Graph) -> CoverLemmaReport:
    """Check one graph against the critical-cover lemma.

    Hypothesis: the minimum cover size is z, and deleting any single
    vertex drops it to z-1.  Conclusion: the graph has at most 2z
    vertices.  An edgeless graph fails the hypothesis (deletions would
    need covers of size -1).  Any instance with a true hypothesis and a
    false conclusion is a bug-stopper.  One table of independent sets
    serves the graph and every G - v.
    """
    n = graph.n
    if n > MAX_COVER_LEMMA_VERTICES:
        raise CapExceededError(f"check_cover_lemma capped at {MAX_COVER_LEMMA_VERTICES} vertices")
    independent = _independent_table(_adjacency_masks(graph))
    z = len(_min_cover(independent, n))
    hypothesis = all(
        z > 0 and next(_covers(independent, [1 << u for u in range(n) if u != v], z - 1), None) is not None
        for v in range(n)
    )
    return CoverLemmaReport(hypothesis, n <= 2 * z, z)


def _has_clique(candidates: int, size: int, adj: list[int]) -> bool:
    """Whether the vertex bitmask ``candidates`` holds a clique of ``size``."""
    if size <= 0:
        return True
    while candidates.bit_count() >= size:
        v = (candidates & -candidates).bit_length() - 1
        candidates &= candidates - 1
        if _has_clique(candidates & adj[v], size - 1, adj):
            return True
    return False


def every_m_subset_has_k_clique(graph: Graph, params: AgreeParams) -> bool:
    """Exhaustively test: does every m-subset of vertices include a k-clique?

    This is the purely graph-theoretic hypothesis shared by the coloring
    and small-m bounds, checked here independently of any geometry.  The
    answer is no iff some k-clique-free set reaches m vertices.  Those sets
    are closed under taking subsets, so a depth-first search in vertex
    order extends only them: S takes v iff S's neighbors of v hold no
    (k-1)-clique.  A branch stops when too few vertices are left to reach
    m, so each node starts a distinct m-subset: at most m C(n, m) nodes.
    """
    n = graph.n
    k, m = params.k, params.m
    if n < m:
        raise ValueError(f"graph has {n} vertices but m={m}")
    _require_subset_cap(n, m)
    adj = _adjacency_masks(graph)
    # (chosen vertex set, its size, first vertex still to try); an explicit
    # stack, as m can exceed the interpreter's recursion limit.
    stack = [(0, 0, 0)]
    while stack:
        chosen, size, start = stack.pop()
        if size == m:
            return False
        for v in range(start, n - m + size + 1):
            if not _has_clique(chosen & adj[v], k - 1, adj):
                stack.append((chosen | 1 << v, size + 1, v + 1))
    return True


def brute_line_agreement(society: Society) -> AgreementReport:
    """Agreement number and witnesses of a line society by scoring every
    endpoint and every gap once.

    Each distinct endpoint is scored by the intervals containing it, and
    each open gap (p, q) between consecutive endpoints by the intervals with
    lo <= p and q <= hi.  No endpoint lies inside a gap, so an interval
    meets the gap iff it spans it, and depth is constant on it: these scores
    see every depth on the line.  The witnesses merge each maximal run of
    optimal points and gaps into one closed interval; none when no voter
    approves anything.  Exact comparisons only, O(n^2); kept independent of
    the sweep it cross-checks.
    """
    if not isinstance(society.spectrum, LineSpectrum):
        raise ValueError("brute_line_agreement applies to line societies")
    intervals = [v.approval for v in society.voters if isinstance(v.approval, Interval)]
    points = sorted({iv.lo for iv in intervals} | {iv.hi for iv in intervals})

    # Alternating pieces: point 0, gap (0, 1), point 1, ...; a gap's closure
    # is its two endpoints.
    pieces = []
    for i, p in enumerate(points):
        pieces.append((sum(1 for iv in intervals if iv.contains(p)), p, p))
        if i + 1 < len(points):
            q = points[i + 1]
            pieces.append((sum(1 for iv in intervals if iv.lo <= p and q <= iv.hi), p, q))
    best = max((d for d, _, _ in pieces), default=0)

    runs: list[Interval] = []
    previous_optimal = False
    for d, lo, hi in pieces:
        optimal = d == best > 0
        if optimal and previous_optimal:
            runs[-1] = Interval(runs[-1].lo, hi)
        elif optimal:
            runs.append(Interval(lo, hi))
        previous_optimal = optimal
    return AgreementReport(best, society.n, tuple(runs))


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
    """Agreement graph by testing every pair of voters, boxes of any
    dimension by ``Box.intersect``: O(n^2)."""
    ids = society.voter_ids()
    boxed = isinstance(society.spectrum, BoxSpectrum)
    reps = [v.approval for v in society.voters] if boxed else _scanned_intervals(society)
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


def _brute_grid(society: Society) -> Iterator[tuple[tuple, int]]:
    """Every point of the containment grid with the bitmask of the voters
    approving it, by testing every voter against every point.

    The points are the distinct left endpoints of a line society, the slate
    of a candidate society, or the grid of per-axis distinct lower endpoints
    of a box society, as coordinate tuples in ``itertools.product`` order of
    the sorted axes; a line or slate voter is the 1-box of its interval.
    O(P n) exact containment tests for P points; kept independent of the
    clique enumeration it cross-checks.
    """
    spectrum = society.spectrum
    boxes = [
        (1 << i, v.approval if isinstance(v.approval, Box) else Box((v.approval,)))
        for i, v in enumerate(society.voters)
        if v.approval is not None
    ]
    if isinstance(spectrum, CandidateSpectrum):
        axes = [spectrum.candidates]
    else:
        axes = [sorted({b.sides[axis].lo for _, b in boxes}) for axis in range(spectrum.dimension)]
    for point in itertools.product(*axes):
        yield point, sum(bit for bit, b in boxes if b.contains(point))


def brute_platform_masks(society: Society) -> list[int]:
    """Platform masks read off the containment grid.

    Deduplicated, most voters first (ties by value), masks contained in
    another dropped.
    """
    ordered = sorted({mask for _, mask in _brute_grid(society)} - {0}, key=lambda m: (-m.bit_count(), m))
    maximal: list[int] = []
    for m in ordered:
        if not any(m & keep == m for keep in maximal):
            maximal.append(m)
    return maximal


def brute_good_set_count(society: Society, size: int, masks: list[int] | None = None) -> int:
    """The ``size``-subsets of voters inside some mask of ``masks``, by
    default the society's :func:`brute_platform_masks`."""
    if masks is None:
        masks = brute_platform_masks(society)
    return len({c for m in masks for c in itertools.combinations([i for i in range(society.n) if m >> i & 1], size)})


def brute_box_depth(society: Society) -> AgreementReport:
    """Box agreement by counting the voters approving each grid point.

    The grid of per-axis lower endpoints is exhaustive: a maximum-depth
    point shifts, axis by axis, down to the largest lower endpoint among the
    boxes containing it.  Witnesses are the optimal grid points in
    ``itertools.product`` order.
    """
    if not isinstance(society.spectrum, BoxSpectrum):
        raise ValueError("brute_box_depth applies to box societies")
    depths = [(point, mask.bit_count()) for point, mask in _brute_grid(society)]
    best = max((depth for _, depth in depths), default=0)
    witnesses = tuple(point for point, depth in depths if depth == best > 0)
    return AgreementReport(best, society.n, witnesses)
