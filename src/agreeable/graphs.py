"""Agreement graphs, interval-graph coloring and graph plumbing.

The agreement graph of a society joins two voters whenever their approval
sets intersect.  For line, candidate and 1-box societies this is an
interval graph, whose clique number equals the society's agreement number;
the first-fit coloring below realizes that equality constructively.

Both read the society's integer span view, ``Society._spans`` (per voter,
the indices of the first and last approved candidate on a slate, else the
exact order keys of the ends of the interval or of a box's first side), and
run on sorted ints.  The graph's edges are ``society._meetings``, the runs
of first-axis spans each voter meets, filtered by the order keys of the
other axes (``Society._axes``) for boxes with d >= 2: O(n log n + R d) for
R first-axis pairs, and no coordinate compared.  The coloring takes
O(n log n), two sorts and one pointer, and refuses boxes with d >= 2.
Edges are normalized as they are built, so the Graph is made without
re-checking them.  An election from ``restrict_to_candidates`` arrives with
its span view and its validation, so neither is computed again here.
"""

from __future__ import annotations

import heapq
import json
from functools import cached_property

from ._frozen import Frozen, set_field
from .society import Society, _meetings, require_valid


class Graph(Frozen):
    """Undirected graph with ordered vertices and normalized edges.

    Edges are stored as (u, v) pairs with u preceding v in vertex order, so
    serialization and iteration are deterministic.  The ``__dict__`` slot
    holds the cached properties.
    """

    __slots__ = ("vertices", "edges", "__dict__")

    def _check(self) -> None:
        index = self._index
        if len(index) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            if u not in index or v not in index:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertices")
            if index[u] > index[v]:
                raise ValueError(f"edge ({u}, {v}) not in vertex order")

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], edges: frozenset[tuple[str, str]]) -> "Graph":
        """A Graph whose edges its builder made normalized, on distinct
        vertices, so that the per-edge checks of ``_check`` are skipped."""
        graph = object.__new__(cls)
        set_field(graph, "vertices", vertices)
        set_field(graph, "edges", edges)
        return graph

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}

    def has_edge(self, u: str, v: str) -> bool:
        if self._index[u] > self._index[v]:
            u, v = v, u
        return (u, v) in self.edges

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def induced(self, subset) -> "Graph":
        keep = set(subset)
        vertices = tuple(v for v in self.vertices if v in keep)
        edges = frozenset((u, v) for u, v in self.edges if u in keep and v in keep)
        return Graph(vertices, edges)

    def complement(self) -> "Graph":
        edges = set()
        for i, u in enumerate(self.vertices):
            for v in self.vertices[i + 1 :]:
                if (u, v) not in self.edges:
                    edges.add((u, v))
        return Graph(self.vertices, frozenset(edges))

    def sorted_edges(self) -> list[tuple[str, str]]:
        idx = self._index
        return sorted(self.edges, key=lambda e: (idx[e[0]], idx[e[1]]))

    def to_obj(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.sorted_edges()]}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":")) + "\n"


def graph_from_edges(vertices, edges) -> Graph:
    """Build a Graph from any iterable of unordered vertex pairs."""
    vertices = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    normalized = set()
    for u, v in edges:
        if index[u] > index[v]:
            u, v = v, u
        normalized.add((u, v))
    return Graph(vertices, frozenset(normalized))


class Coloring(Frozen):
    """A proper coloring: voter id -> color index in 1..num_colors."""

    __slots__ = ("assignment",)

    @property
    def num_colors(self) -> int:
        return max(self.assignment.values(), default=0)

    def is_proper(self, graph: Graph) -> bool:
        return all(self.assignment[u] != self.assignment[v] for u, v in graph.edges)


def agreement_graph(society: Society) -> Graph:
    """Graph on the voters with edges between intersecting approval sets:
    the meeting pairs of ``society._meetings``, O(n log n + R d) for R
    first-axis pairs."""
    require_valid(society)
    ids = society.voter_ids()
    edges = frozenset([(ids[i], ids[j]) if i < j else (ids[j], ids[i]) for i, run in _meetings(society) for j in run])
    return Graph._trusted(ids, edges)


def _require_interval_view(society: Society) -> None:
    """Refuse boxes with d >= 2, whose first-axis spans do not represent them."""
    if society.spectrum.dimension >= 2:
        raise ValueError("no interval representation for boxes with d >= 2")


def greedy_interval_coloring(society: Society) -> Coloring:
    """First-fit coloring of an interval representation, using omega colors.

    Voters are processed by *decreasing* right endpoint (ties broken by
    society order, empty approval sets first); each receives the smallest
    color unused among its already-colored neighbors.  When a voter is
    colored, its colored neighbors all have right endpoints at least its
    own, hence their intervals all contain its right endpoint and form a
    clique: at most omega-1 colors are blocked, so omega colors suffice.
    Processing by increasing right endpoint does not have this property
    and can exceed omega.

    Colored spans are retired by one pointer over the spans sorted by
    decreasing left end, and the free colors kept in a min-heap, so the
    whole pass is O(n log n).
    """
    require_valid(society)
    _require_interval_view(society)
    los, his = society._spans
    ids = society.voter_ids()
    assignment = dict.fromkeys([vid for vid, hi in zip(ids, his) if hi is None], 1)
    # sorted() is stable, with reverse=True too: equal right ends keep society order.
    order = sorted([i for i, hi in enumerate(his) if hi is not None], key=his.__getitem__, reverse=True)
    by_lo = sorted(order, key=los.__getitem__, reverse=True)

    # A span whose left end lies above the current right end has a larger
    # right end, so it is already colored; right ends only decrease from
    # here on, so it meets no later voter either and frees its color for
    # good.  The colored spans not yet retired all contain the current right
    # end, hold distinct colors, and are exactly the current voter's colored
    # neighbors.  The current span is never retired (its left end is at most
    # its right end), so the pointer stops before it.
    color_of = [0] * len(his)
    free: list[int] = []
    retired = used = 0
    for i in order:
        hi = his[i]
        while los[by_lo[retired]] > hi:
            heapq.heappush(free, color_of[by_lo[retired]])
            retired += 1
        if free:
            color = heapq.heappop(free)
        else:
            used += 1
            color = used
        color_of[i] = color
        assignment[ids[i]] = color
    return Coloring(assignment)


def clique_number_linear(society: Society) -> int:
    """Clique number of the agreement graph of a line, candidate or 1-box society.

    Equals the agreement number: a clique's intervals pairwise intersect,
    so on the line they share a platform.  The greedy coloring provides the
    matching upper bound and is checked against it; a mismatch raises
    RuntimeError.  When no voter has an interval (every approval set empty,
    or no candidate approved) the agreement number is 0 and the coloring,
    which would give the isolated voters one color, is skipped.  Raises
    ValueError for boxes with d >= 2.
    """
    from .agreement import agreement

    require_valid(society)
    _require_interval_view(society)
    if all(lo is None for lo in society._spans[0]):
        return 0
    number = agreement(society).agreement_number
    colors = greedy_interval_coloring(society).num_colors
    if colors != number:
        raise RuntimeError(f"greedy coloring used {colors} colors for agreement number {number}")
    return number
