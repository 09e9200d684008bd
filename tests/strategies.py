"""Hypothesis strategies for societies and small graphs, and larger
societies for explicit examples."""

from fractions import Fraction

import hypothesis.strategies as st

from agreeable import (
    Box,
    BoxSpectrum,
    CandidateSpectrum,
    Interval,
    LINE,
    RandomConfig,
    Society,
    Voter,
    make_box,
    make_interval,
    random_society,
    to_box_society,
)
from agreeable.graphs import Graph


def _larger(kind: str, n: int, dimension: int, seed: int, coord_max: int) -> Society:
    config = RandomConfig(coord_min=0, coord_max=coord_max, max_length=4, empty_percent=10, dimension=dimension)
    return random_society(kind, n, seed, config)


# Integer sides of length 0 to 4 on a short range, so sides touch and
# degenerate to points; 18, 2 and 4 voters approve nothing.
LINE_200 = _larger("line", 200, 1, 1, 150)
BOX2_30 = _larger("box", 30, 2, 2, 10)
BOX3_30 = _larger("box", 30, 3, 3, 8)

coords = st.one_of(
    st.integers(min_value=-15, max_value=15),
    st.fractions(min_value=-15, max_value=15, max_denominator=6),
)

lengths = st.one_of(
    st.integers(min_value=0, max_value=10),
    st.fractions(min_value=0, max_value=10, max_denominator=4),
)


@st.composite
def intervals(draw):
    lo = draw(coords)
    return make_interval(lo, lo + draw(lengths))


@st.composite
def line_societies(draw, min_n=1, max_n=10, allow_empty=True):
    n = draw(st.integers(min_n, max_n))
    approval = st.one_of(st.none(), intervals()) if allow_empty else intervals()
    voters = tuple(Voter(f"v{i + 1}", draw(approval)) for i in range(n))
    return Society(LINE, voters)


@st.composite
def farey_neighbours(draw):
    """Fractions a/b < c/d with bc - ad = 1, so they differ by only 1/(bd).

    Found by descending the Stern-Brocot tree, whose two bounds are Farey
    neighbours at every step; 100 steps reach denominators near 10**20.
    """
    (a, b), (c, d) = (0, 1), (1, 1)
    for go_right in draw(st.lists(st.booleans(), max_size=100)):
        if go_right:
            a, b = a + c, b + d
        else:
            c, d = a + c, b + d
    shift = draw(st.integers(-5, 5))
    return Fraction(a, b) + shift, Fraction(c, d) + shift


huge_denominator_coords = st.builds(Fraction, st.integers(-(10**41), 10**41), st.integers(1, 10**40))


@st.composite
def near_miss_boxes(draw, dimensions=(2, 3), max_n=8):
    """Boxes that all meet on an integer first axis and nearly miss on the others.

    On each further axis one voter's side ends at a/b and another's starts
    at its Farey neighbour c/d, 1/(bd) above it, or at a/b itself; every
    other end comes from those two and from huge-denominator coordinates.
    So each further axis needs a far finer order key than the first.
    """
    dimension = draw(st.sampled_from(dimensions))
    n = draw(st.integers(2, max_n))
    sides = [[Interval(-draw(st.integers(0, 3)), draw(st.integers(0, 3)))] for _ in range(n)]
    for _ in range(1, dimension):
        left, right = draw(farey_neighbours())
        start = draw(st.sampled_from((left, right)))
        pool = [left, start] + draw(st.lists(huge_denominator_coords, min_size=1, max_size=3))
        ends = [(min(pool), left), (start, max(pool))]
        ends += [sorted(draw(st.sampled_from(pool)) for _ in range(2)) for _ in range(n - 2)]
        for voter, (lo, hi) in zip(sides, ends):
            voter.append(Interval(lo, hi))
    order = draw(st.permutations(sides))
    return Society(BoxSpectrum(dimension), tuple(Voter(f"v{i + 1}", Box(tuple(s))) for i, s in enumerate(order)))


@st.composite
def crowded_line_societies(draw, max_n=10):
    """Line societies whose endpoints come from a few nearly equal rationals.

    The pool holds a pair of Farey neighbours and their midpoint,
    coordinates with denominators up to 10**40 and small p/q, negatives
    included; endpoints repeat, so intervals touch, nest and degenerate to
    points.  Voters are empty one time in six, so all-empty societies occur.
    """
    left, right = draw(farey_neighbours())
    pool = [left, right, (left + right) / 2]
    pool += draw(st.lists(st.one_of(coords, huge_denominator_coords), min_size=1, max_size=4))
    voters = []
    for i in range(draw(st.integers(1, max_n))):
        if draw(st.integers(0, 5)) == 0:
            voters.append(Voter(f"v{i + 1}", None))
            continue
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        voters.append(Voter(f"v{i + 1}", Interval(min(a, b), max(a, b))))
    return Society(LINE, tuple(voters))


# Candidate slates: p/q points among the interval endpoints, plus points
# beyond every interval's reach.
slates = st.sets(st.one_of(coords, st.integers(-40, 40)), min_size=1, max_size=8).map(
    lambda cs: sorted(Fraction(c) for c in cs)
)


@st.composite
def one_d_societies(draw, max_n=10):
    """Line, candidate or 1-box societies with interval representations.

    Candidate voters keep their raw intervals, so the candidate hulls are
    computed by the code under test.
    """
    society = draw(line_societies(max_n=max_n))
    kind = draw(st.sampled_from(("line", "candidates", "box")))
    if kind == "candidates":
        return Society(CandidateSpectrum(tuple(draw(slates))), society.voters)
    if kind == "box":
        return to_box_society(society)
    return society


@st.composite
def box_societies(draw, dimension=2, min_n=1, max_n=8, allow_empty=True):
    n = draw(st.integers(min_n, max_n))
    voters = []
    for i in range(n):
        if allow_empty and draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
            voters.append(Voter(f"v{i + 1}", None))
            continue
        sides = []
        for _ in range(dimension):
            lo = draw(st.integers(-10, 10))
            sides.append((lo, lo + draw(st.integers(0, 8))))
        voters.append(Voter(f"v{i + 1}", make_box(*sides)))
    return Society(BoxSpectrum(dimension), tuple(voters))


@st.composite
def graphs(draw, min_n=1, max_n=9):
    n = draw(st.integers(min_n, max_n))
    vertices = tuple(f"v{i + 1}" for i in range(n))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.add((vertices[i], vertices[j]))
    return Graph(vertices, frozenset(edges))


@st.composite
def pooled_societies(draw, max_n=8, kinds=("line", "candidates", 1, 2, 3)):
    """Societies on a few p/q coordinates; a kind is "line", "candidates" or a box dimension.

    Every endpoint comes from a pool of at most five coordinates, so sides
    touch, nest and degenerate to points; a voter is empty or a copy of an
    earlier voter's approval one time in five each.  A candidate slate mixes
    pool points with points beyond every interval.
    """
    kind = draw(st.sampled_from(kinds))
    dimension = kind if isinstance(kind, int) else 1
    pool = draw(st.lists(coords, min_size=1, max_size=5, unique=True))
    voters = []
    for i in range(draw(st.integers(1, max_n))):
        roll = draw(st.integers(0, 4))
        if roll == 0:
            approval = None
        elif roll == 1 and voters:
            approval = draw(st.sampled_from(voters)).approval
        else:
            sides = []
            for _ in range(dimension):
                a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
                sides.append(Interval(Fraction(min(a, b)), Fraction(max(a, b))))
            approval = Box(tuple(sides)) if isinstance(kind, int) else sides[0]
        voters.append(Voter(f"v{i + 1}", approval))
    if kind == "line":
        return Society(LINE, tuple(voters))
    if kind == "candidates":
        slate = draw(st.sets(st.one_of(st.sampled_from(pool), st.integers(-40, 40)), min_size=1, max_size=6))
        return Society(CandidateSpectrum(tuple(sorted(Fraction(c) for c in slate))), tuple(voters))
    return Society(BoxSpectrum(dimension), tuple(voters))
