"""Hypothesis strategies for societies and small graphs."""

from fractions import Fraction

import hypothesis.strategies as st

from agreeable import CandidateSpectrum, Society, LINE, Voter, make_box, make_interval, to_box_society
from agreeable.graphs import Graph

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
    from agreeable import BoxSpectrum

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
