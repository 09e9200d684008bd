"""The integer span view, ``Society._spans``, against independent computations.

The agreement graph, the coloring and the candidate tally read only the
view's ints; here they are compared with the pairwise oracles and direct
counts, on slates whose hulls touch and repeat, on restricted elections
(which receive their view from the restriction) and on line and 1-box
societies.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from agreeable import (
    Box,
    CandidateSpectrum,
    Interval,
    LINE,
    Society,
    Voter,
    agreement,
    agreement_graph,
    clique_number_linear,
    dumps_society,
    greedy_interval_coloring,
    linear_society,
    loads_society,
    restrict_to_candidates,
    validate,
)
import agreeable.society as society_mod
from agreeable.graphs import Graph
from agreeable.oracles import brute_first_fit_coloring, brute_interval_graph, brute_line_agreement

from strategies import box_societies, pooled_societies

# Whole numbers as ints and as Fractions, and p/q values: equal values of
# either type must get equal spans.
pool_coords = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=3), st.integers(-6, 6).map(Fraction))


@st.composite
def pooled_intervals(draw, max_n=10):
    """Intervals on a few coordinates, so ends touch, nest and repeat; None
    one time in five, and a copy of an earlier interval one time in five."""
    pool = draw(st.lists(pool_coords, min_size=1, max_size=5))
    intervals = []
    for _ in range(draw(st.integers(1, max_n))):
        roll = draw(st.integers(0, 4))
        if roll == 0:
            intervals.append(None)
        elif roll == 1 and intervals:
            intervals.append(draw(st.sampled_from(intervals)))
        else:
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            intervals.append(Interval(min(a, b), max(a, b)))
    return pool, intervals


@st.composite
def slate_elections(draw, max_n=10):
    """A line society and a slate of ints and Fractions: pool points, so hulls
    touch and repeat, and points beyond every interval, so some voters
    approve no candidate."""
    pool, intervals = draw(pooled_intervals(max_n))
    slate = draw(st.sets(st.one_of(st.sampled_from(pool), st.integers(-9, 9)), min_size=1, max_size=6))
    return linear_society(intervals), sorted(slate)


@st.composite
def slate_societies(draw, max_n=10):
    """Candidate societies built directly (cold view), with raw intervals."""
    society, slate = draw(slate_elections(max_n))
    return Society(CandidateSpectrum(tuple(slate)), society.voters)


@st.composite
def restricted_societies(draw, max_n=10):
    """Elections from the restriction, which hands them their view."""
    society, slate = draw(slate_elections(max_n))
    return restrict_to_candidates(society, slate)


span_societies = st.one_of(
    slate_societies(),
    restricted_societies(),
    pooled_societies(kinds=("line", "candidates", 1)),
)


def _check_graph_and_coloring(society):
    graph = agreement_graph(society)
    assert graph == brute_interval_graph(society)
    # The graph is built without the per-edge checks; the public constructor
    # accepts it as it stands.
    assert Graph(graph.vertices, graph.edges) == graph
    fast = greedy_interval_coloring(society).assignment
    assert list(fast.items()) == list(brute_first_fit_coloring(society).assignment.items())


@given(span_societies)
@settings(max_examples=200)
def test_graph_and_coloring_read_the_view_exactly(society):
    _check_graph_and_coloring(society)


@given(st.one_of(slate_societies(), restricted_societies()))
@settings(max_examples=150)
def test_tally_equals_a_direct_count(society):
    report = agreement(society)
    counts = {
        c: sum(1 for v in society.voters if v.approval is not None and v.approval.contains(c))
        for c in society.spectrum.candidates
    }
    assert report.per_candidate == counts
    best = max(counts.values())
    assert report.agreement_number == best
    assert report.witnesses == tuple(c for c, k in counts.items() if k == best)


@given(restricted_societies())
@settings(max_examples=150)
def test_handed_view_matches_a_cold_election(election):
    cold = loads_society(dumps_society(election))
    assert "_spans" not in cold.__dict__
    assert agreement(election) == agreement(cold)
    assert agreement_graph(election) == agreement_graph(cold)
    assert list(greedy_interval_coloring(election).assignment.items()) == list(
        greedy_interval_coloring(cold).assignment.items()
    )
    assert clique_number_linear(election) == clique_number_linear(cold)
    assert election._spans == cold._spans


@given(pooled_societies(kinds=("line", 1)))
@settings(max_examples=120)
def test_line_keys_order_the_ends_exactly(society):
    ends = [v.approval if v.approval is None or society.spectrum.kind == "line" else v.approval.sides[0]
            for v in society.voters]
    los, his = society._spans
    keyed = [(lo, iv.lo) for lo, iv in zip(los, ends) if iv is not None]
    keyed += [(hi, iv.hi) for hi, iv in zip(his, ends) if iv is not None]
    assert all((lo is None) == (iv is None) for lo, iv in zip(los, ends))
    assert all(isinstance(key, int) for key, _ in keyed)
    for key, x in keyed:
        for other_key, y in keyed:
            assert (key < other_key) == (x < y)
            assert (key == other_key) == (x == y)
    if society.spectrum.kind == "line":
        assert agreement(society) == brute_line_agreement(society)


@given(st.one_of(box_societies(dimension=2), box_societies(dimension=3)))
@settings(max_examples=60)
def test_box_graphs_pass_the_public_checks(society):
    graph = agreement_graph(society)
    assert Graph(graph.vertices, graph.edges) == graph


def test_slate_view_holds_candidate_indices():
    # Hulls [1, 3] and [3, 7] touch at candidate 3; v4 repeats v1; v2
    # approves no candidate; v5 approves nothing.
    society = linear_society([(0, 3), (4, 5), (3, 9), (0, 3), None])
    election = restrict_to_candidates(society, [Fraction(1), 3, Fraction(7)])
    assert election._spans == ((0, None, 1, 0, None), (1, None, 2, 1, None))
    assert loads_society(dumps_society(election))._spans == election._spans
    assert agreement_graph(election).edges == {("v1", "v3"), ("v1", "v4"), ("v3", "v4")}
    assert greedy_interval_coloring(election).assignment == {"v2": 1, "v5": 1, "v3": 1, "v1": 2, "v4": 3}


DUPLICATE = "invalid society: voter a: duplicate id"
READERS = [agreement, agreement_graph, greedy_interval_coloring, clique_number_linear]


@pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
def test_duplicate_ids_raise_through_the_restriction(read):
    society = linear_society([(0, 2), (1, 3), None], ids=["a", "a", "b"])
    election = restrict_to_candidates(society, [0, 1, 2, 3])
    with pytest.raises(ValueError) as caught:
        read(election)
    assert str(caught.value) == DUPLICATE


@pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__)
def test_lo_above_hi_raises_on_a_slate(read):
    society = Society(CandidateSpectrum((0, 1, 2)), (Voter("a", Interval(2, 1)), Voter("b", Interval(0, 2))))
    with pytest.raises(ValueError) as caught:
        read(society)
    assert str(caught.value) == "invalid society: voter a: lo > hi"


def test_restriction_refuses_a_line_voter_with_lo_above_hi():
    # Such a voter contains no candidate; the restriction refuses it rather
    # than hand the election a voter approving nothing.
    society = Society(LINE, (Voter("a", Interval(3, 1)), Voter("b", Interval(0, 2))))
    with pytest.raises(ValueError) as caught:
        restrict_to_candidates(society, [0, 1, 2, 3])
    assert str(caught.value) == "invalid society: voter a: lo > hi"


def test_restriction_refuses_a_box_approval_on_the_line():
    society = Society(LINE, (Voter("a", Interval(0, 1)), Voter("b", Box((Interval(0, 2),)))))
    with pytest.raises(ValueError) as caught:
        restrict_to_candidates(society, [0, 1, 2])
    assert str(caught.value) == "invalid society: voter b: expected interval approval"


def test_restriction_shares_one_hull_per_span():
    society = linear_society([(0, 3), (1, 4), (0, 3), (4, 5), (2, 9)])
    election = restrict_to_candidates(society, [1, 3, 7])
    a, b, c, d, e = (v.approval for v in election.voters)
    assert a == Interval(1, 3) and a is b is c
    assert d is None and e == Interval(3, 7)


@pytest.mark.parametrize(
    "source",
    [
        linear_society([(0, 2), (1, 3), None, (7, 9)]),
        linear_society([(0, 2), (1, 3), None, (2, 2)], ids=["a", "b", "a", "b"]),
        Society(LINE, ()),
    ],
    ids=["valid", "duplicate-ids", "no-voters"],
)
def test_election_inherits_its_own_violations(source):
    election = restrict_to_candidates(source, [0, 2, 5])
    assert election.violations == tuple(validate(election)) == source.violations


def test_tour_of_a_valid_source_validates_only_the_source(monkeypatch):
    calls = []
    real_validate = society_mod.validate
    monkeypatch.setattr(society_mod, "validate", lambda s: calls.append(s) or real_validate(s))
    society = linear_society([(0, 3), (1, 4), (0, 3), (4, 5), (2, 9), None])
    election = restrict_to_candidates(society, [1, 3, 7])
    agreement(society)
    for read in READERS:
        read(election)
    assert len(calls) == 1 and calls[0] is society
