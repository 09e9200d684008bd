import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from agreeable import (
    AgreeParams,
    BoxSpectrum,
    CandidateSpectrum,
    Society,
    Voter,
    agreement,
    agreement_graph,
    box_society,
    candidate_society,
    clique_number_linear,
    extremal_linear,
    five_cycle_boxes,
    greedy_interval_coloring,
    linear_society,
    make_interval,
    random_society,
    restrict_to_candidates,
    to_box_society,
)
from agreeable.generators import RandomConfig
from agreeable.graphs import Graph, graph_from_edges
from agreeable.oracles import brute_clique, brute_first_fit_coloring, brute_interval_graph

from strategies import box_societies, line_societies, near_miss_boxes, one_d_societies


def test_seven_voter_graph(seven_voter_society):
    graph = agreement_graph(seven_voter_society)
    expected = {
        ("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v3", "v4"),
        ("v4", "v5"), ("v4", "v6"), ("v4", "v7"), ("v5", "v6"),
        ("v5", "v7"), ("v6", "v7"),
    }
    assert set(graph.edges) == expected
    # v4..v7 form a maximal clique matching the maximum agreement region
    clique = ("v4", "v5", "v6", "v7")
    assert all(graph.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
    for outsider in ("v1", "v2", "v3"):
        assert not all(graph.has_edge(outsider, member) for member in clique)


def test_has_edge_ignores_argument_order(seven_voter_society):
    graph = agreement_graph(seven_voter_society)
    assert all(graph.has_edge(v, u) for u, v in graph.edges)
    assert not graph.has_edge("v7", "v1")


def test_disjoint_society_graph_is_edgeless():
    graph = agreement_graph(linear_society([(0, 1), (2, 3), (4, 5)]))
    assert graph.edges == frozenset()


def test_five_cycle_graph():
    graph = agreement_graph(five_cycle_boxes())
    assert set(graph.edges) == {
        ("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v1", "v5")
    }


def test_candidate_graph_uses_minimal_hulls():
    # raw intervals [0,6] and [4,9] intersect, but with candidates {1, 8}
    # they share no candidate: hulls shrink to [1,1] and [8,8], no edge
    from agreeable import Society, CandidateSpectrum, Voter, make_interval
    from fractions import Fraction

    spectrum = CandidateSpectrum((Fraction(1), Fraction(8)))
    society = Society(
        spectrum,
        (Voter("v1", make_interval(0, 6)), Voter("v2", make_interval(4, 9))),
    )
    assert agreement_graph(society).edges == frozenset()

    # with a shared candidate at 5 the edge appears
    society2 = restrict_to_candidates(linear_society([(0, 6), (4, 9)]), [1, 5, 8])
    assert set(agreement_graph(society2).edges) == {("v1", "v2")}


def test_graph_containers():
    graph = graph_from_edges(["a", "b", "c"], [("c", "a")])
    assert graph.edges == frozenset({("a", "c")})
    assert graph.neighbors("a") == frozenset({"c"})
    assert graph.complement().edges == frozenset({("a", "b"), ("b", "c")})
    assert graph.induced(["a", "b"]).edges == frozenset()
    with pytest.raises(ValueError):
        Graph(("a",), frozenset({("a", "a")}))
    obj = json.loads(graph.to_json())
    assert obj == {"vertices": ["a", "b", "c"], "edges": [["a", "c"]]}


def test_greedy_two_triangles():
    society = linear_society([(0, 1)] * 3 + [(5, 6)] * 3)
    assert greedy_interval_coloring(society).num_colors == 3


def test_greedy_nested_intervals():
    society = linear_society([(0, 10), (1, 9), (2, 8)])
    assert greedy_interval_coloring(society).num_colors == 3


def test_greedy_extremal_society():
    society = extremal_linear(21, AgreeParams(4, 15))
    assert greedy_interval_coloring(society).num_colors == 5


def test_greedy_order_regression():
    # First-fit in increasing right-endpoint order would need 4 colors here;
    # the decreasing order stays at the clique number 3.
    society = linear_society(
        [(0, 10), (5, 20), (8, 25), (30, 35), (32, 38), (24, 40)]
    )
    coloring = greedy_interval_coloring(society)
    graph = agreement_graph(society)
    assert coloring.is_proper(graph)
    assert coloring.num_colors == brute_clique(graph) == 3


def test_greedy_tie_break_is_society_order():
    society = linear_society([(0, 2), (1, 2)])
    assert greedy_interval_coloring(society).assignment == {"v1": 1, "v2": 2}


def test_greedy_colors_empty_sets_first():
    society = linear_society([None, (0, 1), (0, 1)])
    coloring = greedy_interval_coloring(society)
    assert coloring.assignment["v1"] == 1
    assert coloring.num_colors == 2


def test_greedy_rejects_wide_boxes():
    with pytest.raises(ValueError):
        greedy_interval_coloring(five_cycle_boxes())
    one_box = box_society([((0, 1),), ((0, 2),)])
    assert greedy_interval_coloring(one_box).num_colors == 2


def test_interval_view_by_spectrum():
    a, b = make_interval(0, 4), make_interval(5, 6)
    line = linear_society([a, None, b])
    # Whole numbers: the order key of x is x << 3.
    assert line._spans == ((0, None, 40), (32, None, 48))
    # Candidate indices: the second voter approves no candidate.
    slate = candidate_society([1, 3, 7], [(0, 4), (5, 6), None])
    assert slate._spans == ((0, None, None), (1, None, None))
    assert to_box_society(line)._spans == line._spans


@pytest.mark.parametrize("dimension", [2, 3])
def test_wide_boxes_have_no_interval_view(dimension):
    # The spans are the first axis's order keys, x << 3 for whole numbers;
    # the other axes keep v1 and v3 apart, so they are no interval view.
    society = box_society([[(0, 1)] + [(5, 6)] * (dimension - 1), None, [(1, 2)] + [(7, 8)] * (dimension - 1)])
    assert society._spans == ((0, None, 8), (8, None, 16))
    assert agreement_graph(society).edges == frozenset()
    message = "no interval representation for boxes with d >= 2"
    no_voter_approves = Society(BoxSpectrum(dimension), (Voter("v1", None),))
    for compute in (greedy_interval_coloring, clique_number_linear):
        for wide in (society, no_voter_approves):
            with pytest.raises(ValueError, match=message):
                compute(wide)


@pytest.mark.parametrize("dimension", [2, 3])
@given(data=st.data())
@settings(max_examples=150)
def test_box_graph_matches_pairwise_oracle(dimension, data):
    society = data.draw(st.one_of(box_societies(dimension=dimension, max_n=12), near_miss_boxes((dimension,))))
    assert agreement_graph(society) == brute_interval_graph(society)


@given(line_societies(max_n=9))
@settings(max_examples=120)
def test_greedy_is_proper_and_optimal(society):
    coloring = greedy_interval_coloring(society)
    graph = agreement_graph(society)
    assert coloring.is_proper(graph)
    if any(v.approval is not None for v in society.voters):
        assert coloring.num_colors == brute_clique(graph)


def test_clique_number_linear(seven_voter_society, consensus_candidate_society):
    assert clique_number_linear(seven_voter_society) == 4
    assert clique_number_linear(consensus_candidate_society) == 6
    assert clique_number_linear(linear_society([(0, 1), (2, 3)])) == 1


def test_clique_number_linear_when_no_voter_approves_a_candidate():
    # Non-empty intervals between the candidates: agreement number 0.
    society = candidate_society([0, 10], [(2, 3), (4, 5), None])
    assert agreement(society).agreement_number == 0
    assert clique_number_linear(society) == 0


@given(line_societies(max_n=9))
@settings(max_examples=80)
def test_clique_number_matches_brute_force(society):
    assert clique_number_linear(society) == agreement(society).agreement_number
    if any(v.approval is not None for v in society.voters):
        assert clique_number_linear(society) == brute_clique(agreement_graph(society))


def _assert_matches_oracles(society):
    assert agreement_graph(society) == brute_interval_graph(society)
    fast = greedy_interval_coloring(society).assignment
    # Same colors, assigned in the same order.
    assert list(fast.items()) == list(brute_first_fit_coloring(society).assignment.items())


@st.composite
def tie_heavy_slates(draw, max_n=12):
    """Elections on at most three candidates from intervals on five points:
    many voters share a span, and more share a right end."""
    slate = sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
    ends = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(sorted)
    intervals = draw(st.lists(st.one_of(st.none(), ends), min_size=1, max_size=max_n))
    society = linear_society([None if iv is None else tuple(iv) for iv in intervals])
    if draw(st.booleans()):
        return restrict_to_candidates(society, slate)
    return Society(CandidateSpectrum(tuple(slate)), society.voters)


@given(st.one_of(one_d_societies(max_n=12), tie_heavy_slates()))
@settings(max_examples=250)
def test_graph_and_coloring_match_pairwise_oracles(society):
    _assert_matches_oracles(society)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_graph_and_coloring_match_pairwise_oracles(seed):
    # Long, heavily overlapping intervals on few coordinates: many ties and
    # colors freed and reused many times over.
    config = RandomConfig(coord_min=0, coord_max=60, min_length=0, max_length=20, empty_percent=10)
    society = random_society("line", 150, seed, config)
    _assert_matches_oracles(society)
    _assert_matches_oracles(restrict_to_candidates(society, range(-5, 90, 7)))
