import itertools

import pytest
from hypothesis import given, settings

from agreeable import (
    AgreeParams,
    CapExceededError,
    agreement,
    agreement_graph,
    candidate_society,
    extremal_linear,
    is_km_agreeable,
    linear_society,
    make_interval,
)
from agreeable.generators import random_graph
from agreeable.graphs import Graph, graph_from_edges
from agreeable.oracles import (
    brute_chromatic,
    brute_clique,
    brute_line_agreement,
    brute_min_vertex_cover,
    check_cover_lemma,
    every_m_subset_has_k_clique,
    induced_subgraph_tables,
    is_perfect_by_enumeration,
)

from strategies import graphs, line_societies


def cycle(n):
    vs = tuple(f"v{i}" for i in range(n))
    return graph_from_edges(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def complete(n):
    vs = tuple(f"v{i}" for i in range(n))
    return graph_from_edges(vs, itertools.combinations(vs, 2))


def edgeless(n):
    return Graph(tuple(f"v{i}" for i in range(n)), frozenset())


def test_brute_clique_examples():
    assert brute_clique(cycle(5)) == 2
    assert brute_clique(complete(6)) == 6
    assert brute_clique(edgeless(4)) == 1
    society = extremal_linear(21, AgreeParams(4, 15))
    assert brute_clique(agreement_graph(society)) == 5


def test_brute_chromatic_examples():
    assert brute_chromatic(cycle(5)) == 3
    assert brute_chromatic(edgeless(7)) == 1
    assert brute_chromatic(complete(4)) == 4
    assert brute_chromatic(cycle(6)) == 2


def test_oracle_caps(monkeypatch):
    with pytest.raises(CapExceededError):
        brute_clique(edgeless(25))
    with pytest.raises(CapExceededError):
        brute_chromatic(edgeless(14))
    with pytest.raises(CapExceededError):
        brute_min_vertex_cover(edgeless(19))
    with pytest.raises(CapExceededError):
        check_cover_lemma(edgeless(15))
    monkeypatch.setenv("AGREE_MAX_SUBSETS", "10")
    with pytest.raises(CapExceededError):
        every_m_subset_has_k_clique(complete(12), AgreeParams(2, 6))


def test_subset_caps_share_one_message(monkeypatch, seven_voter_society):
    message = r"^C\(7,3\) exceeds the enumeration cap 34$"
    monkeypatch.setenv("AGREE_MAX_SUBSETS", "34")
    with pytest.raises(CapExceededError, match=message):
        every_m_subset_has_k_clique(agreement_graph(seven_voter_society), AgreeParams(2, 3))
    # (3,3) is negative, so the subset search runs and meets the same gate.
    with pytest.raises(CapExceededError, match=message):
        is_km_agreeable(seven_voter_society, AgreeParams(3, 3))


@given(graphs(max_n=8))
@settings(max_examples=80)
def test_omega_at_most_chi(graph):
    assert brute_clique(graph) <= brute_chromatic(graph)


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_tables_match_single_shot_oracles(graph):
    omega, chi = induced_subgraph_tables(graph)
    full = (1 << graph.n) - 1
    assert omega[full] == brute_clique(graph)
    assert chi[full] == brute_chromatic(graph)


@given(line_societies(max_n=8))
@settings(max_examples=60)
def test_interval_graphs_have_chi_equal_omega(society):
    graph = agreement_graph(society)
    assert brute_chromatic(graph) == brute_clique(graph)
    assert is_perfect_by_enumeration(graph)


def test_five_cycle_is_not_perfect():
    assert not is_perfect_by_enumeration(cycle(5))


def test_min_vertex_cover_examples():
    assert brute_min_vertex_cover(edgeless(5)).size == 0
    assert brute_min_vertex_cover(complete(4)).size == 3
    cert = brute_min_vertex_cover(cycle(5))
    assert cert.size == 3
    covered = set(cert.cover)
    graph = cycle(5)
    assert all(u in covered or v in covered for u, v in graph.edges)
    # The path a-b-d-c: {a, d} comes first in combinations order, {b, c}
    # first in colex order.
    path = graph_from_edges(("a", "b", "c", "d"), [("a", "b"), ("b", "d"), ("c", "d")])
    assert brute_min_vertex_cover(path).cover == ("a", "d")


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_cover_clique_complement_duality(graph):
    assert graph.n - brute_clique(graph) == brute_min_vertex_cover(graph.complement()).size


@given(graphs(max_n=8))
@settings(max_examples=40)
def test_cover_minimality(graph):
    cert = brute_min_vertex_cover(graph)
    if cert.size == 0:
        return
    edges = list(graph.edges)
    for combo in itertools.combinations(graph.vertices, cert.size - 1):
        chosen = set(combo)
        assert not all(u in chosen or v in chosen for u, v in edges)


def test_cover_lemma_perfect_matching():
    vs = tuple(f"v{i}" for i in range(8))
    matching = graph_from_edges(vs, [(vs[2 * i], vs[2 * i + 1]) for i in range(4)])
    report = check_cover_lemma(matching)
    assert report.cover_size == 4
    assert report.hypothesis_holds
    assert report.conclusion_holds  # |V| = 2z exactly


def test_cover_lemma_triangle():
    report = check_cover_lemma(complete(3))
    assert report.cover_size == 2
    assert report.hypothesis_holds
    assert report.conclusion_holds


def test_cover_lemma_edgeless_gate():
    report = check_cover_lemma(edgeless(3))
    assert report.cover_size == 0
    assert not report.hypothesis_holds


@given(graphs(max_n=9))
@settings(max_examples=80)
def test_cover_lemma_never_fails(graph):
    report = check_cover_lemma(graph)
    assert not (report.hypothesis_holds and not report.conclusion_holds)


def test_every_m_subset_examples():
    two_k5 = graph_from_edges(
        tuple(f"a{i}" for i in range(5)) + tuple(f"b{i}" for i in range(5)),
        list(itertools.combinations([f"a{i}" for i in range(5)], 2))
        + list(itertools.combinations([f"b{i}" for i in range(5)], 2)),
    )
    assert every_m_subset_has_k_clique(two_k5, AgreeParams(2, 3))
    assert not every_m_subset_has_k_clique(cycle(5), AgreeParams(2, 2))
    with pytest.raises(ValueError):
        every_m_subset_has_k_clique(cycle(3), AgreeParams(2, 4))


def test_hypothesis_filtered_graphs_satisfy_theorems():
    from fractions import Fraction

    from agreeable.bounds import division

    pairs = [AgreeParams(2, 3), AgreeParams(3, 4), AgreeParams(3, 3), AgreeParams(4, 5)]
    found = 0
    for seed in range(150):
        graph = random_graph(3 + seed % 7, 80, seed)
        for params in pairs:
            if graph.n < params.m:
                continue
            if not every_m_subset_has_k_clique(graph, params):
                continue
            found += 1
            chi = brute_chromatic(graph)
            div = division(params)
            assert Fraction(chi) >= Fraction(graph.n - div.rho, div.q)
            if params.m <= 2 * params.k - 2:
                assert brute_clique(graph) >= graph.n - params.m + params.k
    assert found >= 60


@given(line_societies(max_n=10))
@settings(max_examples=60)
def test_brute_agreement_matches_sweep(society):
    assert brute_line_agreement(society) == agreement(society)


def test_brute_line_witnesses_examples():
    # Touching intervals meet in one point; a plateau spans an inner event;
    # separate optima stay separate; a point interval is its own witness.
    def oracle(intervals):
        report = brute_line_agreement(linear_society(intervals))
        return report.agreement_number, report.witnesses

    assert oracle([(0, 1), (1, 2)]) == (2, (make_interval(1, 1),))
    assert oracle([(0, 3), (1, 4), (2, 2)]) == (3, (make_interval(2, 2),))
    assert oracle([(0, 3), (1, 4)]) == (2, (make_interval(1, 3),))
    assert oracle([(0, 1), (0, 1), (5, 6), (5, 6)]) == (2, (make_interval(0, 1), make_interval(5, 6)))
    assert oracle([(-3, -3), None]) == (1, (make_interval(-3, -3),))
    assert oracle([None, None]) == (0, ())


def test_brute_line_witnesses_requires_line_spectrum():
    with pytest.raises(ValueError, match="applies to line societies"):
        brute_line_agreement(candidate_society([1, 2], [(0, 3)]))


# Differential tests of the bitmask graph oracles against set-based
# references written here, at the sizes ``verify`` draws.

def reference_cover(graph):
    """The first vertex cover in ascending size, ``combinations`` order."""
    for size in range(graph.n + 1):
        for combo in itertools.combinations(graph.vertices, size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in graph.edges):
                return combo


def reference_cover_lemma(graph):
    z = len(reference_cover(graph))
    hypothesis = all(
        len(reference_cover(graph.induced([u for u in graph.vertices if u != v]))) <= z - 1
        for v in graph.vertices
    )
    return hypothesis, graph.n <= 2 * z, z


def reference_every_m_subset(graph, k, m):
    return all(
        any(
            all(graph.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
            for clique in itertools.combinations(subset, k)
        )
        for subset in itertools.combinations(graph.vertices, m)
    )


def assert_every_m_subset_matches(graph):
    for m in range(1, graph.n + 1):
        for k in range(1, m + 1):
            expected = reference_every_m_subset(graph, k, m)
            assert every_m_subset_has_k_clique(graph, AgreeParams(k, m)) == expected, (k, m)


EXTREMES = [make(n) for n in (0, 1, 2, 5, 12) for make in (edgeless, complete)]


@pytest.mark.parametrize("graph", [g for g in EXTREMES if g.n <= 10] + [cycle(5), cycle(7)])
def test_chromatic_extremes_match_table(graph):
    assert brute_chromatic(graph) == induced_subgraph_tables(graph)[1][-1]


@given(graphs(min_n=0, max_n=10))
@settings(max_examples=60, deadline=None)
def test_chromatic_matches_subset_table(graph):
    assert brute_chromatic(graph) == induced_subgraph_tables(graph)[1][-1]


@pytest.mark.parametrize("graph", EXTREMES + [cycle(5), cycle(12)])
def test_cover_oracles_match_references_on_extremes(graph):
    cert = brute_min_vertex_cover(graph)
    assert cert.cover == reference_cover(graph) and cert.size == len(cert.cover)
    report = check_cover_lemma(graph)
    assert (report.hypothesis_holds, report.conclusion_holds, report.cover_size) == reference_cover_lemma(graph)


@given(graphs(min_n=0, max_n=12))
@settings(max_examples=60, deadline=None)
def test_min_cover_certificate_matches_reference(graph):
    cert = brute_min_vertex_cover(graph)
    assert cert.cover == reference_cover(graph)
    assert cert.size == len(cert.cover)


@given(graphs(min_n=0, max_n=12))
@settings(max_examples=40, deadline=None)
def test_cover_lemma_matches_reference(graph):
    report = check_cover_lemma(graph)
    assert (report.hypothesis_holds, report.conclusion_holds, report.cover_size) == reference_cover_lemma(graph)


@pytest.mark.parametrize("graph", EXTREMES + [cycle(5)])
def test_every_m_subset_matches_reference_on_extremes(graph):
    assert_every_m_subset_matches(graph)


@given(graphs(min_n=0, max_n=12))
@settings(max_examples=40, deadline=None)
def test_every_m_subset_matches_reference(graph):
    assert_every_m_subset_matches(graph)
