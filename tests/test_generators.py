import random

import pytest

from agreeable import (
    AgreeParams,
    RandomConfig,
    agreement,
    clique_bound,
    clique_plus_isolated,
    disjoint_cliques,
    dumps_society,
    extremal_linear,
    five_cycle_boxes,
    is_km_agreeable,
    random_graph,
    random_society,
    validate,
)
from agreeable.generators import _below
from agreeable.oracles import every_m_subset_has_k_clique
from agreeable.graphs import agreement_graph


def test_extremal_is_tight_spot_checks():
    for k, m, n in [(4, 15, 21), (2, 4, 7), (2, 3, 5), (3, 7, 12), (5, 5, 9)]:
        params = AgreeParams(k, m)
        society = extremal_linear(n, params)
        assert validate(society) == []
        assert agreement(society).agreement_number == clique_bound(n, params)
        assert is_km_agreeable(society, params).agreeable


def test_extremal_identical_when_q_is_one():
    society = extremal_linear(5, AgreeParams(5, 5))  # q=1, rho=0
    assert agreement(society).agreement_number == 5


def test_extremal_needs_enough_voters():
    with pytest.raises(ValueError):
        extremal_linear(10, AgreeParams(4, 15))


def test_clique_plus_isolated():
    society = clique_plus_isolated(10, AgreeParams(3, 4))
    assert validate(society) == []
    assert agreement(society).agreement_number == 9
    assert clique_plus_isolated(6, AgreeParams(2, 2)).n == 6
    assert agreement(clique_plus_isolated(6, AgreeParams(2, 2))).agreement_number == 6
    assert agreement(clique_plus_isolated(4, AgreeParams(4, 4))).agreement_number == 4
    with pytest.raises(ValueError):
        clique_plus_isolated(10, AgreeParams(2, 3))  # m > 2k-2


def test_disjoint_cliques():
    society = disjoint_cliques(10, AgreeParams(2, 3))
    assert validate(society) == []
    a = agreement(society).agreement_number
    assert a == 5
    assert a < 10 - 3 + 2  # the small-m conclusion genuinely fails here
    assert every_m_subset_has_k_clique(agreement_graph(society), AgreeParams(2, 3))

    boundary = disjoint_cliques(4, AgreeParams(2, 3))  # n = 2(m-k+1)
    assert is_km_agreeable(boundary, AgreeParams(2, 3)).agreeable

    with pytest.raises(ValueError):
        disjoint_cliques(6, AgreeParams(2, 2))  # m < 2k-1
    with pytest.raises(ValueError):
        disjoint_cliques(3, AgreeParams(2, 3))  # n too small


def test_five_cycle_boxes_validates():
    society = five_cycle_boxes()
    assert validate(society) == []
    assert society.spectrum.dimension == 2
    assert society.n == 5


def test_random_society_deterministic():
    config = RandomConfig(empty_percent=20)
    a = random_society("line", 12, 42, config)
    b = random_society("line", 12, 42, config)
    assert dumps_society(a) == dumps_society(b)
    c = random_society("line", 12, 43, config)
    assert dumps_society(a) != dumps_society(c)


def test_random_society_validates_every_kind():
    for kind in ("line", "candidates", "box"):
        for seed in range(10):
            society = random_society(kind, 6, seed, RandomConfig(empty_percent=25))
            assert validate(society) == []


def test_random_society_rejects_bad_input():
    with pytest.raises(ValueError):
        random_society("line", 0, 1)
    with pytest.raises(ValueError):
        random_society("ring", 3, 1)
    with pytest.raises(ValueError):
        random_society("candidates", 3, 1, RandomConfig(coord_min=0, coord_max=2, num_candidates=6))
    with pytest.raises(ValueError):
        RandomConfig(coord_min=5, coord_max=1)


def test_random_box_dimension():
    society = random_society("box", 4, 9, RandomConfig(dimension=3))
    assert society.spectrum.dimension == 3
    assert all(v.approval is None or v.approval.dimension == 3 for v in society.voters)


def test_random_graph_deterministic():
    g1 = random_graph(8, 50, 5)
    g2 = random_graph(8, 50, 5)
    assert g1 == g2
    assert random_graph(8, 0, 5).edges == frozenset()
    full = random_graph(5, 100, 5)
    assert len(full.edges) == 10


@pytest.mark.parametrize("width", sorted({1, 2, 3} | {2**k + d for k in range(1, 21) for d in (-1, 0, 1)}))
def test_below_draws_what_randrange_and_randint_draw(width):
    ours, theirs = random.Random(width), random.Random(width)
    for _ in range(10):
        assert _below(ours.getrandbits, width) == theirs.randrange(width)
        assert -3 + _below(ours.getrandbits, width) == theirs.randint(-3, width - 4)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("field", ["coord_min", "coord_max", "min_length", "max_length"])
def test_random_society_refuses_a_range_that_is_not_int(field):
    config = RandomConfig(**{field: float(getattr(RandomConfig(), field))})
    with pytest.raises(TypeError):
        random_society("line", 3, 1, config)
