import math
import operator
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from agreeable import (
    AgreeParams,
    CapExceededError,
    agreement,
    box_society,
    common_platform,
    five_cycle_boxes,
    good_set_count,
    good_set_lower_bound,
    is_km_agreeable,
    linear_society,
    make_interval,
    restrict_to_candidates,
    to_box_society,
    two_platform_cover,
)
from agreeable.agreeability import platform_masks
from agreeable.society import _order_keys
from agreeable.oracles import brute_box_depth, brute_good_set_count, brute_line_agreement, brute_platform_masks

from strategies import (
    BOX2_30,
    BOX3_30,
    box_societies,
    coords,
    crowded_line_societies,
    farey_neighbours,
    huge_denominator_coords,
    line_societies,
    near_miss_boxes,
    pooled_societies,
)


def test_seven_voter_agreement(seven_voter_society):
    report = agreement(seven_voter_society)
    assert report.agreement_number == 4
    assert report.witnesses == (make_interval(10, 10),)
    assert report.proportion == Fraction(4, 7)


def test_consensus_candidates_agreement(consensus_candidate_society):
    report = agreement(consensus_candidate_society)
    assert report.agreement_number == 6
    assert report.witnesses == (Fraction(6),)
    assert report.per_candidate[Fraction(6)] == 6


def test_disjoint_intervals_agree_once():
    society = linear_society([(0, 1), (2, 3), (4, 5), (6, 7)])
    assert agreement(society).agreement_number == 1


def test_touching_intervals_overlap():
    report = agreement(linear_society([(0, 1), (1, 2)]))
    assert report.agreement_number == 2
    assert report.witnesses == (make_interval(1, 1),)


def test_all_empty_society():
    society = linear_society([None, None])
    report = agreement(society)
    assert report.agreement_number == 0
    assert report.witnesses == ()
    assert brute_line_agreement(society) == report


def test_witness_regions_merge():
    society = linear_society([(0, 1), (0, 1), (5, 6), (5, 6)])
    report = agreement(society)
    assert report.witnesses == (make_interval(0, 1), make_interval(5, 6))


def test_witness_covers_plateau():
    # depth 2 on all of [1, 3], spanning the interior event at nothing
    society = linear_society([(0, 3), (1, 4)])
    report = agreement(society)
    assert report.agreement_number == 2
    assert report.witnesses == (make_interval(1, 3),)


@given(line_societies(max_n=12))
@settings(max_examples=150)
def test_sweep_matches_endpoint_oracle(society):
    assert agreement(society) == brute_line_agreement(society)


@given(crowded_line_societies())
@settings(max_examples=300)
def test_sweep_report_matches_witness_oracle_on_crowded_rationals(society):
    assert agreement(society) == brute_line_agreement(society)


def test_sweep_separates_farey_neighbours_with_huge_denominators():
    # 1/b and 1/(b-1) are Farey neighbours, 1/(b(b-1)) apart; depth 2 on
    # either side of the gap between them and 1 inside it.
    b = 10**40
    left, right = Fraction(1, b), Fraction(1, b - 1)
    society = linear_society([(-1, left), (right, 1), (-1, 1)])
    report = agreement(society)
    assert report.agreement_number == 2
    assert report.witnesses == (make_interval(-1, left), make_interval(right, 1))
    assert report == brute_line_agreement(society)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_order_keys_of_integers_are_scaled_integers():
    assert _order_keys([Fraction(-2), Fraction(0), Fraction(5)]) == [-16, 0, 40]


def test_order_keys_examples():
    values = [
        Fraction(1, 10**40),
        Fraction(1, 10**40 + 1),
        Fraction(-1, 10**40),
        Fraction(-1, 10**40 + 1),
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(-7, 2),
    ]
    keys = _order_keys(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    assert sorted(range(len(keys)), key=lambda i: keys[i]) == order
    assert keys[5] == keys[6]
    assert len(set(keys)) == len(set(values))


@given(farey_neighbours(), st.lists(st.one_of(coords, huge_denominator_coords), max_size=6))
def test_order_keys_preserve_order_and_equality(pair, others):
    values = [*pair, (pair[0] + pair[1]) / 2, *others]
    keys = _order_keys(values)
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            assert _sign(keys[i] - keys[j]) == _sign(x - y)


@given(line_societies(max_n=10))
def test_witnesses_attain_the_maximum(society):
    report = agreement(society)
    for w in report.witnesses:
        lo_depth = sum(
            1 for v in society.voters if v.approval is not None and v.approval.contains(w.lo)
        )
        hi_depth = sum(
            1 for v in society.voters if v.approval is not None and v.approval.contains(w.hi)
        )
        assert lo_depth == hi_depth == report.agreement_number


def test_common_platform_consensus(consensus_candidate_society):
    platform = common_platform(consensus_candidate_society)
    assert platform == make_interval(6, 6)
    for v in consensus_candidate_society.voters:
        assert v.approval.contains(platform.lo)


def test_common_platform_none_when_disjoint():
    assert common_platform(linear_society([(0, 1), (2, 3)])) is None


def test_common_platform_identical_intervals():
    society = linear_society([(Fraction(1, 2), 3)] * 4)
    assert common_platform(society) == make_interval(Fraction(1, 2), 3)


def test_common_platform_requires_nonempty():
    with pytest.raises(ValueError, match="empty approval"):
        common_platform(linear_society([(0, 1), None]))


def test_common_platform_candidates_needs_candidate_inside():
    # intervals all share exactly [5, 5], but no candidate sits there
    society = restrict_to_candidates(linear_society([(0, 5), (5, 9)]), [2, 8])
    assert common_platform(society) is None


@given(line_societies(min_n=1, max_n=9, allow_empty=False))
@settings(max_examples=150)
def test_superagreeable_iff_common_platform(society):
    report = agreement(society)
    platform = common_platform(society)
    assert (platform is not None) == (report.agreement_number == society.n)


def test_two_platform_cover_frozen_example():
    cover = two_platform_cover(linear_society([(0, 1), (0, 1), (2, 3)]))
    assert (cover.x, cover.y) == (Fraction(2), Fraction(1))
    assert (cover.count_x, cover.count_y) == (1, 2)
    assert cover.best_count >= 2


def test_two_platform_cover_superagreeable_counts_everyone():
    society = linear_society([(0, 5), (1, 6), (2, 7)])
    cover = two_platform_cover(society)
    assert cover.count_x == society.n


def test_two_platform_cover_past_the_subset_cap():
    # C(300,3) is past the subset cap, but (2,3) is positive on any line
    # whose spans share a point, so the track greedy answers it.
    cover = two_platform_cover(linear_society([(i, i + 1000) for i in range(300)]))
    assert (cover.x, cover.y, cover.count_x, cover.count_y) == (299, 1000, 300, 300)


def test_two_platform_cover_majority(seven_voter_society):
    cover = two_platform_cover(seven_voter_society)
    assert cover.best_count >= 4
    for v in seven_voter_society.voters:
        assert v.approval.contains(cover.x) or v.approval.contains(cover.y)


@pytest.mark.parametrize(
    "intervals", [[(0, 1)], [(0, 1), (2, 3)], [(2, 3), (0, 1)], [(0, 2), (1, 3)], [(0, 1), (1, 2)]]
)
def test_two_platform_cover_below_three_voters(intervals):
    # (2,3)-agreeability holds vacuously below three voters, and x = max lo,
    # y = min hi still meet every interval.
    society = linear_society(intervals)
    cover = two_platform_cover(society)
    assert (cover.x, cover.y) == (max(lo for lo, _ in intervals), min(hi for _, hi in intervals))
    assert cover.best_count >= -(-society.n // 2)
    for v in society.voters:
        assert v.approval.contains(cover.x) or v.approval.contains(cover.y)


def test_two_platform_cover_rejects_non_agreeable():
    with pytest.raises(ValueError, match="not \\(2,3\\)-agreeable"):
        two_platform_cover(linear_society([(0, 1), (2, 3), (4, 5)]))


def test_box_agreement_five_cycle():
    assert agreement(five_cycle_boxes()).agreement_number == 2


def test_box_witnesses_are_grid_points():
    society = box_society([((0, 2), (0, 2)), ((1, 3), (1, 3))])
    report = agreement(society)
    assert report.agreement_number == 2
    assert (Fraction(1), Fraction(1)) in report.witnesses


def test_box_caps():
    society = box_society([((0, 1), (0, 1))] * 31)
    deep = box_society([tuple((0, 1) for _ in range(4))] * 5)
    for capped in (society, deep):
        for compute in (agreement, platform_masks, good_set_count, lambda s: is_km_agreeable(s, AgreeParams(2, 3))):
            with pytest.raises(CapExceededError, match="box societies are capped"):
                compute(capped)


@given(pooled_societies(kinds=(1, 2, 3)))
@example(BOX2_30)
@example(BOX3_30)
@settings(max_examples=200, deadline=None)
def test_box_depth_matches_brute_force(society):
    assert agreement(society) == brute_box_depth(society)


@given(pooled_societies(kinds=(1, 2, 3)))
@example(BOX2_30)
@example(BOX3_30)
@settings(max_examples=200, deadline=None)
def test_good_set_count_matches_platform_masks(society):
    # Boxes share a point iff their common box's lower corner, a grid point,
    # lies in all of them: the good sets are the subsets inside some mask of
    # the containment grid.
    spectrum = society.spectrum
    if society.n <= spectrum.dimension:
        return
    for size in range(1, spectrum.dimension + 3):
        assert good_set_count(society, size) == brute_good_set_count(society, size), size
    assert good_set_count(society) == good_set_count(society, spectrum.dimension + 1)


@given(st.one_of(pooled_societies(kinds=(1, 2, 3)), near_miss_boxes()))
@example(BOX2_30)
@example(BOX3_30)
@settings(max_examples=200, deadline=None)
def test_neighbourhoods_are_the_unions_of_the_platform_masks(society):
    masks = brute_platform_masks(society)
    expected = [reduce(operator.or_, [m for m in masks if m >> i & 1], 0) for i in range(society.n)]
    assert list(society._near) == expected


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("size", [10, 15, 30])
def test_good_set_count_of_identical_boxes_is_binomial(dimension, size):
    # Every subset is good: the count visits each (later voters, size) pair
    # once, not each of the C(30, size - 1) cliques below it.
    society = box_society([((0, 1),) * dimension] * 30)
    started = time.perf_counter()
    assert good_set_count(society, size) == math.comb(30, size)
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("size", [0, -1])
def test_good_set_count_rejects_sizes_below_one(size):
    society = box_society([((0, 1),)] * 3)
    with pytest.raises(ValueError, match=f"size={size}"):
        good_set_count(society, size)


@given(line_societies(max_n=8))
@settings(max_examples=100)
def test_box1_matches_line(society):
    assert (
        agreement(to_box_society(society)).agreement_number
        == agreement(society).agreement_number
    )


def test_good_set_count_identical_boxes():
    society = box_society([((0, 1),)] * 4)
    assert good_set_count(society) == 6  # C(4, 2)


def test_good_set_count_disjoint():
    society = box_society([((0, 1), (0, 1)), ((5, 6), (5, 6)), ((10, 11), (10, 11))])
    assert good_set_count(society) == 0


def test_good_set_count_requires_boxes(seven_voter_society):
    with pytest.raises(ValueError):
        good_set_count(seven_voter_society)


def test_good_set_count_needs_enough_voters():
    with pytest.raises(ValueError):
        good_set_count(box_society([((0, 1), (0, 1))]))


@given(box_societies(dimension=2, min_n=3, max_n=7, allow_empty=False))
@settings(max_examples=60, deadline=None)
def test_good_set_bound_on_agreeable_boxes(society):
    params = AgreeParams(3, 4)
    if society.n < params.m:
        return
    if not is_km_agreeable(society, params).agreeable:
        return
    g = good_set_count(society)
    assert Fraction(g) >= good_set_lower_bound(society.n, 2, params.k, params.m)


@given(box_societies(dimension=2, min_n=2, max_n=7, allow_empty=False))
@settings(max_examples=80, deadline=None)
def test_pairwise_intersecting_boxes_share_a_point(society):
    # boxes have Helly number 2: per-axis interval arguments lift to products
    boxes = [v.approval for v in society.voters]
    pairwise = all(
        a.intersect(b) is not None
        for i, a in enumerate(boxes)
        for b in boxes[i + 1 :]
    )
    if pairwise:
        assert agreement(society).agreement_number == society.n
        assert is_km_agreeable(society, AgreeParams(2, 2)).agreeable


def test_22_agreeable_box_society_reaches_everyone():
    society = box_society([((0, 4), (0, 4)), ((2, 6), (3, 7)), ((1, 5), (2, 9))])
    assert is_km_agreeable(society, AgreeParams(2, 2)).agreeable
    assert agreement(society).agreement_number == society.n


def test_report_serialization(seven_voter_society):
    obj = agreement(seven_voter_society).to_obj()
    assert obj["agreement_number"] == 4
    assert obj["agreement_proportion"] == "4/7"
    assert obj["witnesses"] == [[10, 10]]
