import itertools
import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from agreeable import (
    AgreeParams,
    CapExceededError,
    RandomConfig,
    agreement,
    box_society,
    is_km_agreeable,
    linear_society,
    pigeonhole_sufficient,
    random_society,
    restrict_to_candidates,
    save_society,
)

from agreeable import agreeability
from agreeable.agreeability import _largest_deficient_size, _subset_search, platform_masks
from agreeable.cli import main
from agreeable.errors import _require_subset_cap, subset_cap
from agreeable.oracles import brute_platform_masks

from strategies import BOX2_30, BOX3_30, LINE_200, line_societies, near_miss_boxes, pooled_societies


def test_params_validation():
    with pytest.raises(ValueError):
        AgreeParams(0, 3)
    with pytest.raises(ValueError):
        AgreeParams(3, 2)
    AgreeParams(1, 1)


def test_seven_voter_agreeability(seven_voter_society):
    assert is_km_agreeable(seven_voter_society, AgreeParams(2, 3)).agreeable

    result = is_km_agreeable(seven_voter_society, AgreeParams(3, 4))
    assert not result.agreeable
    assert result.witness == ("v1", "v2", "v4", "v5")
    sub = seven_voter_society.induced(result.witness)
    assert agreement(sub).agreement_number < 3

    # the quadruple v1, v2, v4, v7 has no three-way platform either
    other = seven_voter_society.induced(("v1", "v2", "v4", "v7"))
    assert agreement(other).agreement_number < 3


def test_restricted_society_agreeability(seven_voter_society):
    restricted = restrict_to_candidates(seven_voter_society, [3, 9])

    result = is_km_agreeable(restricted, AgreeParams(2, 3))
    assert not result.agreeable
    sub = restricted.induced(result.witness)
    assert agreement(sub).agreement_number < 2
    # v2, v4, v7 is another agreeing-pair-free triple; v7 approves nothing
    assert agreement(restricted.induced(("v2", "v4", "v7"))).agreement_number < 2
    assert restricted.voters[6].approval is None

    assert is_km_agreeable(restricted, AgreeParams(2, 4)).agreeable


def test_k1_requires_a_nonempty_set_per_subset():
    # a voter with empty approval can never be among the agreeing voters
    society = linear_society([None, (0, 1), (2, 3)])
    assert not is_km_agreeable(society, AgreeParams(1, 1)).agreeable
    # ...but every 2-subset here contains a voter who approves something
    assert is_km_agreeable(society, AgreeParams(1, 2)).agreeable

    two_empty = linear_society([None, None, (0, 1)])
    result = is_km_agreeable(two_empty, AgreeParams(1, 2))
    assert not result.agreeable
    assert result.witness == ("v1", "v2")


def test_every_society_is_1m_agreeable_without_empties():
    society = linear_society([(0, 1), (5, 6), (10, 11)])
    for m in (1, 2, 3):
        assert is_km_agreeable(society, AgreeParams(1, m)).agreeable


def test_requires_enough_voters():
    with pytest.raises(ValueError, match="voters"):
        is_km_agreeable(linear_society([(0, 1)]), AgreeParams(2, 3))


def test_cap_via_environment(monkeypatch, seven_voter_society):
    # (3,3) is negative (D_3 = 4), so the subset search runs and meets the
    # C(7,3) = 35 gate; a positive line verdict never reaches it.
    monkeypatch.setenv("AGREE_MAX_SUBSETS", "10")
    with pytest.raises(CapExceededError):
        is_km_agreeable(seven_voter_society, AgreeParams(3, 3))
    monkeypatch.setenv("AGREE_MAX_SUBSETS", "100")
    result = is_km_agreeable(seven_voter_society, AgreeParams(3, 3))
    assert (result.agreeable, result.witness) == (False, ("v1", "v2", "v4"))


@pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-1", "2.5"])
def test_malformed_cap_names_the_knob(monkeypatch, capsys, tmp_path, raw):
    # Seven disjoint intervals are not (2,3)-agreeable, so the search reads the cap.
    society = linear_society([(2 * i, 2 * i + 1) for i in range(7)])
    monkeypatch.setenv("AGREE_MAX_SUBSETS", raw)
    message = f"AGREE_MAX_SUBSETS must be a positive integer, got {raw!r}"
    with pytest.raises(ValueError) as excinfo:
        is_km_agreeable(society, AgreeParams(2, 3))
    assert str(excinfo.value) == message
    path = str(tmp_path / "disjoint.json")
    save_society(society, path)
    assert main(["check", path, "--k", "2", "--m", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("raw", ["2_000_000", " 7 ", "35"])
def test_cap_reads_what_int_reads(monkeypatch, raw):
    society = linear_society([(2 * i, 2 * i + 1) for i in range(7)])
    monkeypatch.setenv("AGREE_MAX_SUBSETS", raw)
    assert subset_cap() == int(raw)
    if int(raw) >= 35:  # C(7,3) = 35
        assert not is_km_agreeable(society, AgreeParams(2, 3)).agreeable
    else:
        with pytest.raises(CapExceededError, match="C\\(7,3\\) exceeds the enumeration cap 7"):
            is_km_agreeable(society, AgreeParams(2, 3))


@given(pooled_societies(max_n=11, kinds=("line", "candidates", 1)))
@settings(max_examples=150, deadline=None)
def test_track_greedy_verdict_equals_the_subset_search(society):
    for k in range(1, min(5, society.n) + 1):
        size = _largest_deficient_size(society, k)
        for m in range(k, society.n + 1):
            params = AgreeParams(k, m)
            searched = _subset_search(society, params)
            assert (size < m) == searched.agreeable
            assert is_km_agreeable(society, params) == searched


def test_positive_line_verdict_needs_no_subset_search(monkeypatch):
    # The 24-voter line of `generate random --kind line --n 24 --seed 2
    # --coord-max 72 --max-length 12`, whose (4,21) search takes seconds.
    society = random_society("line", 24, 2, RandomConfig(coord_min=0, coord_max=72, min_length=0, max_length=12))

    def no_search(*args):
        raise RuntimeError("the subset search ran")

    monkeypatch.setattr(agreeability, "_subset_search", no_search)
    assert _largest_deficient_size(society, 4) == 20
    assert is_km_agreeable(society, AgreeParams(4, 21)).agreeable
    with pytest.raises(RuntimeError, match="the subset search ran"):
        is_km_agreeable(society, AgreeParams(4, 20))


def test_positive_one_box_verdict_needs_no_subset_search(monkeypatch):
    # The 28 voters of `generate random --kind box --d 1 --n 28 --seed 1
    # --coord-max 84 --max-length 12`: a 1-box society is one-dimensional.
    config = RandomConfig(coord_min=0, coord_max=84, min_length=0, max_length=12, dimension=1)
    society = random_society("box", 28, 1, config)

    def no_search(*args):
        raise RuntimeError("the subset search ran")

    monkeypatch.setattr(agreeability, "_subset_search", no_search)
    assert _largest_deficient_size(society, 4) < 24
    assert is_km_agreeable(society, AgreeParams(4, 24)).agreeable


def _six_thousand_voter_line():
    # `generate random --kind line --n 6000 --seed 3 --coord-max 18000
    # --max-length 12`, the line of the CI's large positive check.
    return random_society("line", 6000, 3, RandomConfig(coord_min=0, coord_max=18000, min_length=0, max_length=12))


def test_positive_verdicts_past_the_subset_cap_need_no_search(monkeypatch):
    line = _six_thousand_voter_line()
    slate = restrict_to_candidates(line, list(range(0, 18001, 2)))

    def no_search(*args):
        raise RuntimeError("the subset search ran")

    monkeypatch.setattr(agreeability, "_subset_search", no_search)
    assert (_largest_deficient_size(line, 3), _largest_deficient_size(slate, 3)) == (3720, 3902)
    for society in (line, slate):
        assert is_km_agreeable(society, AgreeParams(3, 4000)).agreeable


def test_subset_cap_comes_before_the_masks(monkeypatch):
    # (3,3000) is negative on the line (D_3 = 3 720), so the search runs;
    # C(6000,3000) refuses it before any platform mask is built.
    monkeypatch.delenv("AGREE_MAX_SUBSETS", raising=False)

    def no_masks(*args):
        raise RuntimeError("the platform masks were built")

    monkeypatch.setattr(agreeability, "platform_masks", no_masks)
    with pytest.raises(CapExceededError, match=r"^C\(6000,3000\) exceeds the enumeration cap 2000000$"):
        is_km_agreeable(_six_thousand_voter_line(), AgreeParams(3, 3000))


def test_subset_cap_message_is_short_at_any_size(monkeypatch):
    # C(20000,10000) has over 6 000 digits, past Python's int-to-str limit.
    monkeypatch.delenv("AGREE_MAX_SUBSETS", raising=False)
    with pytest.raises(CapExceededError) as caught:
        _require_subset_cap(20000, 10000)
    assert str(caught.value) == "C(20000,10000) exceeds the enumeration cap 2000000"


def test_pigeonhole_examples():
    assert pigeonhole_sufficient(14, 5, AgreeParams(2, 3)) is True
    assert pigeonhole_sufficient(14, 4, AgreeParams(2, 3)) is False
    for k in (1, 2, 5):
        for m in range(k, 7):
            assert pigeonhole_sufficient(10, 10, AgreeParams(k, m)) is True


def test_pigeonhole_soundness():
    # voters approving >= a consecutive candidates out of c; whenever the
    # counting condition holds, the candidate society must be agreeable
    rng = random.Random(7)
    checked = 0
    for _ in range(120):
        c = rng.randint(3, 9)
        a = rng.randint(1, c)
        k = rng.randint(2, 4)
        m = rng.randint(k, 5)
        if not pigeonhole_sufficient(c, a, AgreeParams(k, m)):
            continue
        n = rng.randint(m, 9)
        intervals = []
        for _ in range(n):
            length = rng.randint(a, c)
            start = rng.randint(0, c - length)
            intervals.append((start, start + length - 1))
        society = restrict_to_candidates(linear_society(intervals), list(range(c)))
        assert is_km_agreeable(society, AgreeParams(k, m)).agreeable
        checked += 1
    assert checked >= 20


@given(line_societies(min_n=3, max_n=8), st.integers(2, 4), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_downward_monotonicity(society, k, extra):
    m = min(k + extra, society.n)
    if m < k:
        return
    params = AgreeParams(k, m)
    if not is_km_agreeable(society, params).agreeable:
        return
    # weaker demands stay satisfied
    assert is_km_agreeable(society, AgreeParams(k - 1, m)).agreeable
    if society.n >= m + 1:
        assert is_km_agreeable(society, AgreeParams(k, m + 1)).agreeable


@given(line_societies(min_n=3, max_n=9), st.integers(2, 4), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_witness_validity(society, k, extra):
    m = min(k + extra, society.n)
    if m < k:
        return
    result = is_km_agreeable(society, AgreeParams(k, m))
    if result.agreeable:
        return
    assert result.witness is not None and len(result.witness) == m
    sub = society.induced(result.witness)
    assert agreement(sub).agreement_number < k


def test_voters_approving_no_candidate_act_like_empty_sets():
    # non-empty intervals that contain no candidate can never agree
    from fractions import Fraction

    from agreeable import CandidateSpectrum, Society, Voter, make_interval

    spectrum = CandidateSpectrum((Fraction(5),))
    society = Society(
        spectrum,
        (
            Voter("v1", make_interval(0, 1)),
            Voter("v2", make_interval(0, 1)),
            Voter("v3", make_interval(5, 5)),
        ),
    )
    result = is_km_agreeable(society, AgreeParams(1, 2))
    assert not result.agreeable
    assert result.witness == ("v1", "v2")
    assert not is_km_agreeable(society, AgreeParams(2, 3)).agreeable


def test_witness_is_lexicographically_first():
    # v1 and v2 disjoint, v3 overlaps both: first failing pair is (v1, v2)
    society = linear_society([(0, 1), (5, 6), (1, 5), (10, 11)])
    result = is_km_agreeable(society, AgreeParams(2, 2))
    assert result.witness == ("v1", "v2")


def test_agreeability_matches_subset_enumeration_all_kinds():
    # cross-validate the subset search against literal enumeration of every
    # m-subset's agreement number, across all spectrum kinds
    import itertools

    rng = random.Random(321)
    for trial in range(60):
        kind = ("line", "candidates", "box")[trial % 3]
        config = RandomConfig(
            coord_min=0,
            coord_max=rng.choice((4, 8)),
            max_length=rng.choice((3, 6)),
            empty_percent=20 if trial % 2 else 0,
            num_candidates=3,
            dimension=2,
        )
        n = rng.randint(3, 7)
        society = random_society(kind, n, 9000 + trial, config)
        k = rng.randint(1, 3)
        m = rng.randint(max(k, 2), n)
        params = AgreeParams(k, m)
        expected = all(
            agreement(society.induced(ids)).agreement_number >= params.k
            for ids in itertools.combinations(society.voter_ids(), params.m)
        )
        result = is_km_agreeable(society, params)
        assert result.agreeable == expected, (kind, n, k, m, trial)
        if not result.agreeable:
            assert agreement(society.induced(result.witness)).agreement_number < k


@given(st.one_of(pooled_societies(), near_miss_boxes()))
@example(LINE_200)
@example(BOX2_30)
@example(BOX3_30)
@settings(max_examples=300, deadline=None)
def test_platform_masks_match_brute_force(society):
    assert platform_masks(society) == brute_platform_masks(society)


def test_one_box_masks_are_the_line_masks_past_the_box_voter_cap():
    intervals = [(2 * i, 2 * i + 1) for i in range(31)]
    masks = platform_masks(box_society([(iv,) for iv in intervals]))
    assert masks == platform_masks(linear_society(intervals)) == [1 << i for i in range(31)]


def test_box_masks_drop_a_clique_inside_another():
    # The first-axis cliques are {v1, v3} and {v2, v3}; on the second axis v2
    # and v3 are apart, which splits the latter into {v2} and {v3}, and {v3}
    # lies inside {v1, v3}: v1, outside it, meets its box.  In the second
    # society v1 meets v3 at the corner (5, 5) alone, and v4 approves nothing.
    for boxes in (
        [((4, 5), (5, 6)), ((6, 8), (3, 4)), ((5, 7), (5, 8))],
        [((4, 5), (4, 5)), ((6, 8), (3, 4)), ((5, 7), (5, 8)), None],
    ):
        society = box_society(boxes)
        assert platform_masks(society) == [0b101, 0b010] == brute_platform_masks(society)


@given(pooled_societies(), st.data())
@settings(max_examples=200, deadline=None)
def test_witness_is_first_deficient_subset_in_enumeration_order(society, data):
    # A subset is deficient iff every brute-force platform mask meets it in
    # fewer than k voters; the platform set is exhaustive for every subset.
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, society.n))
    if m < k:
        return
    masks = brute_platform_masks(society)
    deficient = (
        combo
        for combo in itertools.combinations(range(society.n), m)
        if all((mask & sum(1 << i for i in combo)).bit_count() < k for mask in masks)
    )
    first = next(deficient, None)
    result = is_km_agreeable(society, AgreeParams(k, m))
    assert result.agreeable == (first is None)
    if first is not None:
        assert result.witness == tuple(society.voters[i].id for i in first)
