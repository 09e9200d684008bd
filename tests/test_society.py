import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from agreeable import (
    Box,
    BoxSpectrum,
    CandidateSpectrum,
    Interval,
    LINE,
    LineSpectrum,
    Society,
    SocietyFormatError,
    Voter,
    agreement,
    box_society,
    dumps_society,
    linear_society,
    loads_society,
    make_box,
    make_interval,
    restrict_to_candidates,
    save_society,
    load_society,
    to_box_society,
    validate,
)
from agreeable.society import approved_candidates, as_coord, coord_str, require_valid, society_to_obj

from strategies import line_societies, box_societies, pooled_societies, slates


def test_validate_accepts_well_formed(seven_voter_society):
    assert validate(seven_voter_society) == []


def test_validate_reports_reversed_interval():
    society = linear_society([(3, 1)])
    assert validate(society) == ["voter v1: lo > hi"]


def test_validate_reports_reversed_box_side():
    society = box_society([((0, 1), (2, 1)), ((0, 1), (0, 1))])
    assert validate(society) == ["voter v1: lo > hi on axis 1"]


def test_validate_reports_dimension_mismatch():
    voters = (
        Voter("v1", make_box((0, 1), (0, 1))),
        Voter("v2", make_box((0, 1), (0, 1), (0, 1))),
    )
    society = Society(BoxSpectrum(2), voters)
    assert validate(society) == ["voter v2: dimension mismatch"]


def test_validate_reports_duplicate_ids_and_shape_mismatch():
    society = Society(
        LINE,
        (Voter("v1", make_interval(0, 1)), Voter("v1", make_box((0, 1)))),
    )
    problems = validate(society)
    assert any("duplicate id" in p for p in problems)
    assert any("expected interval" in p for p in problems)


def _validate_by_set(society: Society) -> list[str]:
    """``validate`` as it was written before repeated ids were found by
    sorting: every id goes into one set.  The reference for the test below."""
    violations: list[str] = []
    spec = society.spectrum
    if isinstance(spec, CandidateSpectrum):
        cs = spec.candidates
        if not cs:
            violations.append("spectrum: candidate list is empty")
        if any(cs[i] >= cs[i + 1] for i in range(len(cs) - 1)):
            violations.append("spectrum: candidates not strictly increasing")
    elif isinstance(spec, BoxSpectrum):
        if spec.dimension < 1:
            violations.append("spectrum: box dimension must be >= 1")
    if society.n < 1:
        violations.append("society has no voters")
    seen = set()
    for v in society.voters:
        if v.id in seen:
            violations.append(f"voter {v.id}: duplicate id")
        seen.add(v.id)
        a = v.approval
        if a is None:
            continue
        if isinstance(spec, (LineSpectrum, CandidateSpectrum)):
            if not isinstance(a, Interval):
                violations.append(f"voter {v.id}: expected interval approval")
            elif a.lo > a.hi:
                violations.append(f"voter {v.id}: lo > hi")
        else:
            if not isinstance(a, Box):
                violations.append(f"voter {v.id}: expected box approval")
            elif a.dimension != spec.dimension:
                violations.append(f"voter {v.id}: dimension mismatch")
            else:
                for axis, side in enumerate(a.sides):
                    if side.lo > side.hi:
                        violations.append(f"voter {v.id}: lo > hi on axis {axis}")
    return violations


# Strings that repeat, and ids that are not strings: 1 == True == 1.0,
# 0 == False, and tuples, which do not sort against strings or each other.
REPEATED_IDS = st.sampled_from(("a", "a", "b", "ab", "", "1", 1, True, 1.0, 0, False, None, ("a", 1), (1,), (True,)))


@st.composite
def societies_with_repeated_ids(draw):
    """Line, slate and box societies whose ids come from a small pool, some
    approvals reversed (lo > hi) or of the other shape, so duplicate-id
    findings interleave with the others."""
    society = draw(st.one_of(line_societies(), box_societies(), pooled_societies()))
    voters = []
    for v in society.voters:
        a = v.approval
        change = draw(st.sampled_from(("keep", "keep", "reverse", "reshape")))
        if a is not None and change == "reverse":
            side = a if isinstance(a, Interval) else a.sides[0]
            side = Interval(side.hi, side.lo)
            a = side if isinstance(a, Interval) else Box((side, *a.sides[1:]))
        elif a is not None and change == "reshape":
            a = Box((a,)) if isinstance(a, Interval) else a.sides[0]
        voters.append(Voter(draw(REPEATED_IDS), a))
    return Society(society.spectrum, tuple(voters))


@given(societies_with_repeated_ids())
@example(linear_society([(0, 1), (1, 2), (2, 3), (3, 4)], ids=[1, True, "1", 1.0]))
def test_validate_findings_equal_the_set_loop(society):
    assert validate(society) == _validate_by_set(society)


def test_validate_reports_unsorted_candidates():
    spectrum = CandidateSpectrum((Fraction(2), Fraction(1)))
    society = Society(spectrum, (Voter("v1", make_interval(0, 3)),))
    assert validate(society) == ["spectrum: candidates not strictly increasing"]


def test_validate_reports_empty_society():
    assert "society has no voters" in validate(Society(LINE, ()))


def test_as_coord_rejects_floats():
    with pytest.raises(TypeError):
        as_coord(0.5)
    assert as_coord("3/4") == Fraction(3, 4)
    assert as_coord("-1.25") == Fraction(-5, 4)


def test_coord_str():
    assert coord_str(Fraction(4, 2)) == "2"
    assert coord_str(Fraction(-3, 7)) == "-3/7"


def test_interval_touching_intersects():
    a = make_interval(0, 1)
    b = make_interval(1, 2)
    assert a.intersect(b) == make_interval(1, 1)
    assert a.intersect(make_interval(2, 3)) is None


def test_restrict_keeps_empty_voters():
    society = linear_society([(0, 10), (20, 21), None])
    restricted = restrict_to_candidates(society, [1, 5, 30])
    approvals = [v.approval for v in restricted.voters]
    assert approvals[0] == make_interval(1, 5)
    assert approvals[1] is None  # no candidate inside [20, 21]
    assert approvals[2] is None
    assert restricted.spectrum.candidates == (Fraction(1), Fraction(5), Fraction(30))


def test_restrict_single_voter_membership():
    society = linear_society([(0, 10)])
    restricted = restrict_to_candidates(society, [1, 5, 20])
    assert approved_candidates(restricted.voters[0].approval, restricted.spectrum) == (
        Fraction(1),
        Fraction(5),
    )


def test_restrict_all_outside_every_interval():
    society = linear_society([(0, 1), (3, 4)])
    restricted = restrict_to_candidates(society, [10, 11])
    assert all(v.approval is None for v in restricted.voters)


def test_restrict_requires_line_spectrum(consensus_candidate_society):
    with pytest.raises(ValueError):
        restrict_to_candidates(consensus_candidate_society, [1])


@given(line_societies(max_n=6), st.sets(st.integers(-5, 12), min_size=1, max_size=6))
def test_restrict_monotone_in_slate(society, slate):
    bigger = sorted(slate | {0, 7})
    small = restrict_to_candidates(society, sorted(slate))
    large = restrict_to_candidates(society, bigger)
    for vs, vl in zip(small.voters, large.voters):
        approved_small = set(approved_candidates(vs.approval, small.spectrum))
        approved_large = set(approved_candidates(vl.approval, large.spectrum))
        assert approved_small <= approved_large


@given(line_societies(max_n=10), slates)
def test_restriction_and_tally_match_linear_scan(society, slate):
    restricted = restrict_to_candidates(society, slate)
    spectrum = restricted.spectrum
    assert spectrum.candidates == tuple(slate)
    for v, r in zip(society.voters, restricted.voters):
        inside = tuple(c for c in slate if v.approval is not None and v.approval.lo <= c <= v.approval.hi)
        assert approved_candidates(v.approval, spectrum) == inside
        assert r.approval == (Interval(inside[0], inside[-1]) if inside else None)
    expected = [
        (c, sum(1 for v in society.voters if v.approval is not None and v.approval.lo <= c <= v.approval.hi))
        for c in slate
    ]
    # The tally is the same on the hulls and on the raw intervals.
    for election in (restricted, Society(spectrum, society.voters)):
        assert list(agreement(election).per_candidate.items()) == expected


def test_json_round_trip_line(seven_voter_society):
    text = dumps_society(seven_voter_society)
    assert loads_society(text) == seven_voter_society


def test_json_round_trip_rationals_and_nulls():
    society = linear_society([(Fraction(1, 3), Fraction(2, 3)), None])
    again = loads_society(dumps_society(society))
    assert again == society
    assert '"interval":null' in dumps_society(society)


def test_json_parses_decimals_exactly():
    society = loads_society(
        '{"spectrum": "line", "voters": [{"id": "v1", "interval": [0.1, 0.3]}]}'
    )
    assert society.voters[0].approval == Interval(Fraction(1, 10), Fraction(3, 10))


def test_json_accepts_fraction_strings():
    society = loads_society(
        '{"spectrum": {"candidates": ["1/2", 2]}, "voters": [{"id": "a", "interval": ["1/3", "5/3"]}]}'
    )
    assert society.spectrum.candidates == (Fraction(1, 2), Fraction(2))
    assert society.voters[0].approval == Interval(Fraction(1, 3), Fraction(5, 3))


def test_json_loads_int_pq_and_decimal_tokens_unchanged():
    text = (
        '{"spectrum": {"candidates": [1, "1/3", 2.5]}, "voters": ['
        '{"id": "a", "interval": ["1/3", 1]}, {"id": "b", "interval": ["2/6", 2.50]},'
        '{"id": "c", "interval": [2.5, 25e-1]}, {"id": "d", "interval": null},'
        '{"id": "e", "interval": ["-7/2", "2E3"]}]}'
    )
    society = loads_society(text)
    third, two_and_half = Fraction(1, 3), Fraction(5, 2)
    assert society.spectrum.candidates == (1, third, two_and_half)
    assert [v.approval for v in society.voters] == [
        Interval(third, Fraction(1)),
        Interval(third, two_and_half),
        Interval(two_and_half, two_and_half),
        None,
        Interval(Fraction(-7, 2), Fraction(2000)),
    ]
    assert dumps_society(society) == (
        '{"spectrum":{"candidates":[1,"1/3","5/2"]},"voters":['
        '{"id":"a","interval":["1/3",1]},{"id":"b","interval":["1/3","5/2"]},'
        '{"id":"c","interval":["5/2","5/2"]},{"id":"d","interval":null},'
        '{"id":"e","interval":["-7/2",2000]}]}\n'
    )


def test_json_repeated_tokens_share_one_coordinate():
    society = loads_society(
        '{"spectrum": "line", "voters": [{"id": "a", "interval": ["1/3", 2.5]},'
        '{"id": "b", "interval": ["1/3", 2.5]}, {"id": "c", "interval": [7, 7]}]}'
    )
    a, b, c = (v.approval for v in society.voters)
    assert a.lo is b.lo and a.hi is b.hi and c.lo is c.hi


@pytest.mark.parametrize("token", ["true", "false"])
def test_json_rejects_booleans_even_after_equal_ints(token):
    # true == 1 and false == 0, and they hash alike: an interned 1 or 0 must
    # not stand in for them.
    text = '{"spectrum": "line", "voters": [{"id": "a", "interval": [0, 1]}, {"id": "b", "interval": [%s, 1]}]}'
    with pytest.raises(SocietyFormatError, match="is not a number"):
        loads_society(text % token)


def test_json_number_digit_bound(default_int_digit_limit):
    line = '{"spectrum": "line", "voters": [{"id": "a", "interval": [%s, %s]}]}'
    society = loads_society(line % ("-1e-4000", "1e4000"))
    assert society.voters[0].approval == Interval(Fraction(-1, 10**4000), Fraction(10**4000))
    for lo, hi in [("0", "1e4300"), ("1e-4300", "1"), ("0", '"1e4300"'), ("0", "1" * 4301 + ".5")]:
        with pytest.raises(SocietyFormatError, match="expands to more than 4300 digits"):
            loads_society(line % (lo, hi))


def test_society_validates_once():
    society = linear_society([(0, 1), (2, 1)])
    assert society.violations == ("voter v2: lo > hi",)
    assert society.violations is society.violations
    assert validate(society) == ["voter v2: lo > hi"]


def test_json_box_round_trip():
    society = box_society([((0, 1), (2, 3)), None])
    assert loads_society(dumps_society(society)) == society


def test_json_errors_carry_position():
    with pytest.raises(SocietyFormatError, match="line 1"):
        loads_society("{nope}")
    with pytest.raises(SocietyFormatError, match="spectrum"):
        loads_society('{"spectrum": "ring", "voters": []}')
    with pytest.raises(SocietyFormatError, match="interval"):
        loads_society('{"spectrum": "line", "voters": [{"id": "v1"}]}')


json_keys = st.text(max_size=4) | st.sampled_from(["spectrum", "voters", "id", "interval", "box", "candidates"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["line", "1/0", "1/3", "2e400", "nan", "-0", "1e-2"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=12,
)


def load_checked(text: str) -> Society | None:
    """loads_society and require_valid, as the CLI reads a society; only a
    ValueError (SocietyFormatError included) may escape."""
    try:
        society = loads_society(text)
        require_valid(society)
    except ValueError:
        return None
    return society


def json_paths(obj, prefix=()):
    """The path of every value nested inside a parsed JSON document."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


# A document with the value at each place the format gives meaning to.
DOCUMENTS_AROUND = [
    lambda x: x,
    lambda x: {"spectrum": x, "voters": [{"id": "v1", "interval": [0, 1]}]},
    lambda x: {"spectrum": {"candidates": x}, "voters": [{"id": "v1", "interval": [0, 1]}]},
    lambda x: {"spectrum": {"candidates": [1, x]}, "voters": [{"id": "v1", "interval": [0, 1]}]},
    lambda x: {"spectrum": {"box": x}, "voters": [{"id": "v1", "box": [[0, 1]]}]},
    lambda x: {"spectrum": "line", "voters": x},
    lambda x: {"spectrum": "line", "voters": [x]},
    lambda x: {"spectrum": "line", "voters": [{"id": x, "interval": [0, 1]}]},
    lambda x: {"spectrum": "line", "voters": [{"id": "v1", "interval": x}]},
    lambda x: {"spectrum": "line", "voters": [{"id": "v1", "interval": [x, 1]}]},
    lambda x: {"spectrum": {"box": 2}, "voters": [{"id": "v1", "box": x}]},
    lambda x: {"spectrum": {"box": 2}, "voters": [{"id": "v1", "box": [[0, 1], x]}]},
]


@given(json_values, st.text(max_size=30))
def test_loader_raises_only_value_errors_on_arbitrary_json(value, text):
    load_checked(text)
    for document_around in DOCUMENTS_AROUND:
        load_checked(json.dumps(document_around(value)))


@given(pooled_societies(max_n=4), st.data())
def test_loader_raises_only_value_errors_on_mutated_documents(society, data):
    doc = society_to_obj(society)
    *head, last = data.draw(st.sampled_from(list(json_paths(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = data.draw(json_values)
    load_checked(json.dumps(doc))


@given(pooled_societies(max_n=4), st.data())
def test_loader_ignores_unknown_voter_keys(society, data):
    doc = society_to_obj(society)
    voter = data.draw(st.sampled_from(doc["voters"]))
    voter[data.draw(st.sampled_from(["extra", "note", "ID"]))] = data.draw(json_values)
    assert loads_society(json.dumps(doc)) == society


@given(line_societies(max_n=8))
def test_json_round_trip_random(society):
    assert loads_society(dumps_society(society)) == society


@given(box_societies(max_n=5))
def test_json_round_trip_random_boxes(society):
    assert loads_society(dumps_society(society)) == society


def test_file_round_trip(tmp_path, seven_voter_society):
    path = str(tmp_path / "society.json")
    save_society(seven_voter_society, path)
    assert load_society(path) == seven_voter_society
    with open(path, "r", encoding="utf-8") as fh:
        assert load_society(fh) == seven_voter_society
    save_society(seven_voter_society, io.StringIO())


def test_to_box_society(seven_voter_society):
    boxed = to_box_society(seven_voter_society)
    assert boxed.spectrum == BoxSpectrum(1)
    assert boxed.voters[0].approval.sides[0] == seven_voter_society.voters[0].approval


def test_induced_preserves_order(seven_voter_society):
    sub = seven_voter_society.induced(["v4", "v2"])
    assert sub.voter_ids() == ("v2", "v4")
    with pytest.raises(KeyError):
        seven_voter_society.induced(["v9"])
