"""Coordinate representation: a whole number is an int, any other value a
Fraction, and the two representations of a whole number give the same
answers everywhere."""

import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from agreeable import (
    AgreeParams,
    Box,
    BoxSpectrum,
    CandidateSpectrum,
    Interval,
    RandomConfig,
    Society,
    Voter,
    agreement,
    agreement_graph,
    bound_sheet,
    common_platform,
    dumps_society,
    greedy_interval_coloring,
    is_km_agreeable,
    linear_society,
    loads_society,
    random_society,
    two_platform_cover,
)
from agreeable.agreeability import platform_masks
from agreeable.oracles import brute_line_agreement
from agreeable.society import LineSpectrum, SocietyFormatError, _exact_decimal, _fraction, as_coord
from agreeable.verify import _farey_image

from strategies import crowded_line_societies, pooled_societies


def _coords(value):
    """Every coordinate inside a society, an approval set, a report's
    witnesses (intervals, grid points or candidates) or a cover."""
    if isinstance(value, Society):
        if isinstance(value.spectrum, CandidateSpectrum):
            yield from value.spectrum.candidates
        for v in value.voters:
            yield from _coords(v.approval)
    elif isinstance(value, Interval):
        yield value.lo
        yield value.hi
    elif isinstance(value, Box):
        for side in value.sides:
            yield from _coords(side)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _coords(item)
    elif value is not None:
        yield value


def _outputs(society: Society) -> list:
    """The coordinates each coordinate-returning entry point gives for this
    society: the sweep, tally or box-depth witnesses; on the line the oracle
    witnesses, the Farey image and the two-platform cover; on the line or a
    slate the common platform."""
    report = agreement(society)
    out = [report.witnesses, list(report.per_candidate or ())]
    if isinstance(society.spectrum, LineSpectrum):
        out.append(brute_line_agreement(society).witnesses)
        if -1 not in _coords(society):  # x -> x/(x+1) is undefined at -1
            out.append(_farey_image(society))
    if not isinstance(society.spectrum, BoxSpectrum) and all(v.approval is not None for v in society.voters):
        out.append(common_platform(society))
        if isinstance(society.spectrum, LineSpectrum):
            try:
                cover = two_platform_cover(society)
            except ValueError:  # not (2,3)-agreeable
                pass
            else:
                out.append((cover.x, cover.y))
    return out


def _assert_coords(value, whole_is_int: bool) -> None:
    for x in _coords(value):
        assert type(x) in (int, Fraction), x
        if whole_is_int and x.denominator == 1:
            assert type(x) is int, x


integer_draws = st.builds(
    lambda kind, d, n, seed, empty: random_society(
        kind, n, seed, RandomConfig(coord_min=-6, coord_max=12, empty_percent=empty, dimension=d)
    ),
    st.sampled_from(("line", "candidates", "box")),
    st.integers(1, 3),
    st.integers(1, 8),
    st.integers(0, 10**6),
    st.sampled_from((0, 20)),
)


@settings(max_examples=150, deadline=None)
@given(drawn=st.one_of(st.tuples(pooled_societies(), st.just(False)), st.tuples(integer_draws, st.just(True))))
def test_every_coordinate_is_an_int_or_a_fraction(drawn):
    society, generated = drawn
    loaded = loads_society(dumps_society(society))
    _assert_coords([society, _outputs(society)], whole_is_int=generated)
    _assert_coords([loaded, _outputs(loaded)], whole_is_int=True)


def test_oracle_midpoints_stay_exact():
    # A float midpoint of 10**20 and 10**20 + 1 rounds onto the left point,
    # which would merge the two witnesses across a gap of depth 0.
    big = 10**20
    society = linear_society([(big, big), (big + 1, big + 1)])
    assert brute_line_agreement(society).witnesses == (Interval(big, big), Interval(big + 1, big + 1))


def test_entry_points_give_whole_numbers_as_ints():
    class Count(int):
        pass

    for value in (Count(3), Fraction(6, 2), Decimal("3.00"), "6/2", "3", " 3 ", "3e0", "0.3e1"):
        assert type(as_coord(value)) is int and as_coord(value) == 3, value
    for literal in ("12.0", "1e3", "-0.0", "1200e-2"):
        assert type(_exact_decimal(literal)) is int, literal
    assert type(as_coord("3/4")) is Fraction and type(_exact_decimal("0.5")) is Fraction

    text = '{"spectrum":{"candidates":[1.0,"4/2",3,"7/2"]},"voters":[{"id":"a","interval":[1e0,"6/2"]}]}'
    society = loads_society(text)
    assert [type(c) for c in society.spectrum.candidates] == [int, int, int, Fraction]
    assert [type(c) for c in _coords(society.voters[0].approval)] == [int, int]
    assert repr(society.voters[0].approval) == "Interval(lo=1, hi=3)"
    with pytest.raises(TypeError):
        as_coord(True)


# ---------------------------------------------------------------------------
# Differential: whole numbers as int against whole numbers as Fraction
# ---------------------------------------------------------------------------


def _recast(society: Society, coord) -> Society:
    """The same society with every coordinate passed through ``coord``."""

    def approval(a):
        if isinstance(a, Interval):
            return Interval(coord(a.lo), coord(a.hi))
        if isinstance(a, Box):
            return Box(tuple(approval(s) for s in a.sides))
        return a

    spectrum = society.spectrum
    if isinstance(spectrum, CandidateSpectrum):
        spectrum = CandidateSpectrum(tuple(coord(c) for c in spectrum.candidates))
    return Society(spectrum, tuple(Voter(v.id, approval(v.approval)) for v in society.voters))


def _answers(society: Society, pairs) -> list:
    report = agreement(society)
    answers = [report, platform_masks(society), agreement_graph(society).edges, json.dumps(report.to_obj())]
    try:
        answers.append(greedy_interval_coloring(society).assignment)
    except ValueError:  # boxes with d >= 2
        answers.append(None)
    for k, m in pairs:
        if m > society.n:
            continue
        result = is_km_agreeable(society, AgreeParams(k, m))
        sheet = bound_sheet(society, AgreeParams(k, m), agreeability=result, report=report)
        answers += [result.agreeable, result.witness, json.dumps(sheet.to_obj())]
    return answers


km_pairs = st.lists(
    st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(k, 6))), min_size=1, max_size=3
)


@settings(max_examples=150, deadline=None)
@given(society=st.one_of(pooled_societies(), crowded_line_societies()), pairs=km_pairs)
def test_int_and_fraction_coordinates_give_the_same_answers(society, pairs):
    as_ints = _recast(society, as_coord)
    as_fractions = _recast(society, Fraction)
    assert all(type(x) is Fraction for x in _coords(as_fractions))
    _assert_coords(as_ints, whole_is_int=True)
    assert _answers(as_ints, pairs) == _answers(as_fractions, pairs)
    assert dumps_society(as_ints) == dumps_society(as_fractions)


# ---------------------------------------------------------------------------
# The "p/q" fast path parses exactly as Fraction(text)
# ---------------------------------------------------------------------------


def _outcome(parse, text):
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


# No "e": the program never passes an exponent string to _fraction (it goes
# to the digit-capped decimal reader), and _fraction forwards one to
# Fraction, so such a draw only compares Fraction with itself, at the cost
# of expanding its exponent ('7e+76531_14' takes seconds).
fraction_texts = st.one_of(
    st.text(alphabet="0123456789+-  \t_/.²١", max_size=12),
    st.builds(
        "{}{}{}{}".format,
        st.sampled_from(("", "-", "+", " ", "--")),
        st.text(alphabet="0123456789", max_size=6),
        st.sampled_from(("/", "/", "/-", "//", "", " /")),
        st.text(alphabet="000123456789_²", max_size=6),
    ),
)


@settings(max_examples=400, deadline=None)
@given(text=fraction_texts)
def test_fraction_parsing_matches_the_fraction_constructor(text):
    assert _outcome(_fraction, text) == _outcome(Fraction, text)


def test_fraction_parsing_edge_cases():
    too_long = "1" * 5000  # past int's default digit limit: the same ValueError
    cases = ("1/0", "-0/5", "007/010", "-/2", "1/", "/2", "1/2/3", "+1/2", "1/-2", "١/٢", "²/3", "1_0/2")
    for text in cases + (f"-{too_long}/3", f"3/{too_long}"):
        assert _outcome(_fraction, text) == _outcome(Fraction, text), text


# ---------------------------------------------------------------------------
# as_coord reads a string or a Decimal by the loader's rule
# ---------------------------------------------------------------------------


def _loaded(text: str):
    """The coordinate the JSON loader reads from the string token ``text``."""
    doc = json.dumps({"spectrum": "line", "voters": [{"id": "a", "interval": [text, text]}]})
    return loads_society(doc).voters[0].approval.lo


COORD_STRINGS = ("1e4299", "1e4301", Decimal("1E+5000"), "NaN", Decimal("NaN"), "abc", "3/4")


@pytest.mark.parametrize("value", COORD_STRINGS, ids=repr)
def test_as_coord_accepts_and_refuses_as_the_loader(value, default_int_digit_limit):
    assert _outcome(as_coord, value) == _outcome(_loaded, str(value))


@settings(max_examples=200, deadline=None)
@given(text=fraction_texts)
def test_as_coord_reads_strings_as_the_loader(text):
    assert _outcome(as_coord, text) == _outcome(_loaded, text)


def test_as_coord_refuses_a_long_exponent_at_once(default_int_digit_limit):
    # Expanding 1e2000000 would build a two-million-digit int (about a
    # second); the digit cap refuses it from the exponent alone.
    start = time.perf_counter()
    for value in ("1e2000000", Decimal("1e2000000")):
        with pytest.raises(SocietyFormatError, match="expands to more than 4300 digits"):
            as_coord(value)
    assert time.perf_counter() - start < 0.1
