"""The JSON loader builds each line voter as the decoder reads it.

Here it is compared with the two-step build, ``society_from_obj`` on the
whole decoded tree: on random documents (answers, error messages and the
sharing of interned coordinates), on voter-shaped objects placed where no
voter belongs, and by the memory it peaks at.
"""

import json
import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given

from agreeable import Box, CandidateSpectrum, Interval, SocietyFormatError, loads_society
from agreeable.society import _parse_exact, society_from_obj

VOTER = '{"id": "x", "interval": [0, 1]}'
NOT_A_COORDINATE = "coordinate {'id': 'x', 'interval': [0, 1]} is not a number or 'p/q' string"

# A well-formed line voter where no voter belongs, with the message the
# two-step build gives.
MISPLACED = {
    "top level": (VOTER, "missing 'spectrum' or 'voters'"),
    "spectrum": ('{"spectrum": %s, "voters": []}' % VOTER, "unknown spectrum {'id': 'x', 'interval': [0, 1]}"),
    "candidate": (
        '{"spectrum": {"candidates": [0, %s]}, "voters": [{"id": "a", "interval": [0, 1]}]}' % VOTER,
        NOT_A_COORDINATE,
    ),
    "coordinate": ('{"spectrum": "line", "voters": [{"id": "a", "interval": [0, %s]}]}' % VOTER, NOT_A_COORDINATE),
    "box side": (
        '{"spectrum": {"box": 2}, "voters": [{"id": "a", "box": [[0, 1], %s]}]}' % VOTER,
        "voters[0] axis 1: interval must be [lo, hi] or null",
    ),
}


@pytest.mark.parametrize("place", sorted(MISPLACED))
def test_a_voter_outside_voters_keeps_its_message(place):
    text, message = MISPLACED[place]
    with pytest.raises(SocietyFormatError) as caught:
        loads_society(text)
    assert str(caught.value) == message


def _two_step(text: str):
    return society_from_obj(_parse_exact(text))


def _outcome(load, text: str):
    """The society ``load`` builds from ``text``, or its error message."""
    try:
        return load(text)
    except SocietyFormatError as exc:
        return str(exc)


def _sharing(society) -> list[int]:
    """For each coordinate, in document order, the position of the first
    coordinate that is the same object."""
    coords = list(society.spectrum.candidates) if isinstance(society.spectrum, CandidateSpectrum) else []
    for v in society.voters:
        sides = v.approval.sides if isinstance(v.approval, Box) else (v.approval,)
        coords += [end for side in sides if side is not None for end in (side.lo, side.hi)]
    first: dict[int, int] = {}
    return [first.setdefault(id(c), i) for i, c in enumerate(coords)]


# Coordinate tokens: ints (some past the small-int cache, so sharing is a
# matter of interning), p/q strings and decimal literals; and a few tokens
# the loader refuses.
tokens = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["100000000000000000000", "-7000000000000000000001"]),
    st.tuples(st.integers(-9, 9), st.integers(1, 4)).map(lambda pq: f'"{pq[0]}/{pq[1]}"'),
    st.sampled_from(["0.5", "1.50", "25e-1", "2.0", "-3.25", "1E2"]),
)
bad_tokens = st.sampled_from(["true", "false", '"1/0"', '"x"', "[]"])


@st.composite
def documents(draw):
    """A society document as text: a line, slate or box spectrum, before or
    after voters whose objects repeat or reorder keys, carry unknown or empty
    keys (a voter-shaped object among them) or hold a box; in one document
    in four, one voter is malformed."""
    coord = st.sampled_from(draw(st.lists(tokens, min_size=1, max_size=6)))
    pair = st.tuples(coord, coord).map(lambda ends: "[%s, %s]" % ends)
    interval = st.one_of(st.just("null"), pair, pair)
    spectrum = draw(st.one_of(
        st.just('"line"'),
        st.lists(coord, max_size=4).map(lambda cs: '{"candidates": [%s]}' % ", ".join(cs)),
        st.just('{"box": 1}'),
    ))
    voters = []
    for i in range(draw(st.integers(1, 8))):
        pairs = [("id", f'"v{i}"'), draw(st.one_of(
            interval.map(lambda iv: ("interval", iv)),
            st.sampled_from(["null", "[]"]).map(lambda box: ("box", box)),
            pair.map(lambda side: ("box", f"[{side}]")),
        ))]
        extra = st.sampled_from([("note", VOTER), ("note", "1"), ("", "null"), ("id", f'"w{i}"')])
        pairs += draw(st.lists(extra, max_size=2))
        voters.append(pairs)
    if draw(st.integers(0, 3)) == 0:
        pairs = draw(st.sampled_from(voters))
        index = draw(st.integers(0, len(pairs) - 1))
        pairs[index] = draw(st.one_of(
            st.sampled_from([("id", "7"), ("id", "true")]),
            st.just(("other", "0")),
            coord.map(lambda end: ("interval", f"[{end}]")),
            st.tuples(coord, bad_tokens).map(lambda ends: ("interval", "[%s, %s]" % ends)),
            st.just(("box", "[null]")),
        ))
    voters = [
        "{%s}" % ", ".join(f'"{key}": {value}' for key, value in draw(st.permutations(pairs))) for pairs in voters
    ]
    parts = [f'"spectrum": {spectrum}', '"voters": [%s]' % ", ".join(voters)]
    if draw(st.booleans()):
        parts.reverse()
    return "{%s}" % ", ".join(parts)


@given(documents())
def test_loader_matches_the_two_step_build(text):
    streamed, built = _outcome(loads_society, text), _outcome(_two_step, text)
    assert streamed == built
    if not isinstance(built, str):
        assert _sharing(streamed) == _sharing(built)


def test_repeated_tokens_share_one_coordinate_across_slate_and_voters():
    big = "100000000000000000000"
    text = (
        '{"voters": [{"id": "a", "interval": ["1/3", %s]}, {"id": "b", "interval": [0.5, %s]}],'
        ' "spectrum": {"candidates": [0.5, "1/3", %s]}}' % (big, big, big)
    )
    society = loads_society(text)
    half, third, top = society.spectrum.candidates
    a, b = (v.approval for v in society.voters)
    assert a == Interval(third, top) and b == Interval(half, top)
    assert a.lo is third and b.lo is half and a.hi is b.hi is top


def test_loader_peaks_below_the_decoded_tree():
    # 20 000 voters on p/q ends: the loader's peak, society included, must
    # stay below that of the decoded tree alone.
    rng = random.Random(14)
    voters = []
    for i in range(20000):
        lo = rng.randrange(140000)
        voters.append('{"id": "v%d", "interval": ["%d/7", "%d/7"]}' % (i + 1, lo, lo + rng.randrange(3500)))
    text = '{"spectrum": "line", "voters": [%s]}' % ", ".join(voters)
    peaks = []
    for load in (json.loads, loads_society):
        tracemalloc.start()
        try:
            load(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tree, loader = peaks
    assert loader < tree, (loader, tree)
