"""``dumps_society`` against the serializer it replaced.

``reference_dumps`` is the earlier writer, kept here verbatim:
``society_to_obj`` building dicts and lists, then ``json.dumps`` with
compact separators.  ``dumps_society`` writes the text itself and must give
the same bytes on every society, including ones built directly with ids,
coordinates and approvals that no generator or loader makes.
"""

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from agreeable import (
    Box,
    BoxSpectrum,
    CandidateSpectrum,
    Interval,
    LINE,
    LineSpectrum,
    Society,
    Voter,
    dumps_society,
    linear_society,
    make_box,
)
from agreeable.society import society_to_obj
from strategies import box_societies, line_societies, one_d_societies, pooled_societies


def _reference_coord(c):
    return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def reference_to_obj(society: Society) -> dict:
    spec = society.spectrum
    if isinstance(spec, LineSpectrum):
        raw_spec = "line"
    elif isinstance(spec, CandidateSpectrum):
        raw_spec = {"candidates": [_reference_coord(c) for c in spec.candidates]}
    else:
        raw_spec = {"box": spec.dimension}

    voters = []
    for v in society.voters:
        a = v.approval
        if isinstance(a, Box):
            voters.append({"id": v.id, "box": [[_reference_coord(s.lo), _reference_coord(s.hi)] for s in a.sides]})
        elif isinstance(a, Interval):
            voters.append({"id": v.id, "interval": [_reference_coord(a.lo), _reference_coord(a.hi)]})
        elif isinstance(spec, BoxSpectrum):
            voters.append({"id": v.id, "box": None})
        else:
            voters.append({"id": v.id, "interval": None})
    return {"spectrum": raw_spec, "voters": voters}


def reference_dumps(society: Society) -> str:
    return json.dumps(reference_to_obj(society), separators=(",", ":")) + "\n"


def _same_text(society: Society) -> None:
    text = dumps_society(society)
    assert text == reference_dumps(society)
    assert society_to_obj(society) == json.loads(text)


societies = st.one_of(
    line_societies(max_n=12),
    one_d_societies(max_n=8),
    pooled_societies(max_n=8),
    st.sampled_from((1, 2, 3)).flatmap(lambda d: box_societies(dimension=d, max_n=6)),
)


@given(societies)
def test_writer_matches_reference(society):
    _same_text(society)


IDS = {
    "quote": 'say "yes"',
    "backslash": "a\\b\\",
    "control": "tab\tline\nnul\x00unit\x1fdel\x7f",
    "non-ascii": "café ☃ \U0001d11e",
    "lone surrogate": "half \ud800 pair",
    "empty": "",
}


@pytest.mark.parametrize("name", sorted(IDS))
def test_writer_escapes_ids_like_json_dumps(name):
    _same_text(linear_society([(0, 1), None], ids=[IDS[name], "v2"]))


def test_writer_matches_reference_on_non_string_ids():
    # validate accepts int ids, so linear_society(..., ids=[1, ...]) is a valid society.
    society = linear_society([(0, 1)] * 7, ids=[1, -7, 10**30, True, None, 2.5, ("a", 1)])
    _same_text(society)
    assert dumps_society(society).startswith('{"spectrum":"line","voters":[{"id":1,"interval":[0,1]}')


DIRECT = {
    "whole Fraction": Society(LINE, (Voter("v1", Interval(Fraction(2, 1), 3)),)),
    "bool end": Society(LINE, (Voter("v1", Interval(True, 2)),)),
    "negative p/q": Society(LINE, (Voter("v1", Interval(Fraction(-7, 3), Fraction(-1, 2))), Voter("v2", None))),
    "box voter on the line": Society(LINE, (Voter("v1", make_box((0, 1), (Fraction(1, 2), 2))), Voter("v2", None))),
    "empty voter in boxes": Society(BoxSpectrum(2), (Voter("v1", None), Voter("v2", make_box((0, 1), (-3, 4))))),
    "interval voter in boxes": Society(BoxSpectrum(1), (Voter("v1", Interval(0, 1)),)),
    "whole Fraction candidates": Society(
        CandidateSpectrum((Fraction(-4, 1), Fraction(1, 3), 2)), (Voter("v1", Interval(Fraction(1, 3), 2)),)
    ),
    "no voters": Society(LINE, ()),
}


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_writer_matches_reference_on_directly_built_values(name):
    _same_text(DIRECT[name])
