"""The bound table: what ``bounds`` prints and what a bound sheet reports
come from one decision of which bounds apply.

The digests and texts below were taken from the command before the two
were derived from one table, and must not change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from agreeable import (
    AgreeParams,
    box_society,
    bound_sheet,
    candidate_society,
    five_cycle_boxes,
    linear_society,
    save_society,
)
from agreeable.cli import main

# (k, m) with m > 2k-2 for (2, 3) and (4, 15), m <= 2k-2 for (3, 4) and
# (5, 7); --d 3 with m = 3 is the case m <= d.
BOUNDS_KM = ((2, 3), (3, 4), (4, 15), (5, 7))


def _run(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _bounds_grid(k: int, m: int, fmt: str, capsys) -> bytes:
    """``bounds`` for one (k, m), without and with ``--n 21``, each with no
    ``--d`` and with ``--d`` 1, 2 and 3, concatenated."""
    outputs = []
    for n in ([], ["--n", "21"]):
        for d in ([], ["--d", "1"], ["--d", "2"], ["--d", "3"]):
            code, out, err = _run(["bounds", "--k", str(k), "--m", str(m), *n, *d, "--format", fmt], capsys)
            assert (code, err) == (0, "")
            outputs.append(out)
    return "".join(outputs).encode()


BOUNDS_GRID_DIGESTS = {
    "k2-m3-text": "89b27ef10add3aab4f1faf5a02aec1a6cad24fc5905f874ca6bece19f0a98436",
    "k2-m3-json": "d996643492259d2faa331b4d5f586bb605aee43046d3d2f89dd133112b2301e0",
    "k3-m4-text": "b4a2f52f6575f2cd7b5ac56093fadc8415e77400c3e956f63eb41f3b72906ea8",
    "k3-m4-json": "5044242fb9c85f51db72ad41a9e7cc2043cd1d9c4e551e9b7303279892145d10",
    "k4-m15-text": "d98a92b4440aeb258a5298ef8ea79a5671d4af9f0b84fc97d95d82d4f9bdc72d",
    "k4-m15-json": "9023ef4fa4177e34eb6b2768826bc6cfae2f275db10fc7bd308bbd3bd553998f",
    "k5-m7-text": "3b28a94ef9532eb69137fc985ec389567c36ca98b4f619c7b168d1a7e84d31d1",
    "k5-m7-json": "e6517cb0d173aeb6fb04364ccc49edf7fa97597e71303f8fa66657fc025a1334",
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("k,m", BOUNDS_KM)
def test_bounds_grid_digest(k, m, fmt, capsys):
    digest = hashlib.sha256(_bounds_grid(k, m, fmt, capsys)).hexdigest()
    assert digest == BOUNDS_GRID_DIGESTS[f"k{k}-m{m}-{fmt}"]


BOUNDS_REFUSALS = {
    "--k 1 --m 3": 'error: division with remainder requires k >= 2\n',
    "--k 1 --m 3 --n 2 --d 1": 'error: division with remainder requires k >= 2\n',
    "--k 4 --m 15 --n 10": 'error: need n >= m, got n=10, m=15\n',
    "--k 4 --m 15 --n 10 --d 2": 'error: need n >= m, got n=10, m=15\n',
    "--k 3 --m 4 --d 0": 'error: dimension must be >= 1\n',
    "--k 5 --m 4": 'error: need 1 <= k <= m, got k=5, m=4\n',
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("flags", sorted(BOUNDS_REFUSALS))
def test_bounds_refusals(flags, fmt, capsys):
    assert _run(["bounds", *flags.split(), "--format", fmt], capsys) == (2, "", BOUNDS_REFUSALS[flags])


# Four 2-boxes sharing the point (1, 2).
SHARED_POINT_BOXES = box_society([((0, 2), (0, 2)), ((1, 3), (1, 3)), ((0, 1), (2, 3)), ((1, 2), (0, 4))])

# name -> (society, k, m); on the boxes (2, 2) has m <= d, (2, 3) has
# m > 2k-2 and (3, 4) meets both hypotheses.
ANALYZE_TEXT_SOCIETIES = {
    "line": (linear_society([(1, 4), (2, 5), (3, 7), (6, 11), (8, 13), (8, 10), (10, 15)]), 2, 3),
    "slate": (candidate_society([2, 4, 6, 8], [(2, 8), (4, 8), (5, 9), (6, 6), (3, 7), (6, 10)]), 3, 5),
    "box2-m-at-most-d": (SHARED_POINT_BOXES, 2, 2),
    "box2-m-past-2k-2": (SHARED_POINT_BOXES, 2, 3),
    "box2-both-apply": (SHARED_POINT_BOXES, 3, 4),
    "box2-not-agreeable": (five_cycle_boxes(), 2, 2),
}

ANALYZE_TEXT = {
    "line": (
        'voters: 7\n'
        'agreement number: 4\n'
        'agreement proportion: 4/7 (~0.571429)\n'
        'witness platforms: [10, 10]\n'
        '(k,m)=(2,3): agreeable\n'
        '  clique: 4 -> satisfied\n'
        '  proportion: 1/2 -> satisfied\n'
    ),
    "slate": (
        'voters: 6\n'
        'agreement number: 6\n'
        'agreement proportion: 1 (~1)\n'
        'witness platforms: 6\n'
        '  candidate 2: 1 approvals\n'
        '  candidate 4: 3 approvals\n'
        '  candidate 6: 6 approvals\n'
        '  candidate 8: 4 approvals\n'
        '(k,m)=(3,5): agreeable\n'
        '  clique: 3 -> satisfied\n'
        '  proportion: 1/2 -> satisfied\n'
    ),
    "box2-m-at-most-d": (
        'voters: 4\n'
        'agreement number: 4\n'
        'agreement proportion: 1 (~1)\n'
        'witness platforms: (1, 2)\n'
        '(k,m)=(2,2): agreeable\n'
        '  fractional_helly: not applicable (needs m > d=2)\n'
        '  small_m: 4 -> satisfied\n'
    ),
    "box2-m-past-2k-2": (
        'voters: 4\n'
        'agreement number: 4\n'
        'agreement proportion: 1 (~1)\n'
        'witness platforms: (1, 2)\n'
        '(k,m)=(2,3): agreeable\n'
        '  fractional_helly: 1 - (1)^(1/3) in [0, 0] -> satisfied\n'
        '  small_m: not applicable (needs m <= 2k-2 = 2)\n'
    ),
    "box2-both-apply": (
        'voters: 4\n'
        'agreement number: 4\n'
        'agreement proportion: 1 (~1)\n'
        'witness platforms: (1, 2)\n'
        '(k,m)=(3,4): agreeable\n'
        '  fractional_helly: 1 - (3/4)^(1/3) in [0.091439, 0.09144] -> satisfied\n'
        '  small_m: 3 -> satisfied\n'
    ),
    "box2-not-agreeable": (
        'voters: 5\n'
        'agreement number: 2\n'
        'agreement proportion: 2/5 (~0.4)\n'
        'witness platforms: (0, 1), (0, 3), (0, 5), (10, 0), (10, 1), (10, 5)\n'
        '(k,m)=(2,2): NOT agreeable (witness v1,v3); bounds vacuous\n'
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_TEXT))
def test_analyze_text_with_bounds(name, capsys, tmp_path):
    society, k, m = ANALYZE_TEXT_SOCIETIES[name]
    path = tmp_path / "society.json"
    save_society(society, str(path))
    assert _run(["analyze", str(path), "--k", str(k), "--m", str(m)], capsys) == (0, ANALYZE_TEXT[name], "")


# The key under which ``bounds`` prints each bound sheet entry.
PRINTED_KEY = {
    "clique": "clique_bound",
    "proportion": "proportion_bound",
    "fractional_helly": "fractional_helly",
    "small_m": "small_m_bound",
}


@st.composite
def _sizes(draw):
    k = draw(st.integers(2, 5))
    m = draw(st.integers(k, 8))
    return k, m, draw(st.integers(m, 10)), draw(st.sampled_from((None, 1, 2, 3)))


@settings(max_examples=60, deadline=None)
@given(_sizes())
def test_bounds_command_and_bound_sheet_agree(sizes):
    """``bounds --n n [--d d]`` prints the values, and omits the bounds,
    that the bound sheet of an agreeable society of n voters (boxes of
    dimension d when d is given) reports; every voter approves the same
    platform, so the sheet is never vacuous."""
    k, m, n, d = sizes
    argv = ["bounds", "--k", str(k), "--m", str(m), "--n", str(n), "--format", "json"]
    if d is None:
        society = linear_society([(0, 1)] * n)
    else:
        society = box_society([[(0, 1)] * d] * n)
        argv += ["--d", str(d)]
    printed = _bounds_json(argv)
    sheet = bound_sheet(society, AgreeParams(k, m))
    assert not sheet.vacuous
    for entry in sheet.entries:
        key = PRINTED_KEY[entry.name]
        assert entry.applicable == (key in printed), entry
        if entry.applicable:
            assert printed[key] == entry.to_obj()["value"], entry


def _bounds_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())
