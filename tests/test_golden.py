"""Byte-identity gate: SHA-256 digests of outputs that must never change.

The digests pin ``generate`` output (20 000-voter candidate and 3-box
societies among it), the written text of a 24 000-voter ``p/q`` line
society, ``verify --format json`` reports,
``analyze --format json`` and ``check --format json`` reports (with their
bound sheets and lexicographically-first agreeability witnesses, on line,
candidate and box societies, on a 6 000-voter line and dense 30-voter
2-box and 3-box societies, and on a 20 000-voter line document mixing int, ``p/q`` and
decimal tokens), ``bounds --format json`` and the library tour
on a slate (restriction, tally, agreement graph, first-fit coloring), and
the agreement graphs of 2-box and 3-box societies, one of them on p/q
sides.  Any faster path must reproduce these bytes exactly; a changed
digest means a changed answer, not a test to update.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from agreeable import (
    RandomConfig,
    agreement,
    agreement_graph,
    box_society,
    dumps_society,
    good_set_count,
    greedy_interval_coloring,
    linear_society,
    random_society,
    restrict_to_candidates,
)
from agreeable.cli import main

GENERATE = {
    "generate-line": ["generate", "random", "--kind", "line", "--n", "40", "--seed", "3", "--empty-percent", "10"],
    "generate-candidates": [
        "generate", "random", "--kind", "candidates", "--n", "30", "--seed", "4",
        "--num-candidates", "9", "--coord-max", "30", "--max-length", "10", "--empty-percent", "5",
    ],
    "generate-box2": ["generate", "random", "--kind", "box", "--n", "12", "--seed", "5", "--d", "2"],
    "generate-box3": ["generate", "random", "--kind", "box", "--n", "10", "--seed", "6", "--d", "3"],
    "generate-extremal": ["generate", "extremal", "--n", "21", "--k", "4", "--m", "15"],
    "generate-box3-20000": [
        "generate", "random", "--kind", "box", "--d", "3", "--n", "20000", "--seed", "2", "--empty-percent", "5",
    ],
    "generate-candidates-20000": [
        "generate", "random", "--kind", "candidates", "--n", "20000", "--seed", "2", "--empty-percent", "5",
    ],
}

VERIFY = {
    "verify-seed-5": ["verify", "--trials", "12", "--seed", "5", "--format", "json"],
    "verify-seed-11": ["verify", "--trials", "12", "--seed", "11", "--format", "json"],
}

# (society generator argv, extra analyze flags)
ANALYZE = {
    "analyze-candidates": (GENERATE["generate-candidates"], []),
    "analyze-candidates-km-agreeable": (
        ["generate", "random", "--kind", "candidates", "--n", "14", "--seed", "2",
         "--num-candidates", "6", "--coord-max", "20", "--min-length", "8", "--max-length", "16"],
        ["--k", "2", "--m", "3"],
    ),
    "analyze-candidates-km-witness": (
        ["generate", "random", "--kind", "candidates", "--n", "20", "--seed", "9",
         "--num-candidates", "10", "--coord-max", "40", "--max-length", "10", "--empty-percent", "5"],
        ["--k", "3", "--m", "5"],
    ),
    "analyze-line-km": (["generate", "random", "--kind", "line", "--n", "18", "--seed", "2"], ["--k", "3", "--m", "6"]),
}

# Box societies dense enough for both verdicts; each carries empty voters.
# name -> (society generator argv, (k, m) agreeable, (k, m) with a witness)
BOX_KM = {
    "box2": (
        ["generate", "random", "--kind", "box", "--n", "12", "--seed", "5", "--d", "2",
         "--coord-max", "5", "--min-length", "2", "--empty-percent", "10"],
        (3, 7),
        (3, 6),
    ),
    "box3": (
        ["generate", "random", "--kind", "box", "--n", "12", "--seed", "4", "--d", "3",
         "--coord-max", "5", "--min-length", "2", "--empty-percent", "10"],
        (3, 7),
        (3, 6),
    ),
}

# A 6 000-voter line whose left endpoints carry 5 051 distinct voter sets,
# 3 168 of them maximal; (k, m) with m = n, so the search has one subset.
LARGE_LINE = [
    "generate", "random", "--kind", "line", "--n", "6000", "--seed", "3", "--coord-max", "18000", "--max-length", "12",
]
LARGE_LINE_RUNS = {
    "check-line-6000-k1": ["check", "--k", "1", "--m", "6000", "--format", "json"],
    "check-line-6000-k2": ["check", "--k", "2", "--m", "6000", "--format", "json"],
    "analyze-line-6000-k2": ["analyze", "--k", "2", "--m", "6000", "--format", "json"],
}

# A 30-voter 3-box society at the box voter cap: its 27 000-point grid of
# per-axis lower endpoints carries 3 608 distinct voter sets, 14 of them
# maximal.  Written out, so that it does not depend on the generators.
DENSE_BOXES = (
    ((-35, 49), (39, 67), (-28, 65)),
    ((-91, 159), (42, 52), (-73, 91)),
    ((13, 128), (4, 137), (-7, 191)),
    ((-97, 197), (43, 48), (-85, 77)),
    ((14, 55), (-4, 103), (-18, 155)),
    ((26, 47), (61, 76), (-48, 43)),
    ((32, 160), (-55, 105), (-162, 35)),
    ((-74, 56), (-1, 78), (8, 108)),
    ((-33, 61), (35, 164), (-27, 121)),
    ((-86, 27), (-80, 114), (45, 82)),
    ((-110, 167), (-72, 116), (53, 259)),
    ((-169, 70), (-78, 115), (46, 53)),
    ((-23, 30), (-51, 84), (6, 61)),
    ((-85, 67), (-18, 71), (26, 97)),
    ((20, 29), (-53, 169), (-46, 236)),
    ((-17, 44), (32, 89), (-20, 94)),
    ((8, 73), (10, 120), (-4, 159)),
    ((-38, 133), (-42, 66), (16, 74)),
    ((7, 32), (22, 61), (-84, 72)),
    ((25, 91), (-34, 81), (-50, 61)),
    ((-10, 106), (24, 156), (-2, 101)),
    ((-167, 220), (52, 135), (36, 105)),
    ((28, 43), (-39, 85), (-54, 37)),
    ((40, 61), (-105, 15), (54, 61)),
    ((0, 72), (23, 93), (-1, 77)),
    ((-100, 74), (46, 160), (-80, 122)),
    ((-12, 25), (31, 93), (-151, 131)),
    ((-39, 38), (-22, 47), (5, 162)),
    ((30, 69), (48, 107), (-110, 105)),
    ((-43, 52), (-3, 112), (15, 135)),
)
DENSE_BOX_RUNS = {
    "check-dense-box3-witness": ["check", "--k", "4", "--m", "5", "--format", "json"],
    "analyze-dense-box3-witness": ["analyze", "--k", "4", "--m", "5", "--format", "json"],
}

# A generated 30-voter 2-box society at the box voter cap: agreement number 9,
# 18 maximal cliques; (3, 6) has a witness, (3, 25) is agreeable only after a
# search.
DENSE_BOX2 = [
    "generate", "random", "--kind", "box", "--n", "30", "--seed", "3", "--d", "2", "--coord-max", "20",
    "--min-length", "2", "--max-length", "14", "--empty-percent", "10",
]
DENSE_BOX2_RUNS = {
    f"{command}-dense-box2-{verdict}": [command, "--k", "3", "--m", m, "--format", "json"]
    for command in ("check", "analyze")
    for verdict, m in (("witness", "6"), ("agreeable", "25"))
}

BOUNDS = {"bounds": ["bounds", "--k", "4", "--m", "15", "--n", "21", "--d", "2", "--format", "json"]}

# (dimension, voters, seed) of generated box societies whose agreement graphs
# are pinned: sides of length 0 to 5 on 0..17, so sides touch and degenerate
# to points, and one voter in ten approves nothing.
BOX_GRAPHS = {"box-graph-2": (2, 150, 7), "box-graph-3": (3, 120, 8)}

# (voters, candidates on the slate, seed) for the library tour.
TOURS = ((100, 10, 1), (280, 28, 2), (500, 50, 3))


def _run(argv, capsys) -> bytes:
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out.encode("utf-8")


def _rational_candidate_document() -> str:
    """A candidate society on p/q coordinates with empty voters and a slate
    reaching outside every interval; written by hand so that it does not
    depend on the generators."""
    rng = random.Random(2024)

    def coord() -> Fraction:
        return Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4)))

    slate = sorted({coord() for _ in range(14)} | {Fraction(-99), Fraction(99)})
    intervals = []
    for _ in range(60):
        if rng.random() < 0.1:
            intervals.append(None)
        else:
            lo = coord()
            intervals.append((lo, lo + Fraction(rng.randint(0, 24), rng.choice((1, 2, 3)))))
    return dumps_society(restrict_to_candidates(linear_society(intervals), slate))


def _mixed_line_document(n: int = 20000) -> str:
    """A line society whose ends mix int tokens, "p/q" strings and decimal
    literals (some with an exponent), one voter in twenty approving nothing;
    written as text, so that it depends neither on the generators nor on the
    dumper."""
    rng = random.Random(2027)
    grids = (Fraction(1), Fraction(1, 3), Fraction(1, 100))

    def token(x: Fraction) -> str:
        if x.denominator == 1:
            return str(x.numerator)
        if x.denominator == 3:
            return f'"{x.numerator}/3"'
        cents = x.numerator * (100 // x.denominator)
        return f"{cents}e-2" if rng.random() < 0.25 else f"{cents // 100}.{cents % 100:02d}"

    voters = []
    for i in range(n):
        if rng.random() < 0.05:
            interval = "null"
        else:
            grid = rng.choice(grids)
            lo = rng.randint(0, 4000 * grid.denominator) * grid
            hi_grid = rng.choice(grids)
            hi = (-(-lo // hi_grid) + rng.randint(0, 25 * hi_grid.denominator)) * hi_grid
            interval = f"[{token(lo)}, {token(hi)}]"
        voters.append(f'{{"id": "v{i + 1}", "interval": {interval}}}')
    return '{"spectrum": "line", "voters": [' + ", ".join(voters) + "]}\n"


def _line_bulk_document(n: int = 24000) -> bytes:
    """The written text of a generated line society rescaled by 2/7, so that
    most ends are "p/q" strings and one voter in fifty approves nothing."""
    config = RandomConfig(coord_min=0, coord_max=n, min_length=0, max_length=n // 40, empty_percent=2)
    society = random_society("line", n, 24, config)
    scale = Fraction(2, 7)
    scaled = [None if v.approval is None else (v.approval.lo * scale, v.approval.hi * scale) for v in society.voters]
    return dumps_society(linear_society(scaled)).encode()


def _rational_box_graph() -> bytes:
    """The agreement graph of a 2-box society on a pool of p/q sides, with
    empty voters; written by hand so that it does not depend on the
    generators."""
    rng = random.Random(2031)
    pool = sorted({Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(10)})
    boxes = []
    for _ in range(100):
        if rng.random() < 0.1:
            boxes.append(None)
            continue
        sides = []
        for _ in range(2):
            a, b = rng.choice(pool), rng.choice(pool)
            sides.append((min(a, b), max(a, b)))
        boxes.append(sides)
    return agreement_graph(box_society(boxes)).to_json().encode()


def _tour(n: int, c: int, seed: int) -> dict[str, bytes]:
    gap = 1000 // c
    config = RandomConfig(coord_min=0, coord_max=1000, min_length=gap, max_length=3 * gap, empty_percent=5)
    society = random_society("line", n, seed, config)
    offset = random.Random(seed).randrange(gap)
    slate = [offset + j * gap for j in range(c + 1)]
    election = restrict_to_candidates(society, slate)
    coloring = greedy_interval_coloring(election).assignment
    return {
        "restrict": dumps_society(election).encode(),
        "tally": json.dumps(agreement(election).to_obj(), separators=(",", ":")).encode(),
        "graph": agreement_graph(election).to_json().encode(),
        "coloring": json.dumps([coloring[v] for v in election.voter_ids()]).encode(),
    }


GOLDEN = {
    "generate-line": "f7ec763087d3a0b0fe406765ae3bdf7d04f3dd8ff77ee24d3270bd81fb49acb4",
    "generate-candidates": "20b97f83a3af8ec16d7d3353888cef87203e9c1e80009348f04a234d08af0131",
    "generate-box2": "c904a712b41d0040e06466e33527f533db611f4cddd58fdffb486c242c6c470d",
    "generate-box3": "1942d032fbe7ea221bad35aa2c69ab3e6f36832314f0df73521d23eb342801f2",
    "generate-extremal": "406257266a698af2fbc31db6f19387a31b0719ddf1c5cc1acc3be3ed9df24cd7",
    "generate-box3-20000": "8eef4b0428e80a1ed3f6a8519d0c35084b90b5493651cae91947de0e356d808b",
    "generate-candidates-20000": "1b03796413dc41ba63bf1d6cfabb06d6a8324733695701aca4539735be64576a",
    "dumps-line-bulk": "f070056c1b1ccc1443e55de1e3dc7ecda233da33f4e634d55233d44dcf495cd1",
    "verify-seed-5": "6568377057478325fc906bb29c5e0418b6963738e59517dd341c0050be3e20a3",
    "verify-seed-11": "166e2e5aa874de80519d01540b6ea4754ef5dd13ef5078896d49a758356a2bc7",
    "analyze-candidates": "82c25ab077b66b272bbd639a63a2800a87b2128a937ccda4d8fa3b44f6eb9db3",
    "analyze-candidates-km-agreeable": "c0a7753af2fbd967d91526a9f14f9fffaee39c786bd5c3e29d417be74bca94be",
    "analyze-candidates-km-witness": "d42a6106fd68d077e5a32217716248242ef2eead44895a0daebfd6f786358be7",
    "analyze-line-km": "100243e4f2888713869d5235c4fe86004262a53920625ace045621771af585db",
    "analyze-mixed-line": "bc0ea92554bb9dd1b4e8af483cf8d95500b914b57d658ced8536e25a19fc46e5",
    "analyze-rational-candidates": "8c06beb7411707a8d4159c39c395c0fe95645aefcc9dd02491c807d3c2242eff",
    "analyze-rational-candidates-km": "3a6fcbe9542af0adc8b67669e829cd19b6582106e53cfa0ff548b46bba278e06",
    "check-box2-agreeable": "448469d4adee071d35fb2fa1e5720376dc1b21b1e9b0f8cc313a283d9aa41bb7",
    "check-box2-witness": "cfec7c972e3d80c9f265dc005127a59509e14aed72974d9f650beb7cd578b953",
    "analyze-box2-agreeable": "1a653a3f4b7ef5fdc20423381b30f3ea67f02ef5303de0f7fd028adc8ba00925",
    "analyze-box2-witness": "dc9933eb5461db5c13b703a2657e29c34b21ae2f6c3446ec4aceb45692841b11",
    "check-box3-agreeable": "448469d4adee071d35fb2fa1e5720376dc1b21b1e9b0f8cc313a283d9aa41bb7",
    "check-box3-witness": "56019c00382b54123a18266f78f0d5f122646410e2f18cf0b5fdc6c2c46e52d8",
    "analyze-box3-agreeable": "bc49ad2f766f0ffa282f190ed1409f457ce573ff775b709612d9490cea710038",
    "analyze-box3-witness": "928783a5e73618d058283d7989a23e05bbcd0fae6945c0b9b8219f8186d148f6",
    "analyze-line-6000-k2": "3ccc486acd8cc31c80e2498f6b797446433d05b7bccc2bdedca969f4365f2f47",
    "check-line-6000-k1": "0ac262b06eb95f032b56cbc5619b646562a116597a27be39d81ff7488a556609",
    "check-line-6000-k2": "0a3ab8f525dc784ad6a7c296fa52227db26dc586ade2a6f351b774dc7195c7be",
    "analyze-dense-box3-witness": "8d5f751e5e3fa1abc73c81fc105f182618b2fc0b80a437ea5cb5e66428790ead",
    "check-dense-box3-witness": "573f0e0d7877add9ffb20ff1ca4668e22c814af15ebebdf9546323bf656c65ea",
    "check-dense-box2-witness": "b9f86875c7382e10fa6ba32f818d2c6f336bf39f0df7ca3979ca7bac74ac6682",
    "analyze-dense-box2-witness": "9878e993c935ed3d801595352d28cb1b79976748c58446317f70d6704b573855",
    "check-dense-box2-agreeable": "d129a1b1d5afc6c2849385eae89d7908076053494a610ab81c712df3dcfc4388",
    "analyze-dense-box2-agreeable": "94484fde617eae8e7881a17d74165de71b13042f5192a9e2a29b4af16e4f87e1",
    "bounds": "3fe994008e44ce634c0a5bb524165b2983b3c4107aa0a2c50566b42e6aa9a084",
    "box-graph-2": "fb29df8fb97a0e13aa5313f92a5c5347c61db9b20f7ecca590a059321dc5b76e",
    "box-graph-3": "bfda762c9cb2e01781e92638b801766adae8728b36bf748b22e7eb102c9c4fc2",
    "box-graph-rational": "0becc66422bb8015f57f07ef121618655fb27619f343ab7a45fcbfd77dc635ee",
    "tour-100-restrict": "f9c03752fd516fd6d94f7702f4843c660e15567b9966ec29bd9aadcd859af560",
    "tour-100-tally": "acd1ea25ff47d52d9a863b6c678e3b36a6bf9abab472a8ee27da6f123353dad7",
    "tour-100-graph": "724dbd4d1c8b30789a0e666918604e5df6ca3c892c57dffa7ec448173bac4ada",
    "tour-100-coloring": "d53d5c7af8fcf290abc5c74f1a1ad9e5fa6bbbe1533aefb19baf1d78703660e5",
    "tour-280-restrict": "86d55d565901d013b676c8fca73e8b6ea819d10405e1245647b15f8dfea23b8b",
    "tour-280-tally": "5ef241f8ae64fb3f2e9fc8c8e8b895a3f5e344d19af84e7e3ddb97aa79e1624e",
    "tour-280-graph": "b7974f009688f12c5de8244039e1d57cc51518d0befd0b0a32f4b66b27b05675",
    "tour-280-coloring": "00625062a3fb18e6317066f63b608c288b654ffbf01739adf0066ce6b8bbd1cc",
    "tour-500-restrict": "3a46fc45430a7515e95b53e4a82ddc9c5c65a55c051a436d811e834f44004428",
    "tour-500-tally": "ee741644642c800176feb6335cfb22ce5d28734fc0dafdb7ae75a94e527cd815",
    "tour-500-graph": "4f44cc1d0a5ef64b7b50fac0ff233352f036c43416b348deb7d14cfd0b01f013",
    "tour-500-coloring": "529654f86079d02c4097cf65b02754bee38d334f35688c6b1a95672889c123c2",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATE) + sorted(VERIFY) + sorted(BOUNDS))
def test_cli_output_digest(name, capsys):
    argv = GENERATE.get(name) or VERIFY.get(name) or BOUNDS[name]
    assert _digest(_run(argv, capsys)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_digest(name, capsys, tmp_path):
    generate_argv, flags = ANALYZE[name]
    path = tmp_path / "society.json"
    path.write_bytes(_run(generate_argv, capsys))
    out = _run(["analyze", str(path), "--format", "json", *flags], capsys)
    assert _digest(out) == GOLDEN[name]


@pytest.mark.parametrize("verdict", ["agreeable", "witness"])
@pytest.mark.parametrize("command", ["check", "analyze"])
@pytest.mark.parametrize("box", sorted(BOX_KM))
def test_box_km_digest(box, command, verdict, capsys, tmp_path):
    generate_argv, agreeable_km, witness_km = BOX_KM[box]
    k, m = agreeable_km if verdict == "agreeable" else witness_km
    path = tmp_path / "society.json"
    path.write_bytes(_run(generate_argv, capsys))
    out = _run([command, str(path), "--format", "json", "--k", str(k), "--m", str(m)], capsys)
    assert _digest(out) == GOLDEN[f"{command}-{box}-{verdict}"]


@pytest.mark.parametrize("flags", [[], ["--k", "3", "--m", "4"]], ids=["plain", "km"])
def test_analyze_rational_candidates_digest(flags, capsys, tmp_path):
    path = tmp_path / "society.json"
    path.write_text(_rational_candidate_document(), encoding="utf-8")
    out = _run(["analyze", str(path), "--format", "json", *flags], capsys)
    name = "analyze-rational-candidates" + ("-km" if flags else "")
    assert _digest(out) == GOLDEN[name]


def test_analyze_mixed_line_digest(capsys, tmp_path):
    path = tmp_path / "society.json"
    path.write_text(_mixed_line_document(), encoding="utf-8")
    out = _run(["analyze", str(path), "--format", "json"], capsys)
    assert _digest(out) == GOLDEN["analyze-mixed-line"]


@pytest.mark.parametrize("name", sorted(LARGE_LINE_RUNS))
def test_large_line_digest(name, capsys, tmp_path):
    path = tmp_path / "society.json"
    path.write_bytes(_run(LARGE_LINE, capsys))
    out = _run([LARGE_LINE_RUNS[name][0], str(path), *LARGE_LINE_RUNS[name][1:]], capsys)
    assert _digest(out) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DENSE_BOX_RUNS))
def test_dense_box_digest(name, capsys, tmp_path):
    path = tmp_path / "society.json"
    path.write_text(dumps_society(box_society(DENSE_BOXES)), encoding="utf-8")
    out = _run([DENSE_BOX_RUNS[name][0], str(path), *DENSE_BOX_RUNS[name][1:]], capsys)
    assert _digest(out) == GOLDEN[name]


def test_dense_box_good_set_counts():
    society = box_society(DENSE_BOXES)
    counts = [good_set_count(society, size) for size in range(1, 6)]
    assert counts == [30, 391, 3_122, 17_404, 72_436]


@pytest.mark.parametrize("name", sorted(DENSE_BOX2_RUNS))
def test_dense_box2_digest(name, capsys, tmp_path):
    path = tmp_path / "society.json"
    path.write_bytes(_run(DENSE_BOX2, capsys))
    out = _run([DENSE_BOX2_RUNS[name][0], str(path), *DENSE_BOX2_RUNS[name][1:]], capsys)
    assert _digest(out) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(BOX_GRAPHS))
def test_box_graph_digest(name):
    d, n, seed = BOX_GRAPHS[name]
    config = RandomConfig(coord_min=0, coord_max=17, min_length=0, max_length=5, empty_percent=10, dimension=d)
    graph = agreement_graph(random_society("box", n, seed, config))
    assert _digest(graph.to_json().encode()) == GOLDEN[name]


def test_line_bulk_document_digest():
    assert _digest(_line_bulk_document()) == GOLDEN["dumps-line-bulk"]


def test_rational_box_graph_digest():
    assert _digest(_rational_box_graph()) == GOLDEN["box-graph-rational"]


@pytest.mark.parametrize("n,c,seed", TOURS, ids=[f"n{n}" for n, _, _ in TOURS])
def test_tour_digest(n, c, seed):
    for part, data in _tour(n, c, seed).items():
        assert _digest(data) == GOLDEN[f"tour-{n}-{part}"], part
