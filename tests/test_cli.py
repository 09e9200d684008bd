import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

from agreeable import box_society, dumps_society, five_cycle_boxes, linear_society, loads_society, save_society
from agreeable.cli import SUITE_CHOICES, main
from agreeable.verify import SUITES


def run_cli(argv, monkeypatch=None, stdin_text=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_text(tmp_path, capsys, consensus_candidate_society):
    path = str(tmp_path / "s.json")
    save_society(consensus_candidate_society, path)
    code, out, _ = run_cli(["analyze", path], capsys=capsys)
    assert code == 0
    assert "agreement number: 6" in out
    assert "agreement proportion: 1" in out


def test_analyze_json_with_bounds(tmp_path, capsys, seven_voter_society):
    path = str(tmp_path / "s.json")
    save_society(seven_voter_society, path)
    code, out, _ = run_cli(["analyze", path, "--k", "2", "--m", "3", "--format", "json"], capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["agreement_number"] == 4
    assert obj["agreement_proportion"] == "4/7"
    assert obj["bound_sheet"]["bounds"][1]["value"] == "1/2"
    assert obj["bound_sheet"]["bounds"][1]["satisfied"] is True


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["analyze", str(path)], capsys=capsys)
    assert code == 2
    assert "line" in err


def test_analyze_invalid_society(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text('{"spectrum": "line", "voters": [{"id": "v1", "interval": [3, 1]}]}')
    code, _, err = run_cli(["analyze", str(path)], capsys=capsys)
    assert code == 2
    assert "lo > hi" in err


@pytest.mark.parametrize("candidates", ["5", '"1,2"', '{"a": 1}', "null"], ids=["int", "string", "object", "null"])
def test_analyze_rejects_non_list_candidates(tmp_path, capsys, candidates):
    path = tmp_path / "bad.json"
    path.write_text('{"spectrum": {"candidates": %s}, "voters": []}' % candidates, encoding="utf-8")
    code, out, err = run_cli(["analyze", str(path)], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: spectrum 'candidates' must be a list\n"


@pytest.mark.parametrize("literal", ["1e1000000000", "1e-1000000000", '"1e1000000000"'])
def test_analyze_refuses_numbers_expanding_past_the_digit_limit(tmp_path, capsys, default_int_digit_limit, literal):
    path = tmp_path / "huge.json"
    path.write_text('{"spectrum": "line", "voters": [{"id": "v1", "interval": [0, %s]}]}' % literal, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(["analyze", str(path)], capsys=capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert "expands to more than 4300 digits" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(["analyze", "/nonexistent/file.json"], capsys=capsys)
    assert code == 2


def test_analyze_needs_both_k_and_m(tmp_path, capsys, seven_voter_society):
    path = str(tmp_path / "s.json")
    save_society(seven_voter_society, path)
    code, _, err = run_cli(["analyze", path, "--k", "2"], capsys=capsys)
    assert code == 2
    assert "--m" in err


def test_generate_pipes_into_analyze(monkeypatch, capsys):
    code, generated, _ = run_cli(
        ["generate", "extremal", "--n", "21", "--k", "4", "--m", "15"], capsys=capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["analyze", "-", "--k", "4", "--m", "15"],
        monkeypatch=monkeypatch,
        stdin_text=generated,
        capsys=capsys,
    )
    assert code == 0
    assert "agreement number: 5" in out
    assert "clique: 5 -> satisfied" in out


def test_generate_clique_isolated_analyzes_to_nine(monkeypatch, capsys):
    code, generated, _ = run_cli(
        ["generate", "clique-isolated", "--n", "10", "--k", "3", "--m", "4"], capsys=capsys
    )
    assert code == 0
    code, out, _ = run_cli(
        ["analyze", "-"], monkeypatch=monkeypatch, stdin_text=generated, capsys=capsys
    )
    assert "agreement number: 9" in out


def test_generate_clique_isolated_refuses_as_the_small_m_bound(capsys):
    code, out, err = run_cli(["generate", "clique-isolated", "--n", "10", "--k", "3", "--m", "5"], capsys=capsys)
    assert (code, out, err) == (2, "", "error: bound inapplicable: m=5 > 2k-2=4\n")


def test_generate_five_cycle(tmp_path, capsys):
    out_path = tmp_path / "ring.json"
    code, _, _ = run_cli(["generate", "five-cycle-boxes", "--out", str(out_path)], capsys=capsys)
    assert code == 0
    assert out_path.read_text() == dumps_society(five_cycle_boxes())


def test_generate_random_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["generate", "random", "--kind", "line", "--n", "12", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "shape", [["--kind", "box", "--d", "0"], ["--kind", "candidates", "--num-candidates", "0"]], ids=["box-d0", "no-candidates"]
)
def test_generate_random_refuses_shapes_that_cannot_validate(capsys, shape):
    code, out, err = run_cli(["generate", "random", "--n", "3", "--seed", "1", *shape], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_generate_random_line_ignores_box_dimension(capsys):
    code, out, _ = run_cli(["generate", "random", "--kind", "line", "--d", "0", "--n", "3", "--seed", "1"], capsys=capsys)
    assert code == 0
    assert loads_society(out).n == 3


def test_generate_invalid_params(capsys):
    code, _, err = run_cli(
        ["generate", "extremal", "--n", "3", "--k", "2", "--m", "5"], capsys=capsys
    )
    assert code == 2
    assert "error" in err


def test_analyze_with_bounds_validates_once(tmp_path, capsys, monkeypatch, seven_voter_society):
    import agreeable.society as society_mod

    calls = []
    real_validate = society_mod.validate
    monkeypatch.setattr(society_mod, "validate", lambda s: calls.append(s) or real_validate(s))
    path = str(tmp_path / "s.json")
    save_society(seven_voter_society, path)
    code, out, _ = run_cli(["analyze", path, "--k", "2", "--m", "3", "--format", "json"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["bound_sheet"]
    assert len(calls) == 1


def test_check_command(tmp_path, capsys, seven_voter_society):
    path = str(tmp_path / "s.json")
    save_society(seven_voter_society, path)
    code, out, _ = run_cli(["check", path, "--k", "2", "--m", "3"], capsys=capsys)
    assert code == 0
    assert "yes" in out
    code, out, _ = run_cli(
        ["check", path, "--k", "3", "--m", "4", "--format", "json"], capsys=capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["agreeable"] is False
    assert obj["witness"] == ["v1", "v2", "v4", "v5"]


def test_check_deep_search_needs_no_recursion(tmp_path):
    # m = n = 1200 puts the subset search 1200 levels deep.
    path = tmp_path / "chain.json"
    save_society(linear_society([(2 * i, 2 * i + 1) for i in range(1200)]), str(path))
    result = subprocess.run(
        [sys.executable, "-m", "agreeable", "check", str(path), "--k", "2", "--m", "1200", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    obj = json.loads(result.stdout)
    assert obj["agreeable"] is False
    assert obj["witness"] == [f"v{i + 1}" for i in range(1200)]


DEEP = 100_000
DEEPLY_NESTED = {
    "arrays": "[" * DEEP + "]" * DEEP,
    "objects": '{"a":' * DEEP + "0" + "}" * DEEP,
    "voters": '{"spectrum": "line", "voters": ' + "[" * DEEP + "]" * DEEP + "}",
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", [["analyze"], ["check", "--k", "2", "--m", "3"]], ids=["analyze", "check"])
@pytest.mark.parametrize("document", DEEPLY_NESTED, ids=DEEPLY_NESTED)
def test_deeply_nested_json_is_a_format_error(tmp_path, document, command, source):
    path = tmp_path / "deep.json"
    path.write_text(DEEPLY_NESTED[document], encoding="utf-8")
    name, *options = command
    result = subprocess.run(
        [sys.executable, "-m", "agreeable", name, str(path) if source == "file" else "-", *options],
        input=DEEPLY_NESTED[document] if source == "stdin" else None,
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: JSON nested too deeply\n")


# A format error names the offending value cut to 40 characters: here a
# spectrum nested 900 deep, and a 10**5-element list and a 10**5-character
# string in a coordinate's place (the parser's own message is cut to 80).
LONG_VALUES = {
    "spectrum": ('{"spectrum": ' + "[" * 900 + "]" * 900 + ', "voters": []}', "unknown spectrum " + "[" * 37 + "..."),
    "coordinate": (
        '{"spectrum": "line", "voters": [{"id": "v1", "interval": [0, [' + ", ".join(["1"] * 10**5) + "]]}]}",
        "coordinate " + repr([1] * 20)[:37] + "... is not a number or 'p/q' string",
    ),
    "string": (
        '{"spectrum": "line", "voters": [{"id": "v1", "interval": [0, "' + "x" * 10**5 + '"]}]}',
        "bad coordinate string '" + "x" * 36 + "...: Invalid literal for Fraction: '" + "x" * 46 + "...",
    ),
}


@pytest.mark.parametrize("value", sorted(LONG_VALUES))
def test_format_errors_cut_long_values(tmp_path, value):
    document, message = LONG_VALUES[value]
    path = tmp_path / "long.json"
    path.write_text(document, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "agreeable", "analyze", str(path)], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


def test_check_stops_at_the_node_budget():
    # C(20, 17) = 1140 passes the cap, but the search needs more than
    # 8 * 1140 nodes to prove this 2-box society (4,17)-agreeable; with the
    # default cap it answers yes.  (A line or slate society would be
    # answered by the track greedy without a search.)
    cli = [sys.executable, "-m", "agreeable"]
    society = subprocess.run(
        [*cli, "generate", "random", "--kind", "box", "--d", "2", "--n", "20", "--seed", "2",
         "--coord-max", "40", "--max-length", "14"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    result = subprocess.run(
        [*cli, "check", "-", "--k", "4", "--m", "17"],
        input=society,
        capture_output=True,
        text=True,
        env={**os.environ, "AGREE_MAX_SUBSETS": "1140"},
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: subset search exceeded 9120 nodes\n"


def test_check_refuses_box_society_past_the_voter_cap(tmp_path, capsys):
    path = str(tmp_path / "boxes.json")
    save_society(box_society([((0, 1), (0, 1))] * 31), path)
    code, out, err = run_cli(["check", path, "--k", "2", "--m", "3"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "box societies are capped at 30 voters, got 31" in err


def test_check_answers_one_box_society_past_the_box_voter_cap(tmp_path, capsys):
    # A 1-box is the line it encodes, so the box voter cap does not apply:
    # 31 pairwise-disjoint 1-boxes are not (2,3)-agreeable, and the subset
    # search finds the witness behind the C(n, m) gate, as on a line.
    path = str(tmp_path / "one_boxes.json")
    save_society(box_society([((2 * i, 2 * i + 1),) for i in range(31)]), path)
    code, out, err = run_cli(["check", path, "--k", "2", "--m", "3"], capsys=capsys)
    assert (code, out, err) == (0, "(2,3)-agreeable: no (witness v1,v2,v3)\n", "")
    save_society(box_society([((0, 1),)] * 31), path)
    code, out, err = run_cli(["check", path, "--k", "2", "--m", "3"], capsys=capsys)
    assert (code, out, err) == (0, "(2,3)-agreeable: yes\n", "")


def test_analyze_one_box_society_past_the_box_voter_cap(tmp_path, capsys):
    path = str(tmp_path / "one_boxes.json")
    save_society(box_society([((0, 1),)] * 31), path)
    code, out, err = run_cli(["analyze", path, "--format", "json"], capsys=capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert (obj["agreement_number"], obj["witnesses"]) == (31, [[0]])


def test_bounds_command(capsys):
    code, out, _ = run_cli(
        ["bounds", "--k", "4", "--m", "15", "--n", "21", "--format", "json"], capsys=capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 4 and obj["rho"] == 2
    assert obj["clique_bound"] == 5
    assert obj["proportion_bound"] == "3/14"

    code, out, _ = run_cli(["bounds", "--k", "2", "--m", "3", "--d", "1"], capsys=capsys)
    assert code == 0
    assert "fractional_helly" in out


def test_bounds_text_prints_the_fractional_helly_bound(capsys):
    code, out, _ = run_cli(["bounds", "--k", "4", "--m", "15", "--n", "21", "--d", "2"], capsys=capsys)
    assert code == 0
    assert "fractional_helly: 1 - (451/455)^(1/3) in [0.002939, 0.00294]\n" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_refuses_a_bound_past_the_digit_limit(capsys, default_int_digit_limit, fmt):
    # C(20010, 10001) has over 6000 digits: nothing is printed, not even the
    # bounds before the fractional Helly one.
    argv = ["bounds", "--k", "10002", "--m", "20010", "--d", "10000", "--format", fmt]
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: the fractional_helly bound's radicand has more than 4300 digits\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_refuses_a_long_radicand_before_its_enclosure(capsys, default_int_digit_limit, fmt):
    # Degree 50 000 is within the enclosure cap, but the radicand has over
    # 80 000 digits: enclosing its root first would take seconds.
    argv = ["bounds", "--k", "50000", "--m", "1000000", "--d", "49999", "--format", fmt]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys=capsys)
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (2, "", "error: the fractional_helly bound's radicand has more than 4300 digits\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_refuses_a_long_radicand_before_building_it(monkeypatch, capsys, default_int_digit_limit, fmt):
    # C(10**200, 50000) would have about 10**7 digits and take over half a
    # minute to build: the sizes of m, k and d alone refuse it.
    built, comb = [], math.comb
    monkeypatch.setattr(math, "comb", lambda n, r: built.append(n) or comb(n, r))
    argv = ["bounds", "--k", "50000", "--m", str(10**200), "--d", "49999", "--format", fmt]
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out, err) == (2, "", "error: the fractional_helly bound's radicand has more than 4300 digits\n")
    assert 10**200 not in built


BOUNDS_WITH_NO_GOOD_SETS = {
    "text": (
        "k: 3\nm: 100000000\nq: 49999999\nrho: 1\nproportion_bound: 2/99999999\n"
        "fractional_helly: 1 - (1)^(1/400001) in [0, 0]\n"
    ),
    "json": (
        '{"k":3,"m":100000000,"q":49999999,"rho":1,"proportion_bound":"2/99999999",'
        '"fractional_helly":{"radicand":"1","degree":400001,"enclosure":["0","0"]}}\n'
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_with_no_good_sets_answers_at_once(capsys, fmt):
    # C(3, 400001) = 0, so the radicand is exactly 1: neither C(10**8, 400001)
    # (seconds to build) nor a bisection at degree 400001 is needed.
    argv = ["bounds", "--k", "3", "--m", "100000000", "--d", "400000", "--format", fmt]
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out, err) == (0, BOUNDS_WITH_NO_GOOD_SETS[fmt], "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_refuses_an_enclosure_past_the_degree_cap(capsys, fmt):
    # The radicand 80001000002/80001000003 is neither 0 nor 1: its root of
    # degree 400001 would take over half a minute to enclose.
    argv = ["bounds", "--k", "400001", "--m", "400003", "--d", "400000", "--format", fmt]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys=capsys)
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (2, "", "error: a root of degree 400001 exceeds the enclosure cap 50000\n")


def test_verify_command_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "graph", "--trials", "10", "--seed", "1"], capsys=capsys)
    assert code == 0
    assert "RESULT PASS" in out


def test_verify_detects_corruption(monkeypatch, capsys, tmp_path):
    # verify reads the bound verdicts from the bound sheet.
    import agreeable.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "proportion_bound", lambda p: 2)
    argv = ["verify", "--suite", "linear", "--trials", "20", "--seed", "1", "--failure-dir", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys=capsys)
    assert code == 1
    assert "FAIL" in out
    assert "violation:" in out
    assert list(tmp_path.glob("linear_*.json"))


def test_verify_writes_nothing_without_failure_dir(monkeypatch, capsys, tmp_path):
    import agreeable.bounds as bounds_mod

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bounds_mod, "proportion_bound", lambda p: 2)
    code, out, _ = run_cli(["verify", "--suite", "linear", "--trials", "20", "--seed", "1"], capsys=capsys)
    assert code == 1
    assert "violation:" in out
    assert list(tmp_path.iterdir()) == []


def test_verify_refuses_negative_trials(capsys):
    code, out, err = run_cli(["verify", "--trials", "-1", "--suite", "graph"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "trials must be >= 0" in err


def test_suite_choices_match_verify():
    assert SUITE_CHOICES == ("all",) + SUITES


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "box", "--trials", "5", "--seed", "2", "--format", "json"],
        capsys=capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["properties"]


def test_unknown_flags_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "x.json", "--bogus"])
    assert exc.value.code == 2


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "agreeable", "bounds", "--k", "2", "--m", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "proportion_bound: 1/2" in result.stdout
