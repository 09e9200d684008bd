import importlib
import json

import pytest

import agreeable.verify as verify_mod
from agreeable import AgreementReport
from agreeable.graphs import Graph
from agreeable.verify import child_seed, run_suites


def test_all_suites_pass():
    report = run_suites("all", 30, seed=7)
    assert report.ok
    assert len(report.results) >= 20
    assert all(r.checked > 0 for r in report.results)


def test_reports_are_deterministic():
    a = run_suites("all", 20, seed=3)
    b = run_suites("all", 20, seed=3)
    assert a.to_obj() == b.to_obj()
    c = run_suites("all", 20, seed=4)
    assert c.to_obj() != a.to_obj()


def test_single_suite_selection():
    report = run_suites("graph", 10, seed=1)
    assert {r.suite for r in report.results} == {"graph"}
    with pytest.raises(ValueError):
        run_suites("nope", 10, seed=1)


def test_harness_detects_mutations(monkeypatch, tmp_path):
    # corrupt one bound of the bound sheet: every violation must be caught and recorded
    monkeypatch.setattr(importlib.import_module("agreeable.bounds"), "clique_bound", lambda n, p: n + 1)
    report = run_suites("linear", 25, seed=2, failure_dir=str(tmp_path))
    assert not report.ok
    broken = [r for r in report.results if not r.ok]
    assert any(r.name == "agreeable-societies-meet-linear-bounds" for r in broken)
    dumps = list(tmp_path.glob("linear_*.json"))
    assert dumps, "failing instances should be written for replay"
    json.loads(dumps[0].read_text())  # replayable JSON


def test_recorder_makes_detail_and_artifact_only_for_a_failed_check(tmp_path):
    def unused() -> str:
        raise AssertionError("called for a passing check")

    rec = verify_mod._Recorder("linear", str(tmp_path))
    rec.check("p", True, unused, unused)
    rec.check("p", False, lambda: "detail", lambda: "{}")
    (result,) = rec.ordered()
    assert (result.checked, result.violations) == (2, ["detail"])
    assert [f.name for f in tmp_path.iterdir()] == ["linear_p_1.json"]
    assert (tmp_path / "linear_p_1.json").read_text() == "{}"


def test_failing_seed_is_reported(monkeypatch):
    monkeypatch.setattr(verify_mod, "brute_line_agreement", lambda s: AgreementReport(-1, s.n, ()))
    report = run_suites("linear", 5, seed=2)
    sweep = [r for r in report.results if r.name == "sweep-matches-endpoint-oracle"][0]
    assert sweep.violations
    assert all("seed=" in v for v in sweep.violations)


@pytest.mark.parametrize(
    "oracle, wrong",
    [("brute_box_depth", lambda s: AgreementReport(0, s.n, ())), ("brute_platform_masks", lambda s: [])],
)
def test_box_property_compares_the_grid_oracles(monkeypatch, oracle, wrong):
    monkeypatch.setattr(verify_mod, oracle, wrong)
    report = run_suites("box", 6, seed=1)
    depth = next(r for r in report.results if r.name == "box-depth-equals-brute-clique")
    assert depth.checked == 6
    assert len(depth.violations) == 6


def test_box_property_compares_the_pairwise_graph(monkeypatch):
    monkeypatch.setattr(verify_mod, "brute_interval_graph", lambda s: Graph((), frozenset()))
    report = run_suites("box", 6, seed=1)
    depth = next(r for r in report.results if r.name == "box-depth-equals-brute-clique")
    assert depth.checked == 6
    assert len(depth.violations) == 6
    assert all("pairwise_oracle=False" in v for v in depth.violations)


def test_child_seed_is_stable():
    assert child_seed(1, "linear-society", 0) == child_seed(1, "linear-society", 0)
    assert child_seed(1, "linear-society", 0) != child_seed(1, "linear-society", 1)
    assert child_seed(1, "linear-society", 0) != child_seed(2, "linear-society", 0)


def test_sweep_property_compares_witnesses(monkeypatch):
    # Not ``import agreeable.agreement as ...``: that name is the function.
    agreement_mod = importlib.import_module("agreeable.agreement")
    real_sweep = agreement_mod._sweep
    monkeypatch.setattr(agreement_mod, "_sweep", lambda *args: (real_sweep(*args)[0], ()))
    report = run_suites("linear", 10, seed=1)
    sweep = next(r for r in report.results if r.name == "sweep-matches-endpoint-oracle")
    assert sweep.checked == 10
    assert len(sweep.violations) == 10


def test_linear_suite_validates_each_society_once(monkeypatch):
    society_mod = importlib.import_module("agreeable.society")
    real_validate = society_mod.validate
    validated = []  # the societies themselves, so no id is reused

    def counting(society):
        validated.append(society)
        return real_validate(society)

    # Wherever the suite may reach it: through Society.violations or by name.
    monkeypatch.setattr(society_mod, "validate", counting)
    monkeypatch.setattr(verify_mod, "validate", counting, raising=False)
    assert all(r.ok for r in verify_mod.run_linear_suite(6, 1))
    counts = [sum(s is other for other in validated) for s in validated]
    assert len(validated) >= 16
    assert max(counts) == 1


def test_box_suite_counts_good_sets_once_per_society(monkeypatch):
    counted = []
    real = verify_mod.good_set_count
    monkeypatch.setattr(verify_mod, "good_set_count", lambda society: counted.append(society) or real(society))
    report = run_suites("box", 24, seed=1)
    assert report.ok
    good = next(r for r in report.results if r.name == "good-set-counting-inequality")
    assert 0 < len(counted) < good.checked
    assert all(sum(s is other for other in counted) == 1 for s in counted)
