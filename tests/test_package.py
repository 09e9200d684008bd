import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import agreeable
from agreeable import save_society

PUBLIC_NAMES = {
    "AgreeParams", "AgreeabilityResult", "AgreementReport", "BoundEntry", "BoundSheet", "Box",
    "BoxSpectrum", "CandidateSpectrum", "CapExceededError", "Coloring", "Coord", "Division",
    "FractionalHellyBound", "Graph", "Interval", "LINE", "LineSpectrum", "RandomConfig", "Society",
    "SocietyFormatError", "TwoPlatformCover", "Voter", "agreement", "agreement_graph", "bound_sheet",
    "box_society", "candidate_society", "clique_bound", "clique_number_linear", "clique_plus_isolated",
    "common_platform", "disjoint_cliques", "division", "dumps_society", "extremal_linear",
    "five_cycle_boxes", "fractional_helly_bound", "good_set_count", "good_set_lower_bound",
    "greedy_interval_coloring", "is_km_agreeable", "linear_society", "load_society", "loads_society",
    "make_box", "make_interval", "pigeonhole_sufficient", "proportion_bound", "random_graph",
    "random_society", "restrict_to_candidates", "save_society", "small_m_bound", "to_box_society",
    "two_platform_cover", "validate",
}


def run_python(program: str) -> str:
    """Run ``program`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(agreeable.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_star_import_exposes_the_public_names():
    namespace: dict = {}
    exec("from agreeable import *", namespace)
    assert set(agreeable.__all__) == PUBLIC_NAMES
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_public_names_are_the_defining_modules_objects():
    for name in agreeable.__all__:
        value = getattr(agreeable, name)
        defining = [
            m for m in ("agreeability", "agreement", "bounds", "errors", "generators", "graphs", "society")
            if getattr(import_module(f"agreeable.{m}"), name, None) is value
        ]
        assert defining, name


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        agreeable.nope  # noqa: B018
    assert "AgreeParams" in dir(agreeable)


@pytest.mark.parametrize(
    "imports",
    ["import agreeable.agreement", "import agreeable.verify", "from agreeable import agreement", "import agreeable.cli"],
)
def test_agreement_stays_the_function_after_importing_the_submodule(imports):
    program = f"{imports}\nimport agreeable\nimport agreeable.agreement\nprint(type(agreeable.agreement).__name__)"
    assert run_python(program) == "function"


def test_submodules_are_attributes_of_the_package():
    program = "import agreeable\nprint(agreeable.oracles.__name__, agreeable.verify.SUITES, type(agreeable.agreement).__name__)"
    assert run_python(program) == "agreeable.oracles ('linear', 'box', 'graph') function"


SUITE_MODULES = {"verify", "oracles", "generators", "graphs"}


@pytest.mark.parametrize(
    "argv, needed, unneeded",
    [
        (["analyze", "FILE", "--format", "json"], {"agreement", "society"}, SUITE_MODULES),
        (["check", "FILE", "--k", "2", "--m", "3"], {"agreeability", "society"}, SUITE_MODULES | {"bounds"}),
        (["verify", "--trials", "1"], SUITE_MODULES, set()),
    ],
    ids=["analyze", "check", "verify"],
)
def test_analyze_json_imports_only_the_loader_and_sweep(tmp_path, seven_voter_society, argv, needed, unneeded):
    # Each command loads only the modules it runs, and none of them needs
    # the dataclass machinery (``dataclasses`` pulls in ``inspect``).
    path = tmp_path / "s.json"
    save_society(seven_voter_society, str(path))
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    program = (
        "import sys\n"
        "from agreeable.cli import main\n"
        f"code = main({argv!r})\n"
        "watched = [m for m in sys.modules if m.startswith('agreeable') or m in ('dataclasses', 'inspect')]\n"
        "print(code, *sorted(watched))\n"
    )
    code, *loaded = run_python(program).splitlines()[-1].split()
    assert code == "0"
    assert {f"agreeable.{m}" for m in needed} <= set(loaded)
    assert not set(loaded) & {f"agreeable.{m}" for m in unneeded}
    assert not set(loaded) & {"dataclasses", "inspect"}


def test_no_bare_asserts_in_the_package():
    # ``python -O`` strips assert statements, so no check may live in one.
    package = Path(agreeable.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
