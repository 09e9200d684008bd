"""Exact agreement analysis for interval and box approval societies.

A society pairs a spectrum of platforms with voters whose approval sets
are closed intervals (on a line or a finite candidate slate) or
axis-aligned boxes.  The package computes agreement numbers and witnesses
exactly, decides (k,m)-agreeability, evaluates the associated
lower-bound guarantees, and ships brute-force oracles plus seeded
property suites that re-verify every claim on demand.

Public names load their modules on first use (PEP 562), so a command that
needs only the loader and the sweep never imports the search, graph,
generator or verification code.
"""

from importlib import import_module

# Bound eagerly: the function shares its name with the ``agreement``
# submodule, and importing that submodule binds the module in this
# namespace unless the function already sits there.
from .agreement import agreement

__version__ = "0.1.0"

_MODULE_OF = {
    "AgreeParams": "agreeability",
    "AgreeabilityResult": "agreeability",
    "is_km_agreeable": "agreeability",
    "pigeonhole_sufficient": "agreeability",
    "AgreementReport": "agreement",
    "TwoPlatformCover": "agreement",
    "agreement": "agreement",
    "common_platform": "agreement",
    "good_set_count": "agreement",
    "good_set_lower_bound": "agreement",
    "two_platform_cover": "agreement",
    "BoundEntry": "bounds",
    "BoundSheet": "bounds",
    "Division": "bounds",
    "FractionalHellyBound": "bounds",
    "bound_sheet": "bounds",
    "clique_bound": "bounds",
    "division": "bounds",
    "fractional_helly_bound": "bounds",
    "proportion_bound": "bounds",
    "small_m_bound": "bounds",
    "CapExceededError": "errors",
    "RandomConfig": "generators",
    "clique_plus_isolated": "generators",
    "disjoint_cliques": "generators",
    "extremal_linear": "generators",
    "five_cycle_boxes": "generators",
    "random_graph": "generators",
    "random_society": "generators",
    "Coloring": "graphs",
    "Graph": "graphs",
    "agreement_graph": "graphs",
    "clique_number_linear": "graphs",
    "greedy_interval_coloring": "graphs",
    "Box": "society",
    "BoxSpectrum": "society",
    "CandidateSpectrum": "society",
    "Coord": "society",
    "Interval": "society",
    "LINE": "society",
    "LineSpectrum": "society",
    "Society": "society",
    "SocietyFormatError": "society",
    "Voter": "society",
    "box_society": "society",
    "candidate_society": "society",
    "dumps_society": "society",
    "linear_society": "society",
    "load_society": "society",
    "loads_society": "society",
    "make_box": "society",
    "make_interval": "society",
    "restrict_to_candidates": "society",
    "save_society": "society",
    "to_box_society": "society",
    "validate": "society",
}

__all__ = sorted(_MODULE_OF)

# Reachable as attributes after ``import agreeable`` alone, as when the
# package imported them all.
_SUBMODULES = {"agreeability", "bounds", "cli", "errors", "generators", "graphs", "oracles", "society", "verify"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
