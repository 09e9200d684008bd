"""The value types keep the contract of the frozen dataclasses they replace.

Each value reachable from a society and its ``agreement``,
``is_km_agreeable`` and ``bound_sheet`` results, and one instance of every
other value type, is checked against a frozen dataclass built with the same
name and field values: same ``repr``, same hash (the hash of the field
tuple), read-only fields, and ``pickle`` and ``copy.deepcopy`` round trips.
Every constructor keeps the dataclass's parameters, in slot order, with
their defaults.
"""

import copy
import dataclasses
import functools
import importlib
import inspect
import pickle
import pkgutil

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import agreeable
from agreeable import (
    AgreeParams,
    RandomConfig,
    agreement,
    agreement_graph,
    bound_sheet,
    division,
    five_cycle_boxes,
    fractional_helly_bound,
    greedy_interval_coloring,
    is_km_agreeable,
    linear_society,
    restrict_to_candidates,
    two_platform_cover,
)
from agreeable._frozen import Frozen
from agreeable.oracles import brute_min_vertex_cover, check_cover_lemma
from agreeable.verify import PropertyResult, VerifyReport, run_suites

from strategies import pooled_societies


def field_names(value) -> list[str]:
    return [name for name in type(value).__slots__ if name != "__dict__"]


def reachable_values(obj, found: dict) -> None:
    """Every Frozen instance inside ``obj``, keyed by id."""
    if isinstance(obj, Frozen):
        if id(obj) in found:
            return
        found[id(obj)] = obj
        children = [getattr(obj, name) for name in field_names(obj)]
    elif isinstance(obj, (tuple, list, frozenset)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    else:
        return
    for child in children:
        reachable_values(child, found)


@functools.cache
def twin_class(name: str, fields: tuple[str, ...]) -> type:
    return dataclasses.make_dataclass(name, fields, frozen=True)


def dataclass_twin(value):
    """A frozen dataclass instance with ``value``'s class name and field values."""
    names = field_names(value)
    return twin_class(type(value).__qualname__, tuple(names))(*(getattr(value, name) for name in names))


def check_contract(value) -> None:
    twin = dataclass_twin(value)
    assert repr(value) == repr(twin)

    fields = tuple(getattr(value, name) for name in field_names(value))
    try:
        expected_hash = hash(fields)
    except TypeError:  # a dict field: unhashable, as the dataclass was
        expected_hash = None
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected_hash == hash(twin)

    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is type(value)
        assert clone == value and not clone != value
        if expected_hash is not None:
            assert hash(clone) == expected_hash

    for name in field_names(value) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in field_names(value)) == fields


@given(pooled_societies(), st.data())
@settings(max_examples=150, deadline=None)
def test_value_types_keep_the_frozen_dataclass_contract(society, data):
    k = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(k, max(k, society.n)))
    values: dict = {}
    objects = [society, agreement(society)]
    if m <= society.n:
        params = AgreeParams(k, m)
        result = is_km_agreeable(society, params)
        objects += [result, bound_sheet(society, params, agreeability=result)]
    for obj in objects:
        reachable_values(obj, values)
    for value in values.values():
        check_contract(value)


def test_equality_needs_the_same_class():
    params = AgreeParams(2, 3)
    assert params == AgreeParams(2, 3) and params != AgreeParams(2, 4)
    assert params != (2, 3)
    assert params.__eq__((2, 3)) is NotImplemented


def test_verify_reports_stay_mutable():
    report = run_suites("graph", 0, seed=1)
    report.trials = 5
    first = report.results[0]
    first.checked += 1
    assert report.trials == 5 and first.to_obj()["checked"] == first.checked
    assert report == copy.deepcopy(report)
    with pytest.raises(TypeError):
        hash(first)


def frozen_classes() -> set[type]:
    """Every Frozen subclass, once every module of the package is imported."""
    for module in pkgutil.iter_modules(agreeable.__path__):
        if not module.name.startswith("__"):
            importlib.import_module(f"agreeable.{module.name}")
    found: set[type] = set()
    todo = [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls not in found:
                found.add(cls)
                todo.append(cls)
    return found


MUTABLE = {PropertyResult, VerifyReport}


def one_of_each() -> dict:
    """At least one instance of every Frozen subclass, keyed by id: the
    values reachable from the README tour and the five-cycle boxes."""
    society = linear_society([(1, 4), (2, 5), (3, 7), (6, 11), (8, 13), (8, 10), (10, 15)])
    boxes = five_cycle_boxes()
    graph = agreement_graph(boxes)
    election = restrict_to_candidates(society, [3, 9])
    objects = [
        agreement(society),
        agreement(election),
        agreement(boxes),
        is_km_agreeable(society, AgreeParams(3, 4)),
        bound_sheet(society, AgreeParams(2, 3)),
        greedy_interval_coloring(society),
        two_platform_cover(society),
        division(AgreeParams(4, 15)),
        fractional_helly_bound(2, AgreeParams(3, 4)),
        brute_min_vertex_cover(graph),
        check_cover_lemma(graph),
        RandomConfig(coord_max=20, dimension=3),
        society, election, boxes, graph,
    ]
    values: dict = {}
    for obj in objects:
        reachable_values(obj, values)
    return values


def test_every_value_type_keeps_the_frozen_dataclass_contract():
    values = one_of_each().values()
    assert {type(value) for value in values} == frozen_classes() - MUTABLE
    for value in values:
        check_contract(value)


REQUIRED = inspect.Parameter.empty

# Each constructor's parameters, in order, with their defaults.
SIGNATURES = {
    "Interval": {"lo": REQUIRED, "hi": REQUIRED},
    "Box": {"sides": REQUIRED},
    "LineSpectrum": {},
    "CandidateSpectrum": {"candidates": REQUIRED},
    "BoxSpectrum": {"dimension": REQUIRED},
    "Voter": {"id": REQUIRED, "approval": REQUIRED},
    "Society": {"spectrum": REQUIRED, "voters": REQUIRED},
    "AgreementReport": {"agreement_number": REQUIRED, "n": REQUIRED, "witnesses": REQUIRED, "per_candidate": None},
    "TwoPlatformCover": {"x": REQUIRED, "y": REQUIRED, "count_x": REQUIRED, "count_y": REQUIRED},
    "AgreeParams": {"k": REQUIRED, "m": REQUIRED},
    "AgreeabilityResult": {"agreeable": REQUIRED, "params": REQUIRED, "witness": None},
    "Division": {"q": REQUIRED, "rho": REQUIRED},
    "FractionalHellyBound": {"radicand": REQUIRED, "degree": REQUIRED},
    "BoundEntry": {"name": REQUIRED, "applicable": REQUIRED, "value": None, "satisfied": None, "note": ""},
    "BoundSheet": {
        "params": REQUIRED, "n": REQUIRED, "agreement_number": REQUIRED, "vacuous": REQUIRED,
        "entries": REQUIRED, "agreeability_witness": None,
    },
    "Graph": {"vertices": REQUIRED, "edges": REQUIRED},
    "Coloring": {"assignment": REQUIRED},
    "RandomConfig": {
        "coord_min": 0, "coord_max": 12, "min_length": 0, "max_length": 8, "empty_percent": 0,
        "num_candidates": 6, "dimension": 2,
    },
    "CoverCertificate": {"cover": REQUIRED, "size": REQUIRED},
    "CoverLemmaReport": {"hypothesis_holds": REQUIRED, "conclusion_holds": REQUIRED, "cover_size": REQUIRED},
    "PropertyResult": {"suite": REQUIRED, "name": REQUIRED, "checked": 0, "violations": None},
    "VerifyReport": {"seed": REQUIRED, "trials": REQUIRED, "results": REQUIRED},
}


def test_constructor_signatures_are_pinned():
    classes = {cls.__qualname__: cls for cls in frozen_classes()}
    assert classes.keys() == SIGNATURES.keys()
    for name, cls in classes.items():
        params = inspect.signature(cls).parameters.values()
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params), name
        assert [(p.name, p.default) for p in params] == list(SIGNATURES[name].items()), name
        assert [p.name for p in params] == [slot for slot in cls.__slots__ if slot != "__dict__"], name


def test_constructors_take_keywords_and_refuse_bad_arguments():
    report = run_suites("graph", 0, seed=1)
    values = [*one_of_each().values(), report, *report.results]
    assert {type(value) for value in values} == frozen_classes()
    for value in values:
        cls = type(value)
        fields = {name: getattr(value, name) for name in field_names(value)}
        assert cls(**fields) == value
        args = list(fields.values())
        with pytest.raises(TypeError):
            cls(*args, not_a_field=None)
        with pytest.raises(TypeError):
            cls(*args, None)
        required = [name for name, default in SIGNATURES[cls.__qualname__].items() if default is REQUIRED]
        if required:
            with pytest.raises(TypeError):
                cls(**{name: fields[name] for name in required[1:]})
            with pytest.raises(TypeError):
                cls(*args, **{required[0]: fields[required[0]]})
