"""The value types keep the contract of the frozen dataclasses they replace.

Each value reachable from a society and its ``agreement``,
``is_km_agreeable`` and ``bound_sheet`` results is checked against a frozen
dataclass built with the same name and field values: same ``repr``, same
hash (the hash of the field tuple), read-only fields, and ``pickle`` and
``copy.deepcopy`` round trips.
"""

import copy
import dataclasses
import functools
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from agreeable import AgreeParams, agreement, bound_sheet, is_km_agreeable
from agreeable._frozen import Frozen
from agreeable.verify import run_suites

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
