import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from agreeable import (
    AgreeParams,
    agreement,
    bound_sheet,
    clique_bound,
    division,
    extremal_linear,
    five_cycle_boxes,
    fractional_helly_bound,
    proportion_bound,
    small_m_bound,
)
from agreeable.bounds import decimal_str, nth_root_enclosure
from agreeable.errors import MAX_ENCLOSURE_DEGREE, CapExceededError


def test_division_examples():
    assert division(AgreeParams(4, 15)) == division(AgreeParams(4, 15))
    d = division(AgreeParams(4, 15))
    assert (d.q, d.rho) == (4, 2)
    d = division(AgreeParams(2, 3))
    assert (d.q, d.rho) == (2, 0)
    d = division(AgreeParams(3, 8))
    assert (d.q, d.rho) == (3, 1)
    with pytest.raises(ValueError):
        division(AgreeParams(1, 5))


@given(st.integers(2, 12), st.integers(0, 12))
def test_division_reconstructs(k, extra):
    m = k + extra
    d = division(AgreeParams(k, m))
    assert m - 1 == (k - 1) * d.q + d.rho
    assert 0 <= d.rho <= k - 2
    assert d.q >= 1


def test_clique_bound_examples():
    assert clique_bound(21, AgreeParams(4, 15)) == 5
    assert clique_bound(7, AgreeParams(2, 4)) == 3
    for k in range(2, 7):
        for m in range(k, 8):
            assert clique_bound(m, AgreeParams(k, m)) >= k
    with pytest.raises(ValueError):
        clique_bound(3, AgreeParams(2, 4))


@given(st.integers(2, 8), st.integers(0, 6), st.integers(0, 10))
def test_clique_bound_dominates_proportion(k, extra, slack):
    m = k + extra
    n = m + slack
    cb = clique_bound(n, AgreeParams(k, m))
    assert Fraction(cb) >= Fraction(n * (k - 1), m - 1)


def test_proportion_bound_examples():
    assert proportion_bound(AgreeParams(2, 3)) == Fraction(1, 2)
    assert proportion_bound(AgreeParams(2, 4)) == Fraction(1, 3)
    for k in range(2, 6):
        assert proportion_bound(AgreeParams(k, k)) == 1


def test_fractional_helly_low_dimension():
    fh = fractional_helly_bound(1, AgreeParams(2, 3))
    assert fh.radicand == Fraction(2, 3)
    assert fh.degree == 2
    lo, hi = fh.enclosure()
    expected = 1 - (2 / 3) ** 0.5
    assert float(lo) <= expected <= float(hi)
    assert hi - lo <= Fraction(1, 10**6)
    # strictly weaker than the exact one-dimensional guarantee of 1/2
    assert hi < Fraction(1, 2)


def test_fractional_helly_perfect_power():
    fh = fractional_helly_bound(1, AgreeParams(2, 2))  # radicand 0: bound is 1
    assert fh.radicand == 0
    assert fh.satisfied_by(Fraction(1))
    assert not fh.satisfied_by(Fraction(99, 100))


def test_fractional_helly_d2_value():
    fh = fractional_helly_bound(2, AgreeParams(3, 4))
    assert fh.radicand == Fraction(3, 4)
    assert fh.degree == 3
    lo, hi = fh.enclosure()
    expected = 1 - 0.75 ** (1 / 3)
    assert float(lo) <= expected <= float(hi)


def test_fractional_helly_exact_comparison():
    fh = fractional_helly_bound(1, AgreeParams(2, 3))
    # beta = 1 - sqrt(2/3); a proportion p satisfies iff (1-p)^2 <= 2/3
    just_enough = 1 - Fraction(816496, 10**6)  # (0.816496)^2 < 2/3
    assert fh.satisfied_by(just_enough)
    too_little = 1 - Fraction(816497, 10**6)  # (0.816497)^2 > 2/3
    assert not fh.satisfied_by(too_little)


def test_fractional_helly_trivial_when_k_small():
    fh = fractional_helly_bound(2, AgreeParams(2, 3))  # C(2,3) = 0
    assert fh.radicand == 1
    assert fh.satisfied_by(Fraction(0))


def test_fractional_helly_preconditions():
    with pytest.raises(ValueError):
        fractional_helly_bound(3, AgreeParams(2, 3))
    with pytest.raises(ValueError):
        fractional_helly_bound(0, AgreeParams(2, 3))


def test_fractional_helly_refuses_exactly_the_radicands_too_long_to_print(default_int_digit_limit):
    # The radicand's denominator has over 800 digits, and C(20010, 10001)
    # over 6000, yet the sizes of k, m and d alone refuse neither.
    params = AgreeParams(1002, 3000)
    digits = len(str(fractional_helly_bound(1000, params).radicand.denominator))
    sys.set_int_max_str_digits(digits)
    assert str(fractional_helly_bound(1000, params)).startswith("1 - (")
    sys.set_int_max_str_digits(digits - 1)
    with pytest.raises(CapExceededError, match=f"radicand has more than {digits - 1} digits"):
        fractional_helly_bound(1000, params)
    sys.set_int_max_str_digits(default_int_digit_limit)
    with pytest.raises(CapExceededError, match="radicand has more than 4300 digits"):
        fractional_helly_bound(10000, AgreeParams(10002, 20010))


def test_nth_root_enclosure():
    lo, hi = nth_root_enclosure(Fraction(2), 2, 8)
    assert lo**2 <= 2 <= hi**2
    assert hi - lo == Fraction(1, 10**8)
    lo, hi = nth_root_enclosure(Fraction(27, 8), 3, 6)
    assert lo <= Fraction(3, 2) <= hi
    assert nth_root_enclosure(Fraction(0), 4, 6)[0] == 0


@given(st.fractions(min_value=0, max_value=4, max_denominator=50), st.integers(1, 4))
@settings(max_examples=80)
def test_nth_root_enclosure_brackets(x, degree):
    lo, hi = nth_root_enclosure(x, degree, 5)
    assert lo**degree <= x <= hi**degree


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1)])
def test_nth_root_enclosure_of_zero_and_one_is_exact_at_any_degree(x):
    # At degree 10**6 a bisection step would raise t/10**6 to that power.
    assert nth_root_enclosure(x, 10**6, 6) == (x, x)


def test_nth_root_enclosure_refuses_degrees_past_the_cap(monkeypatch):
    with pytest.raises(CapExceededError, match=f"degree {MAX_ENCLOSURE_DEGREE + 1} exceeds the enclosure cap"):
        nth_root_enclosure(Fraction(1, 2), MAX_ENCLOSURE_DEGREE + 1, 6)
    monkeypatch.setattr("agreeable.errors.MAX_ENCLOSURE_DEGREE", 3)
    assert nth_root_enclosure(Fraction(27, 8), 3, 6) == (Fraction(3, 2), Fraction(3, 2))
    with pytest.raises(CapExceededError, match="a root of degree 4 exceeds the enclosure cap 3"):
        nth_root_enclosure(Fraction(16), 4, 6)


def test_nth_root_enclosure_below_one_starts_from_the_unit_bracket():
    # The root of x < 1 lies in [0, 1]: the same enclosure as a doubling
    # search for the bracket would give.
    assert nth_root_enclosure(Fraction(1, 1000), 3, 6) == (Fraction(1, 10), Fraction(1, 10))
    assert nth_root_enclosure(Fraction(99, 100), 2, 4) == (Fraction(9949, 10000), Fraction(9950, 10000))


def test_decimal_str():
    assert decimal_str(Fraction(1, 2)) == "0.5"
    assert decimal_str(Fraction(4, 7)) == "0.571429"


def test_small_m_bound_examples():
    assert small_m_bound(10, AgreeParams(3, 4)) == 9
    for k in range(2, 6):
        assert small_m_bound(k, AgreeParams(k, k)) == k
    with pytest.raises(ValueError, match="inapplicable"):
        small_m_bound(12, AgreeParams(5, 9))
    with pytest.raises(ValueError):
        small_m_bound(3, AgreeParams(3, 4))


def test_bound_sheet_extremal():
    params = AgreeParams(4, 15)
    sheet = bound_sheet(extremal_linear(21, params), params)
    assert not sheet.vacuous
    entries = {e.name: e for e in sheet.entries}
    assert entries["clique"].value == 5
    assert entries["clique"].satisfied
    assert entries["proportion"].value == Fraction(3, 14)
    assert entries["proportion"].satisfied
    assert sheet.agreement_number == 5
    assert sheet.all_satisfied


def test_bound_sheet_vacuous_on_five_cycle():
    sheet = bound_sheet(five_cycle_boxes(), AgreeParams(2, 2))
    assert sheet.vacuous
    assert sheet.agreeability_witness is not None
    assert all(e.satisfied is None for e in sheet.entries)


def test_bound_sheet_box_entries():
    society = five_cycle_boxes()
    sheet = bound_sheet(society, AgreeParams(2, 3))
    names = [e.name for e in sheet.entries]
    assert names == ["fractional_helly", "small_m"]
    helly = sheet.entries[0]
    small = sheet.entries[1]
    assert not sheet.vacuous  # the 5-cycle is (2,3)-agreeable
    assert helly.applicable and helly.satisfied
    assert not small.applicable and "2k-2" in small.note


def test_bound_sheet_serialization(seven_voter_society):
    sheet = bound_sheet(seven_voter_society, AgreeParams(2, 3))
    obj = sheet.to_obj()
    assert obj["agreement_proportion"] == "4/7"
    assert obj["vacuous"] is False
    assert obj["bounds"][0]["name"] == "clique"
    assert obj["bounds"][1]["value"] == "1/2"

    box_obj = bound_sheet(five_cycle_boxes(), AgreeParams(2, 3)).to_obj()
    helly_value = box_obj["bounds"][0]["value"]
    assert set(helly_value) == {"radicand", "degree", "enclosure"}


def test_bound_sheet_requires_k_at_least_two(seven_voter_society):
    with pytest.raises(ValueError):
        bound_sheet(seven_voter_society, AgreeParams(1, 3))


def test_bounds_hold_on_agreeable_random_societies():
    import random

    from agreeable import is_km_agreeable, random_society, RandomConfig

    config = RandomConfig(coord_min=0, coord_max=6, min_length=3, max_length=8)
    rng = random.Random(11)
    checked = 0
    for trial in range(120):
        n = rng.randint(3, 9)
        k = rng.randint(2, min(4, n))
        m = rng.randint(k, min(6, n))
        society = random_society("line", n, 1000 + trial, config)
        params = AgreeParams(k, m)
        if not is_km_agreeable(society, params).agreeable:
            continue
        report = agreement(society)
        assert report.agreement_number >= clique_bound(n, params)
        assert report.proportion >= proportion_bound(params)
        checked += 1
    assert checked >= 40
