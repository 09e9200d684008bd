"""Closed-form lower bounds on agreement numbers, in exact arithmetic.

For a (k,m)-agreeable society the guarantees implemented here are:

* line/candidate spectra: agreement number >= ceil((n - rho)/q) where
  m - 1 = (k-1)q + rho with 0 <= rho <= k-2, hence agreement proportion
  >= (k-1)/(m-1);
* d-box spectra: agreement proportion >= 1 - (1 - C(k,d+1)/C(m,d+1))^(1/(d+1))
  (fractional intersection counting), and when m <= 2k-2 the sharper
  agreement number >= n - m + k.

The root in the box-proportion bound is irrational in general, so the
normative comparison is done on (d+1)-th powers of rationals; decimal
digits appear only in display output, as certified enclosures.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from ._frozen import Frozen
from .agreeability import AgreeParams, AgreeabilityResult, is_km_agreeable
from .agreement import AgreementReport, agreement
from .errors import CapExceededError, _require_root_degree
from .society import BoxSpectrum, Society, coord_str


class Division(Frozen):
    """The division with remainder m - 1 = (k-1)*q + rho, 0 <= rho <= k-2."""

    __slots__ = ("q", "rho")


def division(params: AgreeParams) -> Division:
    k, m = params.k, params.m
    if k < 2:
        raise ValueError("division with remainder requires k >= 2")
    q, rho = divmod(m - 1, k - 1)
    return Division(q, rho)


def clique_bound(n: int, params: AgreeParams) -> int:
    """ceil((n - rho)/q): the clique-number guarantee, best possible."""
    if n < params.m:
        raise ValueError(f"need n >= m, got n={n}, m={params.m}")
    div = division(params)
    return -((-(n - div.rho)) // div.q)


def proportion_bound(params: AgreeParams) -> Fraction:
    """(k-1)/(m-1): the agreement-proportion guarantee on the line."""
    if params.k < 2:
        raise ValueError("proportion bound requires k >= 2")
    return Fraction(params.k - 1, params.m - 1)


def nth_root_enclosure(x: Fraction, degree: int, digits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of x**(1/degree) with width 10**-digits.

    Returns rationals (lo, hi) with lo <= x**(1/degree) <= hi, computed by
    integer binary search on t/10**digits; no floating point is involved.
    The roots of 0 and 1 are exact at once, and the root of x < 1 lies in
    [0, 1], so only a radicand above 1 widens the first bracket.  Any other
    radicand raises CapExceededError past ``MAX_ENCLOSURE_DEGREE``.
    """
    if x < 0:
        raise ValueError("radicand must be non-negative")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if x == 0 or x == 1:
        return Fraction(x), Fraction(x)
    _require_root_degree(degree)
    scale = 10**digits
    bound = x.numerator * scale**degree
    hi_int = scale
    while hi_int**degree * x.denominator < bound:
        hi_int *= 2
    lo_int = 0
    # invariant: (lo_int/scale)^degree <= x < ((hi_int+1)/scale)^degree
    while lo_int < hi_int:
        mid = (lo_int + hi_int + 1) // 2
        if mid**degree * x.denominator <= bound:
            lo_int = mid
        else:
            hi_int = mid - 1
    lo = Fraction(lo_int, scale)
    if lo**degree == x:  # root is exactly representable
        return lo, lo
    return lo, Fraction(lo_int + 1, scale)


def decimal_str(value: Fraction, sig_digits: int = 6) -> str:
    """Decimal rendering of a rational, rounded to significant digits."""
    with localcontext() as ctx:
        ctx.prec = sig_digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


class FractionalHellyBound(Frozen):
    """The proportion bound 1 - radicand**(1/degree), kept exact.

    ``radicand`` is 1 - C(k,d+1)/C(m,d+1) and ``degree`` is d+1.  The value
    is irrational in general and is never materialized as a float in
    pass/fail logic: a proportion satisfies the bound iff
    (1 - proportion)**degree <= radicand, a comparison of rationals.
    """

    __slots__ = ("radicand", "degree")

    def satisfied_by(self, proportion: Fraction) -> bool:
        shortfall = 1 - proportion
        if shortfall <= 0:
            return True
        return shortfall**self.degree <= self.radicand

    def enclosure(self, digits: int = 6) -> tuple[Fraction, Fraction]:
        root_lo, root_hi = nth_root_enclosure(self.radicand, self.degree, digits)
        return 1 - root_hi, 1 - root_lo

    def to_obj(self) -> dict:
        # The radicand is rendered before the enclosure, so that a radicand
        # too long to print is refused before the enclosure's work.
        radicand = coord_str(self.radicand)
        lo, hi = self.enclosure()
        return {
            "radicand": radicand,
            "degree": self.degree,
            "enclosure": [decimal_str(lo), decimal_str(hi)],
        }

    def __str__(self) -> str:
        obj = self.to_obj()
        lo, hi = obj["enclosure"]
        return f"1 - ({obj['radicand']})^(1/{self.degree}) in [{lo}, {hi}]"


def fractional_helly_bound(d: int, params: AgreeParams) -> FractionalHellyBound:
    """Agreement-proportion bound for (k,m)-agreeable societies of convex
    sets in d dimensions (verified here on box societies)."""
    k, m = params.k, params.m
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if m <= d:
        raise ValueError(f"need m > d, got m={m}, d={d}")
    # The radicand p/q has p < q, so it prints exactly when its reduced
    # denominator q stays below 10**limit.  C(m, d+1) has about
    # (d+1) log10(m) digits.  It is not built when alpha is 0, nor when q,
    # at least C(m, d+1)/C(k, d+1) >= (m/k)^(d+1)
    # > 2^((d+1)(bit_length(m) - 1 - bit_length(k))), would pass
    # 3.322 * limit bits, hence limit digits.
    good = math.comb(k, d + 1)
    limit = sys.get_int_max_str_digits()
    too_long = f"the fractional_helly bound's radicand has more than {limit} digits"
    if good and limit and (d + 1) * (m.bit_length() - 1 - k.bit_length()) * 1000 >= limit * 3322:
        raise CapExceededError(too_long)
    alpha = Fraction(good, math.comb(m, d + 1)) if good else Fraction(0)
    if limit and alpha.denominator >= 10**limit:
        raise CapExceededError(too_long)
    return FractionalHellyBound(1 - alpha, d + 1)


def small_m_bound(n: int, params: AgreeParams) -> int:
    """n - m + k: valid exactly in the regime k <= m <= 2k-2."""
    k, m = params.k, params.m
    if k < 2:
        raise ValueError("small-m bound requires k >= 2")
    if m > 2 * k - 2:
        raise ValueError(f"bound inapplicable: m={m} > 2k-2={2 * k - 2}")
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    return n - m + k


def bound_values(params: AgreeParams, n: int | None = None, d: int | None = None) -> dict:
    """The bounds for (k, m), n voters and dimension d, keyed and ordered as
    ``agreeable bounds`` prints them.  The one place that decides which
    bounds apply: one whose hypothesis fails maps to a note, a ``str``."""
    k, m = params.k, params.m
    div = division(params)
    values: dict = {"k": k, "m": m, "q": div.q, "rho": div.rho, "proportion_bound": proportion_bound(params)}
    if n is not None:
        values["n"] = n
        values["clique_bound"] = clique_bound(n, params)
        values["small_m_bound"] = small_m_bound(n, params) if m <= 2 * k - 2 else f"needs m <= 2k-2 = {2 * k - 2}"
    if d is not None:
        values["fractional_helly"] = fractional_helly_bound(d, params) if m > d else f"needs m > d={d}"
    return values


class BoundEntry(Frozen):
    __slots__ = ("name", "applicable", "value", "satisfied", "note")
    _defaults = {"value": None, "satisfied": None, "note": ""}

    def to_obj(self) -> dict:
        obj: dict = {"name": self.name, "applicable": self.applicable}
        v = self.value
        if isinstance(v, FractionalHellyBound):
            obj["value"] = v.to_obj()
        elif isinstance(v, Fraction):
            obj["value"] = coord_str(v)
            obj["value_decimal"] = decimal_str(v)
        elif v is not None:
            obj["value"] = v
        if self.satisfied is not None:
            obj["satisfied"] = self.satisfied
        if self.note:
            obj["note"] = self.note
        return obj


class BoundSheet(Frozen):
    """Every applicable guarantee for one (society, k, m), with verdicts.

    ``vacuous`` is set when the society is not (k,m)-agreeable: the
    theorems then promise nothing, and no entry carries a verdict.
    """

    __slots__ = ("params", "n", "agreement_number", "vacuous", "entries", "agreeability_witness")
    _defaults = {"agreeability_witness": None}

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries if e.applicable)

    def to_obj(self) -> dict:
        obj = {
            "k": self.params.k,
            "m": self.params.m,
            "n": self.n,
            "agreement_number": self.agreement_number,
            "agreement_proportion": coord_str(Fraction(self.agreement_number, self.n)),
            "vacuous": self.vacuous,
            "bounds": [e.to_obj() for e in self.entries],
        }
        if self.agreeability_witness is not None:
            obj["agreeability_witness"] = list(self.agreeability_witness)
        return obj


def bound_sheet(
    society: Society,
    params: AgreeParams,
    agreeability: AgreeabilityResult | None = None,
    report: AgreementReport | None = None,
) -> BoundSheet:
    """Evaluate every bound applicable to this society against its
    computed agreement number.

    The agreeability verdict and the agreement report may be passed in to
    avoid recomputing them.
    """
    if params.k < 2:
        raise ValueError("bounds require k >= 2")
    if report is None:
        report = agreement(society)
    n = report.n
    a = report.agreement_number
    proportion = report.proportion

    if agreeability is None:
        agreeability = is_km_agreeable(society, params)
    vacuous = not agreeability.agreeable

    is_box = isinstance(society.spectrum, BoxSpectrum)
    values = bound_values(params, n, society.spectrum.dimension if is_box else None)

    # Each entry's table key, and whether the society meets that bound; the
    # entry is named by the key less "_bound".
    if is_box:
        checks = {"fractional_helly": lambda fh: fh.satisfied_by(proportion), "small_m_bound": lambda sb: a >= sb}
    else:
        checks = {"clique_bound": lambda cb: a >= cb, "proportion_bound": lambda pb: proportion >= pb}
    entries = []
    for key, check in checks.items():
        name, value = key.removesuffix("_bound"), values[key]
        if isinstance(value, str):
            entries.append(BoundEntry(name, False, note=value))
        else:
            entries.append(BoundEntry(name, not vacuous, value, None if vacuous else check(value)))
    return BoundSheet(
        params=params,
        n=n,
        agreement_number=a,
        vacuous=vacuous,
        entries=tuple(entries),
        agreeability_witness=agreeability.witness,
    )
