"""Core data model: spectra, approval sets and societies.

A society is a spectrum of platforms together with a finite list of voters,
each carrying an approval set.  Three spectrum kinds are supported:

* the whole real line (approval sets are closed bounded intervals),
* a finite sorted list of candidate platforms (approval sets are the
  candidates falling inside a voter's interval),
* d-dimensional box space (approval sets are axis-aligned boxes).

All coordinates are exact rationals: a whole number is a plain ``int``,
any other value a ``fractions.Fraction`` (both have ``.numerator`` and
``.denominator``, and they compare and hash alike).  Only the ordering of
coordinates ever matters; no metric is used, and closed-set touching
(``[0,1]`` meets ``[1,2]``) must be decided exactly, which is why floats are
banned from interval logic.

Approval sets may be empty; the empty set is represented by ``None`` and
intersects nothing, including itself.  All values are immutable after
construction and safe to share across threads.  The JSON loader builds line
voters as it decodes them: a load peaks at about one society plus its text.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys
from bisect import bisect_left, bisect_right
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property, reduce
from json.encoder import encode_basestring_ascii  # json.dumps's escaper, in C
from typing import IO, Iterable, Iterator, Union

from ._frozen import Frozen
from .errors import _require_box_caps

# The entry points (:func:`as_coord` and the JSON loader) give a whole
# number as an int: int comparisons run in C, Fraction's in Python.
Coord = int | Fraction


def as_coord(value: Union[int, str, Fraction, Decimal]) -> Coord:
    """Convert an exact numeric representation to a coordinate.

    Accepts ints, Fractions, Decimals and strings such as ``"3/4"`` or
    ``"-1.25"``, read as the loader reads a string token (its digit cap,
    its :class:`SocietyFormatError`); a whole number comes back as a plain
    ``int``.  Floats are rejected: binary floats do not round-trip the
    decimal literals they came from, and exactness is a hard requirement.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _integral(value)
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"coordinates must be exact, got {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, (str, Decimal)):
        return _coord_from_string(str(value))
    raise TypeError(f"cannot interpret {value!r} as a coordinate")


def _integral(x: Fraction) -> Coord:
    """The coordinate for ``x``: its numerator when it is a whole number."""
    return x.numerator if x.denominator == 1 else x


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, same values and same errors.

    A ``"p/q"`` of ASCII digits (an optional ``-`` before p, q non-zero) is
    built from its two ints directly, without the regex ``Fraction`` matches
    every string against; any other string goes to ``Fraction(text)``.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if slash and digits.isdigit() and den.isdigit() and text.isascii() and den.strip("0"):
        return Fraction(int(num), int(den))
    return Fraction(text)


def coord_str(c: Coord) -> str:
    """Render a coordinate exactly: plain integer or ``p/q``."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class Interval(Frozen):
    """Closed bounded interval ``[lo, hi]``.

    Instances with ``lo > hi`` can be constructed (input data may be bad);
    :func:`validate` reports them.  The empty approval set is ``None``, not
    an Interval.
    """

    __slots__ = ("lo", "hi")

    def contains(self, p: Coord) -> bool:
        return self.lo <= p <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __str__(self) -> str:
        return f"[{coord_str(self.lo)}, {coord_str(self.hi)}]"


def make_interval(lo, hi) -> Interval:
    return Interval(as_coord(lo), as_coord(hi))


class Box(Frozen):
    """Axis-aligned box: the Cartesian product of per-axis intervals."""

    __slots__ = ("sides",)

    @property
    def dimension(self) -> int:
        return len(self.sides)

    def contains(self, point: tuple[Coord, ...]) -> bool:
        return len(point) == len(self.sides) and all(
            s.contains(x) for s, x in zip(self.sides, point)
        )

    def intersect(self, other: "Box") -> "Box | None":
        if len(self.sides) != len(other.sides):
            raise ValueError("boxes of different dimension")
        sides = []
        for a, b in zip(self.sides, other.sides):
            s = a.intersect(b)
            if s is None:
                return None
            sides.append(s)
        return Box(tuple(sides))

    def __str__(self) -> str:
        return " x ".join(str(s) for s in self.sides)


def make_box(*sides) -> Box:
    return Box(tuple(make_interval(lo, hi) for lo, hi in sides))


# An approval set: interval, box, or the empty set (None).
Approval = Union[Interval, Box, None]


class LineSpectrum(Frozen):
    """Spectrum consisting of every point of the real line."""

    __slots__ = ()
    kind = "line"
    dimension = 1


class CandidateSpectrum(Frozen):
    """Finite spectrum: a strictly increasing list of candidate platforms."""

    __slots__ = ("candidates",)
    kind = "candidates"
    dimension = 1


class BoxSpectrum(Frozen):
    """d-dimensional spectrum; approval sets are d-boxes."""

    __slots__ = ("dimension",)
    kind = "box"


Spectrum = Union[LineSpectrum, CandidateSpectrum, BoxSpectrum]

LINE = LineSpectrum()


class Voter(Frozen):
    __slots__ = ("id", "approval")


class Society(Frozen):
    """A spectrum plus an ordered list of voters with approval sets.

    Voter order is preserved and used for deterministic tie-breaking in
    every downstream computation (sweeps, colorings, witness selection).
    The ``__dict__`` slot holds the cached properties.
    """

    __slots__ = ("spectrum", "voters", "__dict__")

    @property
    def n(self) -> int:
        return len(self.voters)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """:func:`validate`'s findings, computed on first use.

        A society is immutable, so the entry points that require a valid
        society (:func:`require_valid`) share this one check.
        """
        return tuple(validate(self))

    @cached_property
    def _cliques(self) -> tuple[int, ...]:
        """The maximal cliques of the agreement graph as voter bitmasks, most
        voters first (ties by value), built on first use.

        Intervals, candidate runs and boxes have Helly number 2, so these
        are the maximal voter sets that share a platform; voters approving
        nothing are in none.  One :func:`_interval_cliques` sweep of
        :attr:`_spans`, which on a line, a slate or a 1-box is the answer.
        For boxes with d >= 2, under the box caps, each clique so far is
        split by the next axis's sweep (:attr:`_axes`) on its voters.  A
        maximal clique shares a point p, so it lies in the first-axis clique
        holding p's first coordinate, then in a next-axis clique inside that
        one, and so on; a candidate is maximal iff its members' closed
        neighbourhoods (:attr:`_near`) meet in it alone.  Up to n^(d-1)
        restricted sweeps, then O(|C|) mask ANDs per candidate C.  Raises
        ValueError for a malformed society and CapExceededError past the caps.
        """
        require_valid(self)
        d = self.spectrum.dimension
        if d >= 2:
            _require_box_caps(self.n, d)
        first, *further = self._axes
        cliques = _interval_cliques(*first)
        for los, his in further:
            cliques = {
                part
                for clique in cliques
                for part in _interval_cliques([lo if clique >> i & 1 else None for i, lo in enumerate(los)], his)
            }
        cliques = sorted(cliques, key=lambda m: (-m.bit_count(), m))
        if d == 1:
            return tuple(cliques)
        return tuple(c for c in cliques if reduce(operator.and_, map(self._near.__getitem__, _members(c))) == c)

    @cached_property
    def _spans(self) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
        """Each voter's approval as a closed span of ints, built on first
        use: two parallel tuples ``(lo, hi)``, None in both for a voter
        approving nothing.

        On a slate, the indices of the first and the last approved candidate
        (:func:`_candidate_range`); else the :func:`_order_keys` of the ends
        of the interval, or of a box's first side.  Two spans meet iff those
        do, so the sweep, the tally, the graph, the cliques and the coloring
        compare ints only.  Two tuples rather than a pair per voter, so that
        the view allocates nothing per voter.

        :func:`restrict_to_candidates` hands its election this view, so its
        readers call :func:`require_valid` themselves.  Raises ValueError for
        a malformed society.
        """
        require_valid(self)
        spec = self.spectrum
        if isinstance(spec, CandidateSpectrum):
            return tuple(zip(*[_candidate_range(v.approval, spec.candidates) or (None, None) for v in self.voters]))
        if isinstance(spec, BoxSpectrum):
            return _key_spans([None if v.approval is None else v.approval.sides[0] for v in self.voters])
        return _key_spans([v.approval for v in self.voters])

    @cached_property
    def _axes(self) -> tuple[tuple[tuple[int | None, ...], tuple[int | None, ...]], ...]:
        """The span view of every axis, built on first use: :attr:`_spans`,
        then the :func:`_key_spans` of each further box side, each axis keyed
        by its own denominators.  Raises ValueError for a malformed society."""
        axes = [self._spans]
        for axis in range(1, self.spectrum.dimension):
            axes.append(_key_spans([None if v.approval is None else v.approval.sides[axis] for v in self.voters]))
        return tuple(axes)

    @cached_property
    def _near(self) -> tuple[int, ...]:
        """Each voter's closed neighbourhood in the agreement graph as a
        bitmask, built on first use from :func:`_meetings`: 0 for a voter
        approving nothing.  O(n log n + R d) for R first-axis pairs."""
        near = [0 if lo is None else 1 << i for i, lo in enumerate(self._spans[0])]
        for i, run in _meetings(self):
            for j in run:
                near[i], near[j] = near[i] | 1 << j, near[j] | 1 << i
        return tuple(near)

    def voter_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.voters)

    def induced(self, ids: tuple[str, ...] | list[str]) -> "Society":
        """Sub-society on the given voters, preserving society order."""
        wanted = set(ids)
        missing = wanted - set(self.voter_ids())
        if missing:
            raise KeyError(f"unknown voter ids: {sorted(missing)}")
        return Society(self.spectrum, tuple(v for v in self.voters if v.id in wanted))


def linear_society(intervals, ids=None) -> Society:
    """Convenience constructor: a line society from ``(lo, hi)`` pairs.

    ``None`` entries become empty approval sets.  Default ids are v1, v2, ...
    """
    voters = []
    for i, iv in enumerate(intervals):
        vid = ids[i] if ids is not None else f"v{i + 1}"
        voters.append(Voter(vid, iv if iv is None or isinstance(iv, Interval) else make_interval(*iv)))
    return Society(LINE, tuple(voters))


def box_society(boxes, ids=None) -> Society:
    """Convenience constructor: a d-box society from per-voter side lists."""
    dim = None
    voters = []
    for i, b in enumerate(boxes):
        vid = ids[i] if ids is not None else f"v{i + 1}"
        box = b if b is None or isinstance(b, Box) else make_box(*b)
        if dim is None and box is not None:
            dim = box.dimension
        voters.append(Voter(vid, box))
    if dim is None:
        raise ValueError("cannot infer dimension: all approvals empty")
    return Society(BoxSpectrum(dim), tuple(voters))


def candidate_society(candidates, intervals, ids=None) -> Society:
    """Convenience constructor: candidate-spectrum society from intervals."""
    spec = CandidateSpectrum(tuple(as_coord(c) for c in candidates))
    line = linear_society(intervals, ids)
    return Society(spec, line.voters)


def validate(society: Society) -> list[str]:
    """Check every data invariant; return a list of violation descriptions.

    Violations are data, not failures: an empty list means the society is
    well formed.  Each message names the offending voter or spectrum rule.
    Only a str id equal to its sorted neighbour, or an id that is not a str
    (1 == True), can repeat: only those enter the set of ids seen.
    """
    violations: list[str] = []
    spec = society.spectrum

    if isinstance(spec, CandidateSpectrum):
        cs = spec.candidates
        if not cs:
            violations.append("spectrum: candidate list is empty")
        if any(cs[i] >= cs[i + 1] for i in range(len(cs) - 1)):
            violations.append("spectrum: candidates not strictly increasing")
    elif isinstance(spec, BoxSpectrum):
        if spec.dimension < 1:
            violations.append("spectrum: box dimension must be >= 1")

    if society.n < 1:
        violations.append("society has no voters")

    ids = sorted(v.id for v in society.voters if type(v.id) is str)
    repeats = {x for x, y in itertools.pairwise(ids) if x == y}
    repeats.update(v.id for v in society.voters if type(v.id) is not str)
    seen, line = set(), isinstance(spec, (LineSpectrum, CandidateSpectrum))
    for v in society.voters:
        if v.id in repeats:
            if v.id in seen:
                violations.append(f"voter {v.id}: duplicate id")
            seen.add(v.id)

        a = v.approval
        if a is None:
            continue
        if line:
            if not isinstance(a, Interval):
                violations.append(f"voter {v.id}: expected interval approval")
            elif a.lo > a.hi:
                violations.append(f"voter {v.id}: lo > hi")
        else:
            if not isinstance(a, Box):
                violations.append(f"voter {v.id}: expected box approval")
            elif a.dimension != spec.dimension:
                violations.append(f"voter {v.id}: dimension mismatch")
            else:
                for axis, side in enumerate(a.sides):
                    if side.lo > side.hi:
                        violations.append(f"voter {v.id}: lo > hi on axis {axis}")
    return violations


def require_valid(society: Society) -> None:
    """Raise ValueError listing all violations if the society is malformed.

    Reads :attr:`Society.violations`, so a society is validated once however
    many entry points it passes through.
    """
    violations = society.violations
    if violations:
        raise ValueError("invalid society: " + "; ".join(violations))


def _order_keys(values: Iterable[Coord | None], q_max: int = 0) -> list[int | None]:
    """Exact integer order keys: ``keys[i] < keys[j]`` iff ``values[i] < values[j]``.

    Let b be the bit length of ``q_max``, the largest denominator of a set
    holding ``values`` (their own, read first, when 0) and s = 2b + 1; the
    key of x = p/q is floor(x * 2**s) = (p << s) // q.  Two distinct values
    differ by at least 1/(q q') > 2**-2b, so their scaled values differ by
    more than 2 and their floors keep their order: the map is strictly
    monotone, hence injective, and equal values get equal keys.  A None
    value (an empty approval set) keeps None as its key.
    """
    shift = 2 * (q_max or max((x.denominator for x in values if x is not None), default=1)).bit_length() + 1
    return [None if x is None else (x.numerator << shift) // x.denominator for x in values]


def _key_spans(sides: list[Interval | None]) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
    """The :func:`_order_keys` of the ends of each interval on one scale, as
    two parallel tuples ``(lo, hi)``; None in both for None."""
    q_max = max(max((iv.lo.denominator for iv in sides if iv is not None), default=1),
                max((iv.hi.denominator for iv in sides if iv is not None), default=1))
    lo, hi = (None if iv is None else iv.lo for iv in sides), (None if iv is None else iv.hi for iv in sides)
    return tuple(_order_keys(lo, q_max)), tuple(_order_keys(hi, q_max))


def _candidate_range(interval: Interval | None, candidates: tuple[Coord, ...]) -> tuple[int, int] | None:
    """Indices ``(i, j)`` of the first and the last sorted candidate inside a
    closed interval.

    ``candidates[i : j + 1]`` are exactly the candidates the interval
    contains; None when it contains none (or is the empty set).  Two
    bisections, left on the lower end and right on the upper end: O(log c)
    comparisons, so the candidates must be strictly increasing, as
    :func:`validate` requires of a candidate spectrum.
    """
    if interval is None:
        return None
    i = bisect_left(candidates, interval.lo)
    j = bisect_right(candidates, interval.hi, i) - 1
    return (i, j) if i <= j else None


def _interval_cliques(los, his) -> list[int]:
    """The maximal cliques of spans, by one pass over the P distinct left ends.

    A prefix XOR over a difference array gives the mask of the spans holding
    each left end t.  Every clique lies in such a mask.  The mask at t holds
    the spans starting at t, so no earlier mask contains it; it lies in the
    next left end's mask unless one of its spans ends first, that is unless
    t is the last left end at or below some right end.  O(n log n + P).
    """
    lefts = sorted({lo for lo in los if lo is not None})
    diff = [0] * (len(lefts) + 1)
    maximal = bytearray(len(lefts))
    for i, (lo, hi) in enumerate(zip(los, his)):
        if lo is not None:
            last = bisect_right(lefts, hi) - 1
            diff[bisect_left(lefts, lo)] ^= 1 << i
            diff[last + 1] ^= 1 << i
            maximal[last] = 1
    return list(itertools.compress(itertools.accumulate(diff, operator.xor), maximal))


def _members(mask: int) -> Iterator[int]:
    """The voters of a bitmask in ascending order, by a low-bit walk."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _meetings(society: Society) -> Iterator[tuple[int, list[int]]]:
    """Every pair of voters whose approval sets meet, once.

    Each voter with a span, by left span end, comes with the later voters in
    that order whose approval sets meet its own: a contiguous run of
    :attr:`Society._spans` starting at most at its right end, filtered by
    the other axes of :attr:`Society._axes` for boxes with d >= 2, so only
    order keys are compared.  O(n log n + R d) for R first-axis pairs.
    """
    (los, his), *further = society._axes
    order = sorted([i for i, lo in enumerate(los) if lo is not None], key=los.__getitem__)
    starts = [los[i] for i in order]
    runs = [order[p + 1 : bisect_right(starts, his[i], p + 1)] for p, i in enumerate(order)]
    for lo, hi in further:
        runs = [[j for j in run if lo[j] <= hi[i] and lo[i] <= hi[j]] for i, run in zip(order, runs)]
    return zip(order, runs)


def approved_candidates(interval: Interval | None, spectrum: CandidateSpectrum) -> tuple[Coord, ...]:
    """The candidates a voter with this interval approves (a contiguous run)."""
    span = _candidate_range(interval, spectrum.candidates)
    return () if span is None else spectrum.candidates[span[0] : span[1] + 1]


def restrict_to_candidates(society: Society, candidates) -> Society:
    """Restrict a line society to a finite slate of candidate platforms.

    Each approval set becomes the candidates inside the voter's interval,
    stored as the minimal closed interval spanning them (its endpoints are
    candidates, so candidate membership is unchanged).  Voters approving no
    candidate are kept, with empty approval.  O(c log c + n log c), in one
    pass over the voters: each is bisected into the slate once, voters with
    equal spans share one hull, and the election receives those spans as
    its :attr:`Society._spans`.

    It also receives the source's :attr:`Society.violations`, so no reader
    validates it again.  They are its own: every hull is a lo <= hi interval
    of a sorted, non-empty slate, and the ids are the source's in the same
    order, so only the source's duplicate-id and no-voter findings can
    remain.  Raises :func:`require_valid`'s ValueError for a voter that
    approves a box or an interval with lo > hi.
    """
    if not isinstance(society.spectrum, LineSpectrum):
        raise ValueError("restriction applies to line societies only")
    cs = tuple(sorted({as_coord(c) for c in candidates}))
    if not cs:
        raise ValueError("candidate slate is empty")

    los: list[int | None] = []
    his: list[int | None] = []
    voters = []
    hulls: dict[tuple[int, int], Interval] = {}
    for v in society.voters:
        a = v.approval
        if a is None:
            lo = hi = hull = None
        elif isinstance(a, Interval) and a.lo <= a.hi:  # _candidate_range's bisections, inline
            lo = bisect_left(cs, a.lo)
            hi = bisect_right(cs, a.hi, lo) - 1
            if lo > hi:
                lo = hi = hull = None
            else:
                hull = hulls.get((lo, hi))
                if hull is None:
                    hull = hulls[lo, hi] = Interval(cs[lo], cs[hi])
        else:  # an approval no slate can restrict
            require_valid(society)
        los.append(lo)
        his.append(hi)
        voters.append(Voter(v.id, hull))
    election = Society(CandidateSpectrum(cs), tuple(voters))
    election.__dict__["_spans"] = (tuple(los), tuple(his))
    election.__dict__["violations"] = society.violations
    return election


def to_box_society(society: Society) -> Society:
    """View a line society as the equivalent 1-box society."""
    if not isinstance(society.spectrum, LineSpectrum):
        raise ValueError("only line societies convert to 1-box societies")
    voters = tuple(
        Voter(v.id, None if v.approval is None else Box((v.approval,)))
        for v in society.voters
    )
    return Society(BoxSpectrum(1), voters)


# ---------------------------------------------------------------------------
# JSON interchange format (bit-exact):
#
#   {"spectrum": "line" | {"candidates": [c1, c2, ...]} | {"box": d},
#    "voters": [{"id": "v1", "interval": [lo, hi] | null}, ...]         or
#              [{"id": "v1", "box": [[lo1, hi1], ..., [lod, hid]] | null}, ...]}
#
# null means an empty approval set.  Coordinates are JSON numbers (parsed as
# exact decimals, never as binary floats) or "p/q" strings.
# ---------------------------------------------------------------------------


class SocietyFormatError(ValueError):
    """Raised when a society document does not match the JSON contract."""


def _exact_decimal(literal: str) -> Coord:
    """Exact value of a decimal literal such as ``12.25`` or ``5e-3``.

    The value is an integer times a power of ten.  The literal is refused
    when that integer, or the power of ten a negative exponent divides by,
    would have more digits than ``sys.get_int_max_str_digits()`` allows
    (Python's own bound on decimal integer strings; 0 means no bound).  The
    check comes before either is built: ``1e1000000000`` would otherwise
    expand to a billion-digit integer.
    """
    try:
        number = Decimal(literal)
    except InvalidOperation:
        raise SocietyFormatError(f"bad number {literal!r}") from None
    _, digits, exponent = number.as_tuple()
    limit = sys.get_int_max_str_digits()
    if limit and max(len(digits) + max(exponent, 0), 1 - min(exponent, 0)) > limit:
        raise SocietyFormatError(f"number {_cut(literal)} expands to more than {limit} digits")
    return _integral(Fraction(number))


def _cut(text: str, limit: int = 40) -> str:
    """``text`` cut to ``limit`` characters, ending in ``...`` if it was longer."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _coord_from_string(text: str) -> Coord:
    if "e" in text or "E" in text:
        return _exact_decimal(text)
    try:
        return _integral(_fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SocietyFormatError(f"bad coordinate string {_cut(repr(text))}: {_cut(str(exc), 80)}") from exc


def _coord_from_json(value, interned: dict) -> Coord:
    """The coordinate a JSON token stands for.

    A token is an int, a ``"p/q"`` or decimal string, or a JSON number with
    a fraction or exponent, which :func:`_parse_exact` has already made a
    coordinate.  An int token is its own coordinate.  ``interned`` maps each
    int and string token seen so far in the document to its coordinate, so
    a repeated token is converted once and the voters holding it share one
    object.
    """
    # Before the lookup: True == 1 and hash(True) == hash(1).
    if isinstance(value, bool):
        raise SocietyFormatError(f"coordinate {value!r} is not a number")
    if isinstance(value, (int, str)):
        coord = interned.get(value)
        if coord is None:
            coord = interned[value] = value if isinstance(value, int) else _coord_from_string(value)
        return coord
    if isinstance(value, Fraction):
        return _integral(value)
    raise SocietyFormatError(f"coordinate {_cut(repr(value))} is not a number or 'p/q' string")


def _coord_to_json(c: Coord):
    return c.numerator if c.denominator == 1 else coord_str(c)


def _coord_text(c: Coord) -> str:
    """The JSON text of :func:`_coord_to_json`'s value."""
    return f"{c.numerator}" if c.denominator == 1 else f'"{c.numerator}/{c.denominator}"'


def _interval_from_json(value, interned: dict, voter: int, axis: int | None = None) -> Interval | None:
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 2:
        where = f"voters[{voter}]" if axis is None else f"voters[{voter}] axis {axis}"
        raise SocietyFormatError(f"{where}: interval must be [lo, hi] or null")
    return Interval(_coord_from_json(value[0], interned), _coord_from_json(value[1], interned))


def society_from_obj(obj, interned: dict | None = None) -> Society:
    """Build a Society from parsed JSON data (see module-level format); a
    ``voters`` entry may be a ready :class:`Voter`, ``interned`` the token
    table of :func:`_coord_from_json`."""
    if not isinstance(obj, dict):
        raise SocietyFormatError("top level must be an object")
    if "spectrum" not in obj or "voters" not in obj:
        raise SocietyFormatError("missing 'spectrum' or 'voters'")

    interned = {} if interned is None else interned
    raw_spec = obj["spectrum"]
    spectrum: Spectrum
    if raw_spec == "line":
        spectrum = LINE
    elif isinstance(raw_spec, dict) and "candidates" in raw_spec:
        if not isinstance(raw_spec["candidates"], list):
            raise SocietyFormatError("spectrum 'candidates' must be a list")
        spectrum = CandidateSpectrum(tuple(_coord_from_json(c, interned) for c in raw_spec["candidates"]))
    elif isinstance(raw_spec, dict) and "box" in raw_spec:
        d = raw_spec["box"]
        if not isinstance(d, int) or isinstance(d, bool):
            raise SocietyFormatError("box dimension must be an integer")
        spectrum = BoxSpectrum(d)
    else:
        raise SocietyFormatError(f"unknown spectrum {_cut(repr(raw_spec))}")

    if not isinstance(obj["voters"], list):
        raise SocietyFormatError("'voters' must be a list")
    return Society(spectrum, tuple(
        raw if isinstance(raw, Voter) else _voter_from_json(raw, interned, i) for i, raw in enumerate(obj["voters"])
    ))


def _voter_from_json(raw, interned: dict, i: int) -> Voter:
    """The voter that ``voters[i]`` of a document stands for."""
    if not isinstance(raw, dict) or "id" not in raw:
        raise SocietyFormatError(f"voters[{i}]: each voter needs an 'id'")
    vid = raw["id"]
    if not isinstance(vid, str):
        raise SocietyFormatError(f"voters[{i}]: id must be a string")
    if "interval" in raw:
        return Voter(vid, _interval_from_json(raw["interval"], interned, i))
    if "box" not in raw:
        raise SocietyFormatError(f"voters[{i}]: voter needs 'interval' or 'box'")
    rawbox = raw["box"]
    if rawbox is None:
        return Voter(vid, None)
    if not isinstance(rawbox, list):
        raise SocietyFormatError(f"voters[{i}]: box must be a list of sides or null")
    sides = tuple(_interval_from_json(s, interned, i, a) for a, s in enumerate(rawbox))
    if any(s is None for s in sides):
        raise SocietyFormatError(f"voters[{i}]: box sides may not be null")
    return Voter(vid, Box(sides))  # type: ignore[arg-type]


def society_to_obj(society: Society) -> dict:
    """A Society as JSON-ready data in voter order: :func:`dumps_society`'s text, decoded."""
    return json.loads(dumps_society(society))


def _parse_exact(text: str, object_hook=None):
    # JSON numbers with a fraction or exponent become exact rationals, never
    # binary floats; each distinct literal is converted once.
    decimals: dict[str, Coord] = {}

    def exact(literal: str) -> Coord:
        coord = decimals.get(literal)
        if coord is None:
            coord = decimals[literal] = _exact_decimal(literal)
        return coord

    return json.loads(text, parse_float=exact, object_hook=object_hook)


def loads_society(text: str) -> Society:
    """Parse a society document.  Each well-formed line voter, an object
    with exactly the keys ``id`` and ``interval``, becomes a :class:`Voter`
    as the decoder reads it, so no decoded tree stands next to the finished
    society: peak memory is about one society plus the text."""
    interned: dict = {}

    def line_voter(raw: dict):
        if len(raw) == 2 and "id" in raw and "interval" in raw:
            try:
                return _voter_from_json(raw, interned, 0)
            except SocietyFormatError:
                pass  # left a dict: society_from_obj names it with its index
        return raw

    try:
        obj = _parse_exact(text, line_voter)
    except json.JSONDecodeError as exc:
        raise SocietyFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise SocietyFormatError("JSON nested too deeply") from None
    try:
        return society_from_obj(obj, interned)
    except SocietyFormatError:
        # The error may name a Voter built outside 'voters'; decoded without
        # the hook, the document raises it naming the object as written.
        return society_from_obj(_parse_exact(text))


def dumps_society(society: Society) -> str:
    """A Society as compact JSON text and a newline, one f-string per voter:
    the bytes of ``json.dumps(..., separators=(",", ":"))`` on the same data."""
    spec, text, compact = society.spectrum, _coord_text, json.JSONEncoder(separators=(",", ":")).encode
    if isinstance(spec, CandidateSpectrum):
        head = f'{{"candidates":[{",".join(map(text, spec.candidates))}]}}'
    else:
        head = compact("line" if isinstance(spec, LineSpectrum) else {"box": spec.dimension})
    empty = '"box":null' if isinstance(spec, BoxSpectrum) else '"interval":null'
    voters = []
    for v in society.voters:
        vid, a = encode_basestring_ascii(v.id) if type(v.id) is str else compact(v.id), v.approval
        if isinstance(a, Interval):
            voters.append(f'{{"id":{vid},"interval":[{text(a.lo)},{text(a.hi)}]}}')
        elif isinstance(a, Box):
            voters.append(f'{{"id":{vid},"box":[{",".join(f"[{text(s.lo)},{text(s.hi)}]" for s in a.sides)}]}}')
        else:
            voters.append(f'{{"id":{vid},{empty}}}')
    return f'{{"spectrum":{head},"voters":[{",".join(voters)}]}}\n'


def load_society(fp: Union[str, IO[str]]) -> Society:
    """Load a society from a path or an open text file."""
    if isinstance(fp, str):
        with open(fp, "r", encoding="utf-8") as f:
            return loads_society(f.read())
    return loads_society(fp.read())


def save_society(society: Society, fp: Union[str, IO[str]]) -> None:
    text = dumps_society(society)
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        fp.write(text)
