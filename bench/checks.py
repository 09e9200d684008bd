"""Independent reference computations for checking the program's answers.

Nothing here imports ``agreeable``.  Every answer the benchmark accepts is
compared against one of these functions (or against a property the method
must have), computed from the benchmark's own copy of the inputs:

* line societies: an endpoint sweep of its own, giving the depth and the
  maximal optimal intervals;
* candidate slates: bisect counts over the slate;
* agreement graphs and colorings: intersecting-hull counts by bisect, and
  per-color disjointness;
* 1-D agreeability: the greedy maximum (k-1)-track interval selection by
  right endpoint (Yannakakis & Gavril 1987; Carlisle & Lloyd 1995) plus the
  voters that approve nothing;
* boxes: pairwise intersection, which decides common points because boxes
  have Helly number 2, and exhaustive subset enumeration.

Intervals are ``(lo, hi)`` pairs of Fractions or ints, ``None`` for an empty
approval set; a box is a tuple of such pairs, one per axis.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction


class CheckError(AssertionError):
    """An answer of the program disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def ratio_str(num: int, den: int) -> str:
    f = Fraction(num, den)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_coord(value) -> Fraction:
    """A coordinate as the program prints it in JSON: an int or a "p/q" string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CheckError(f"coordinate {value!r} is neither an int nor a 'p/q' string")
    return Fraction(value)


# ---------------------------------------------------------------------------
# Line societies
# ---------------------------------------------------------------------------


def line_optimum(intervals) -> tuple[int, list[tuple[Fraction, Fraction]]]:
    """Maximum depth of closed intervals and the maximal intervals attaining it.

    Depth at a coordinate counts the intervals with lo <= x <= hi; depth on
    the open gap after x counts those with lo <= x and hi > x.  Touching
    intervals overlap, so every start at x is counted before any end at x.
    """
    spans = [iv for iv in intervals if iv is not None]
    if not spans:
        return 0, []
    events: dict = {}
    for lo, hi in spans:
        events.setdefault(lo, [0, 0])[0] += 1
        events.setdefault(hi, [0, 0])[1] += 1
    xs = sorted(events)
    at_point, on_gap = [], []
    active = 0
    for x in xs:
        active += events[x][0]
        at_point.append(active)
        active -= events[x][1]
        on_gap.append(active)
    best = max(at_point)
    pieces: list[list] = []
    for i, x in enumerate(xs):
        if at_point[i] != best:
            continue
        if not pieces or pieces[-1][1] != x:
            pieces.append([x, x])
        if on_gap[i] == best and i + 1 < len(xs):
            pieces[-1][1] = xs[i + 1]
    return best, [(lo, hi) for lo, hi in pieces]


def cover_count(intervals, lo, hi) -> int:
    """Voters whose interval contains the whole of [lo, hi]."""
    return sum(1 for iv in intervals if iv is not None and iv[0] <= lo and hi <= iv[1])


def check_line_report(obj: dict, intervals) -> None:
    """An ``analyze --format json`` report of a line society."""
    n = len(intervals)
    best, witnesses = line_optimum(intervals)
    require(obj.get("n") == n, f"n={obj.get('n')} expected {n}")
    require(obj.get("agreement_number") == best, f"agreement number {obj.get('agreement_number')} expected {best}")
    require(
        obj.get("agreement_proportion") == ratio_str(best, n),
        f"proportion {obj.get('agreement_proportion')} expected {ratio_str(best, n)}",
    )
    got = [(parse_coord(w[0]), parse_coord(w[1])) for w in obj.get("witnesses", [])]
    require(got == witnesses, f"witnesses {got[:3]}... expected {witnesses[:3]}...")
    for lo, hi in got:
        covered = cover_count(intervals, lo, hi)
        require(covered == best, f"witness [{lo}, {hi}] is covered by {covered} voters, not {best}")


# ---------------------------------------------------------------------------
# Candidate slates
# ---------------------------------------------------------------------------


def hull_indices(intervals, slate) -> list:
    """Per voter, the index range [i, j] of the slate inside its interval, or None."""
    out = []
    for iv in intervals:
        if iv is None:
            out.append(None)
            continue
        i = bisect_left(slate, iv[0])
        j = bisect_right(slate, iv[1]) - 1
        out.append((i, j) if i <= j else None)
    return out


def slate_tally(intervals, slate) -> list[int]:
    """Approvals per candidate, by a difference array over bisect hulls."""
    diff = [0] * (len(slate) + 1)
    for h in hull_indices(intervals, slate):
        if h is not None:
            diff[h[0]] += 1
            diff[h[1] + 1] -= 1
    return list(itertools.accumulate(diff))[: len(slate)]


def check_restriction(restricted, intervals, slate) -> None:
    """``restrict_to_candidates``: each approval becomes its hull on the slate."""
    require(len(restricted) == len(intervals), "restriction changed the number of voters")
    for pos, (got, h) in enumerate(zip(restricted, hull_indices(intervals, slate))):
        expected = None if h is None else (slate[h[0]], slate[h[1]])
        require(got == expected, f"voter {pos}: restricted to {got}, expected {expected}")


def check_tally(per_candidate: dict, agreement_number: int, witnesses, intervals, slate) -> None:
    """A candidate agreement report: tallies, maximum and optimal candidates."""
    tally = slate_tally(intervals, slate)
    require(list(per_candidate) == list(slate), "per-candidate keys differ from the slate")
    got = list(per_candidate.values())
    require(got == tally, f"tallies differ from bisect counts at {[i for i, (a, b) in enumerate(zip(got, tally)) if a != b][:5]}")
    best = max(tally)
    require(agreement_number == best, f"agreement number {agreement_number} expected {best}")
    optimal = [c for c, t in zip(slate, tally) if t == best]
    require(list(witnesses) == optimal, "optimal candidates differ")


def intersecting_pairs(hulls) -> int:
    """Number of pairs of non-empty closed hulls that intersect."""
    spans = [h for h in hulls if h is not None]
    his = sorted(h[1] for h in spans)
    disjoint = sum(bisect_left(his, lo) for lo, _ in spans)
    return len(spans) * (len(spans) - 1) // 2 - disjoint


def check_graph_edges(edges, ids, hulls) -> None:
    """``agreement_graph``: the edge set is exactly the intersecting hull pairs."""
    index = {vid: i for i, vid in enumerate(ids)}
    expected = intersecting_pairs(hulls)
    require(len(edges) == expected, f"{len(edges)} edges, expected {expected}")
    for u, v in edges:
        a, b = hulls[index[u]], hulls[index[v]]
        require(
            a is not None and b is not None and a[0] <= b[1] and b[0] <= a[1],
            f"edge ({u}, {v}) joins voters with disjoint hulls",
        )


def check_coloring(assignment: dict, ids, hulls) -> None:
    """A proper coloring of the hulls with exactly max-depth colors.

    Interval graphs are perfect, so the optimum equals the maximum depth.
    An election in which nobody approves a candidate colors everyone 1.
    """
    require(sorted(assignment) == sorted(ids), "coloring does not cover every voter")
    classes: dict[int, list] = {}
    for vid, h in zip(ids, hulls):
        color = assignment[vid]
        require(isinstance(color, int) and color >= 1, f"voter {vid}: bad color {color!r}")
        if h is not None:
            classes.setdefault(color, []).append(h)
    for color, spans in classes.items():
        spans.sort()
        for a, b in zip(spans, spans[1:]):
            require(a[1] < b[0], f"color {color} is shared by intersecting voters")
    depth, _ = line_optimum(hulls)
    expected = depth if depth else (1 if ids else 0)
    colors = max(assignment.values(), default=0)
    require(colors == expected, f"{colors} colors, expected the maximum depth {expected}")


# ---------------------------------------------------------------------------
# 1-D agreeability
# ---------------------------------------------------------------------------


def deficient_size(spans, k: int) -> int:
    """Size of the largest voter subset of maximum depth at most k-1.

    ``spans`` are closed intervals (or index hulls on a slate), ``None`` for a
    voter approving nothing; such voters join every subset at no cost.  The
    greedy takes intervals by increasing right endpoint and keeps one when
    the kept set stays below depth k, which is optimal for interval graphs.
    """
    free = sum(1 for s in spans if s is None)
    kept: list = []
    for lo, hi in sorted((s for s in spans if s is not None), key=lambda s: s[1]):
        # Every kept interval ends at or before hi, so within [lo, hi] the
        # depth of the kept set peaks at lo or at one of their right ends.
        points = [lo] + [h for _, h in kept if h >= lo]
        depth = max(sum(1 for a, b in kept if a <= p <= b) for p in points)
        if depth + 1 <= k - 1:
            kept.append((lo, hi))
    return free + len(kept)


def check_1d_verdict(agreeable: bool, witness, ids, spans, k: int, m: int) -> None:
    """A (k,m)-agreeability verdict on a line or candidate society.

    ``spans`` are the voters' intervals (line) or slate hulls (candidates).
    """
    largest = deficient_size(spans, k)
    require(agreeable == (largest < m), f"verdict {agreeable}, but the largest deficient set has {largest} voters (m={m})")
    if not agreeable:
        index = {vid: i for i, vid in enumerate(ids)}
        require(witness is not None and len(witness) == m and len(set(witness)) == m, f"witness {witness} is not {m} distinct voters")
        require(all(w in index for w in witness), "witness names unknown voters")
        depth, _ = line_optimum([spans[index[w]] for w in witness])
        require(depth < k, f"witness voters reach depth {depth} >= k={k}")


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


def boxes_meet(a, b) -> bool:
    return a is not None and b is not None and all(x[0] <= y[1] and y[0] <= x[1] for x, y in zip(a, b))


def box_adjacency(boxes) -> list[int]:
    n = len(boxes)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if boxes_meet(boxes[i], boxes[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def has_clique(candidates: int, adj: list[int], size: int) -> bool:
    """Is there a clique of ``size`` vertices inside the bitmask ``candidates``?"""
    if size <= 0:
        return True
    while candidates:
        if candidates.bit_count() < size:
            return False
        v = (candidates & -candidates).bit_length() - 1
        candidates &= candidates - 1
        if has_clique(candidates & adj[v], adj, size - 1):
            return True
    return False


def box_depth(boxes) -> int:
    """Maximum number of boxes sharing a point: the largest pairwise-meeting set."""
    adj = box_adjacency(boxes)
    full = 0
    for i, b in enumerate(boxes):
        if b is not None:
            full |= 1 << i
    size = 0
    while has_clique(full, adj, size + 1):
        size += 1
    return size


def box_deficient_size(boxes, k: int) -> int:
    """Largest subset of boxes with depth below k, by a table over all subsets."""
    n = len(boxes)
    adj = box_adjacency(boxes)
    ok = bytearray(1 << n)
    ok[0] = 1
    best = 0
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        if ok[rest] and (boxes[top] is None or not has_clique(rest & adj[top], adj, k - 1)):
            ok[mask] = 1
            best = max(best, mask.bit_count())
    return best


def greedy_box_deficient(boxes, k: int) -> list[int]:
    """A deficient set found greedily in voter order (not necessarily largest)."""
    adj = box_adjacency(boxes)
    kept = 0
    for i, b in enumerate(boxes):
        if b is None or not has_clique(kept & adj[i], adj, k - 1):
            kept |= 1 << i
    return [i for i in range(len(boxes)) if kept >> i & 1]


def every_m_subset_agrees(boxes, k: int, m: int) -> bool:
    """Exhaustive: every m boxes include k that pairwise meet."""
    adj = box_adjacency(boxes)
    for subset in itertools.combinations(range(len(boxes)), m):
        mask = 0
        for i in subset:
            if boxes[i] is not None:
                mask |= 1 << i
        if not has_clique(mask, adj, k):
            return False
    return True


def check_box_verdict(agreeable: bool, witness, ids, boxes, k: int, m: int, exhaustive: bool) -> None:
    """A (k,m)-agreeability verdict on a box society.

    A positive verdict is confirmed by enumerating every m-subset when
    ``exhaustive``; a negative one by the witness's own depth.
    """
    if agreeable:
        require(exhaustive, "positive box verdict on an instance too large to confirm")
        require(every_m_subset_agrees(boxes, k, m), "box society called agreeable, but some m-subset has no k meeting boxes")
        return
    index = {vid: i for i, vid in enumerate(ids)}
    require(witness is not None and len(witness) == m and len(set(witness)) == m, f"witness {witness} is not {m} distinct voters")
    require(all(w in index for w in witness), "witness names unknown voters")
    depth = box_depth([boxes[index[w]] for w in witness])
    require(depth < k, f"witness boxes reach depth {depth} >= k={k}")


# ---------------------------------------------------------------------------
# Bound sheets
# ---------------------------------------------------------------------------


def check_bound_sheet(sheet: dict, n: int, a: int, k: int, m: int, agreeable: bool, d: int | None) -> None:
    """Every entry of a bound sheet, recomputed from the paper's formulas.

    ``d`` is None for line and candidate societies and the box dimension
    otherwise.  Non-vacuous entries must hold for the true agreement number.
    """
    require(sheet.get("k") == k and sheet.get("m") == m and sheet.get("n") == n, "sheet parameters differ")
    require(sheet.get("agreement_number") == a, f"sheet agreement number {sheet.get('agreement_number')} expected {a}")
    require(sheet.get("vacuous") == (not agreeable), "sheet vacuity disagrees with the verdict")
    entries = {e["name"]: e for e in sheet.get("bounds", [])}
    expected: dict[str, object] = {}
    if d is None:
        q, rho = divmod(m - 1, k - 1)
        expected["clique"] = (-(-(n - rho) // q), a >= -(-(n - rho) // q))
        expected["proportion"] = (ratio_str(k - 1, m - 1), Fraction(a, n) >= Fraction(k - 1, m - 1))
    else:
        if m > d:
            radicand = 1 - Fraction(math.comb(k, d + 1), math.comb(m, d + 1))
            expected["fractional_helly"] = (ratio_str(radicand.numerator, radicand.denominator), (1 - Fraction(a, n)) ** (d + 1) <= radicand)
        if m <= 2 * k - 2:
            expected["small_m"] = (n - m + k, a >= n - m + k)
    names = ["clique", "proportion"] if d is None else ["fractional_helly", "small_m"]
    require(sorted(entries) == sorted(names), f"sheet entries {sorted(entries)} expected {sorted(names)}")
    for name in names:
        entry = entries[name]
        if name not in expected:
            require(entry.get("applicable") is False, f"{name} should not apply")
            continue
        value, holds = expected[name]
        got = entry.get("value")
        if isinstance(got, dict):
            got = got.get("radicand")
        require(got == value, f"{name} value {got} expected {value}")
        require(entry.get("applicable") == agreeable, f"{name} applicability")
        if agreeable:
            require(holds, f"{name} bound fails on an agreeable society: the theorem or the verdict is wrong")
            require(entry.get("satisfied") is True, f"{name} reported unsatisfied")
        else:
            require("satisfied" not in entry, f"{name} carries a verdict on a vacuous sheet")
