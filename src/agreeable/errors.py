"""The shared exception type and every work cap, each beside the one check
that raises it: no routine here returns an approximate answer silently.
Only the oracles' vertex caps and Python's digit limit live where they are
read."""

import itertools
import os

# C(n, m) past this refuses a subset search or the clique oracle (it is the
# AGREE_MAX_SUBSETS knob, read as int() reads it and refused below 1); the
# search stops past _NODE_BUDGET_FACTOR x that.
DEFAULT_SUBSET_CAP = 2_000_000
_NODE_BUDGET_FACTOR = 8
# Box work grows with n^d: up to n^d maximal cliques, each a mask the subset
# search scans at every node.  These caps hold for boxes with d >= 2, and in
# good_set_count at every dimension: its count can be exponential in n.
MAX_BOX_VOTERS = 30
MAX_BOX_DIMENSION = 3
# Each bisection step of an enclosure raises an integer to the degree: at
# 50 000 the enclosure of ``bounds --d 49999`` takes about 1.3 s.
MAX_ENCLOSURE_DEGREE = 50_000


class CapExceededError(RuntimeError):
    """An exact enumeration would exceed its configured instance-size cap."""


def subset_cap() -> int:
    raw = os.environ.get("AGREE_MAX_SUBSETS")
    try:
        cap = int(raw) if raw else DEFAULT_SUBSET_CAP
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"AGREE_MAX_SUBSETS must be a positive integer, got {raw!r}")
    return cap


def _require_subset_cap(n: int, m: int) -> None:
    """Refuse C(n, m) past the cap, for 1 <= m <= n, counting only until the count passes it."""
    cap = subset_cap()
    # C(n, i) rises with i up to min(m, n - m), the smaller index of C(n, m).
    counts = itertools.accumulate(range(min(m, n - m)), lambda count, i: count * (n - i) // (i + 1), initial=1)
    if any(count > cap for count in counts):
        raise CapExceededError(f"C({n},{m}) exceeds the enumeration cap {cap}")


def _node_budget():
    """Yield once per search node allowed, then refuse the next node."""
    budget = subset_cap() * _NODE_BUDGET_FACTOR
    yield from itertools.repeat(None, budget)
    raise CapExceededError(f"subset search exceeded {budget} nodes")


def _require_box_caps(n: int, d: int) -> None:
    if n > MAX_BOX_VOTERS:
        raise CapExceededError(f"box societies are capped at {MAX_BOX_VOTERS} voters, got {n}")
    if d > MAX_BOX_DIMENSION:
        raise CapExceededError(f"box societies are capped at dimension {MAX_BOX_DIMENSION}, got {d}")


def _require_root_degree(degree: int) -> None:
    if degree > MAX_ENCLOSURE_DEGREE:
        raise CapExceededError(f"a root of degree {degree} exceeds the enclosure cap {MAX_ENCLOSURE_DEGREE}")
