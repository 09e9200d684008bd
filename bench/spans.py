"""Spans around the program's public functions, installed from outside it.

``Tracer.install`` wraps every public function of each ``agreeable`` module
(plus the few private ones that are whole layers: the line sweep and box
depth) in every module namespace that holds it, so a call made through any
import path becomes a span, and a call nested in another becomes its child.
Per-element helpers called once per voter or coordinate are left unwrapped;
their time stays in the caller's self time.

A span records its name, start, end, parent span, operation id and self
time (its duration less the time its children cover).  Some spans also
record a count read from the call's arguments or result (a ``probe``); the
time a probe takes is excluded from every span.  Spans stay in memory until
``uninstall``; the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from time import perf_counter

MODULES = ("society", "generators", "agreement", "agreeability", "bounds", "graphs", "oracles", "verify", "cli")

# Called once per voter or coordinate: wrapping them would mostly time the wrapper.
UNWRAPPED = {
    "society.as_coord", "society.coord_str", "society.make_interval", "society.make_box",
    "society.approved_candidates", "bounds.decimal_str", "verify.child_seed",
}
PRIVATE_LAYERS = {"agreement._sweep", "agreement._box_agreement"}


def _line_coords(args, kwargs, result):
    intervals = args[0]
    return len({iv.lo for iv in intervals} | {iv.hi for iv in intervals})


def _grid_points(boxes, dimension: int) -> int:
    return math.prod(len({b.sides[axis].lo for b in boxes}) for axis in range(dimension))


def _box_grid(args, kwargs, result):
    society = args[0]
    boxes = [v.approval for v in society.voters if v.approval is not None]
    return _grid_points(boxes, society.spectrum.dimension) if boxes else 0


def _mask_platforms(args, kwargs, result):
    """(candidate platforms scanned, masks kept) for one platform_masks call."""
    society = args[0]
    kind = society.spectrum.kind
    if kind == "candidates":
        platforms = len(society.spectrum.candidates)
    elif kind == "line":
        platforms = len({v.approval.lo for v in society.voters if v.approval is not None})
    else:
        boxes = [v.approval for v in society.voters if v.approval is not None]
        platforms = _grid_points(boxes, society.spectrum.dimension)
    return (platforms, len(result))


def _subsets(args, kwargs, result):
    society, params = args[0], args[1]
    return math.comb(society.n, params.m)


def _spectrum_kind(args, kwargs, result):
    return args[0].spectrum.kind


PROBES = {
    "agreement._sweep": _line_coords,
    "agreement._box_agreement": _box_grid,
    "agreement.agreement": _spectrum_kind,
    "agreeability.platform_masks": _mask_platforms,
    "agreeability.is_km_agreeable": _subsets,
    "graphs.agreement_graph": lambda a, k, r: len(r.edges),
    "graphs.greedy_interval_coloring": lambda a, k, r: r.num_colors,
    "verify.run_suites": lambda a, k, r: sum(p.checked for p in r.results),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "self_time", "info", "child_time")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.self_time = 0.0
        self.info = None
        self.child_time = 0.0

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.self_time, self.info]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, perf_counter(), parent, self.op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                span.end = end
                span.self_time = (end - span.start) - span.child_time
                excluded = end - span.start
                if probe is not None and result is not None:
                    span.info = probe(args, kwargs, result)
                    excluded = perf_counter() - span.start
                if parent >= 0:
                    spans[parent].child_time += excluded

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap the layers' functions wherever the package refers to them."""
        modules = {short: importlib.import_module(f"agreeable.{short}") for short in MODULES}
        namespaces = [m for n, m in sys.modules.items() if n == "agreeable" or n.startswith("agreeable.")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if name in UNWRAPPED or (attr.startswith("_") and name not in PRIVATE_LAYERS):
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._patched.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()


def _self_time(spans, names, op_filter=None, info=None) -> float:
    return sum(
        s.self_time
        for s in spans
        if s.name in names and (op_filter is None or op_filter(s.op)) and (info is None or s.info == info)
    )


def _per_op(spans, names, info=None) -> dict[int, float]:
    out: dict[int, float] = {}
    for s in spans:
        if s.name in names and s.op >= 0 and (info is None or s.info == info):
            out[s.op] = out.get(s.op, 0.0) + s.self_time
    return out


def _slope(per_op: dict[int, float], ops, family_filter) -> float:
    """Log-log slope of a layer's self time between the smallest and largest inputs.

    ``ops`` maps an operation id to its Op; times of one input are the
    median over rounds.  0 when the layer did not run on two sizes.
    """
    by_size: dict[int, list[float]] = {}
    for op_id, t in per_op.items():
        op = ops[op_id]
        if family_filter(op.family) and t > 0:
            by_size.setdefault(op.size, []).append(t)
    if len(by_size) < 2:
        return 0.0
    lo, hi = min(by_size), max(by_size)
    t_lo = sorted(by_size[lo])[len(by_size[lo]) // 2]
    t_hi = sorted(by_size[hi])[len(by_size[hi]) // 2]
    return math.log(t_hi / t_lo) / math.log(hi / lo)


def layer_metrics(spans: list[Span], ops, rounds: int) -> dict[str, float]:
    """Per-layer metrics, per round, from the spans of ``rounds`` rounds.

    ``ops`` maps each operation id to its Op.  Set-up spans carry op -1 and
    feed only the generator and dump metrics, which are per set-up.
    """
    def per_round(value: float) -> float:
        return value / rounds

    in_ops = lambda op: op >= 0  # noqa: E731
    in_setup = lambda op: op < 0  # noqa: E731
    names_by_module: dict[str, set[str]] = {}
    for s in spans:
        names_by_module.setdefault(s.name.split(".")[0], set()).add(s.name)

    def count(names, op_filter=in_ops) -> int:
        return sum(1 for s in spans if s.name in names and op_filter(s.op))

    def info_sum(name, pick=lambda v: v) -> float:
        return sum(pick(s.info) for s in spans if s.name == name and s.op >= 0 and s.info is not None)

    parse = {"society.loads_society", "society.society_from_obj", "society.load_society"}
    validate = {"society.validate", "society.require_valid"}
    masks_scanned = info_sum("agreeability.platform_masks", lambda v: v[0])
    masks_kept = info_sum("agreeability.platform_masks", lambda v: v[1])
    one_d = lambda family: family in ("line", "candidates")  # noqa: E731

    return {
        "society.parse_s": per_round(_self_time(spans, parse, in_ops)),
        "society.validate_s": per_round(_self_time(spans, validate, in_ops)),
        "society.validate_calls": per_round(count({"society.validate"})),
        "society.restrict_s": per_round(_self_time(spans, {"society.restrict_to_candidates"}, in_ops)),
        "society.dump_s": _self_time(spans, {"society.dumps_society", "society.society_to_obj", "society.save_society"}, in_setup),
        "generators.random_s": _self_time(spans, names_by_module.get("generators", set()), in_setup),
        "agreement.sweep_s": per_round(_self_time(spans, {"agreement._sweep"}, in_ops)),
        "agreement.distinct_coords": per_round(info_sum("agreement._sweep")),
        "agreement.sweep_slope": _slope(_per_op(spans, {"agreement._sweep"}), ops, lambda f: f in ("line", "tour")),
        "agreement.tally_s": per_round(_self_time(spans, {"agreement.agreement"}, in_ops, info="candidates")),
        "agreement.tally_slope": _slope(_per_op(spans, {"agreement.agreement"}, info="candidates"), ops, lambda f: f == "tour"),
        "agreement.box_depth_s": per_round(_self_time(spans, {"agreement._box_agreement"}, in_ops)),
        "agreement.box_grid_points": per_round(info_sum("agreement._box_agreement")),
        "agreement.calls": per_round(count({"agreement.agreement"})),
        "graphs.edges_s": per_round(_self_time(spans, {"graphs.agreement_graph"}, in_ops)),
        "graphs.coloring_s": per_round(_self_time(spans, {"graphs.greedy_interval_coloring"}, in_ops)),
        "graphs.edges": per_round(info_sum("graphs.agreement_graph")),
        "graphs.colors": per_round(info_sum("graphs.greedy_interval_coloring")),
        "graphs.edges_slope": _slope(_per_op(spans, {"graphs.agreement_graph"}), ops, lambda f: f == "tour"),
        "graphs.coloring_slope": _slope(_per_op(spans, {"graphs.greedy_interval_coloring"}), ops, lambda f: f == "tour"),
        "agreeability.masks_s": per_round(_self_time(spans, {"agreeability.platform_masks"}, in_ops)),
        "agreeability.masks": per_round(masks_kept),
        "agreeability.masks_per_platform": masks_kept / masks_scanned if masks_scanned else 0.0,
        "agreeability.masks_slope": _slope(_per_op(spans, {"agreeability.platform_masks"}), ops, one_d),
        "agreeability.search_s": per_round(_self_time(spans, {"agreeability.is_km_agreeable"}, in_ops)),
        "agreeability.subsets": per_round(info_sum("agreeability.is_km_agreeable")),
        "bounds.sheet_s": per_round(_self_time(spans, {"bounds.bound_sheet"}, in_ops)),
        "bounds.enclosure_s": per_round(_self_time(spans, {"bounds.nth_root_enclosure"}, in_ops)),
        "verify.linear_s": per_round(_self_time(spans, {"verify.run_linear_suite"}, in_ops)),
        "verify.box_s": per_round(_self_time(spans, {"verify.run_box_suite"}, in_ops)),
        "verify.graph_s": per_round(_self_time(spans, {"verify.run_graph_suite"}, in_ops)),
        "verify.checks": per_round(info_sum("verify.run_suites")),
        "oracles.s": per_round(_self_time(spans, names_by_module.get("oracles", set()), in_ops)),
        "oracles.calls": per_round(count(names_by_module.get("oracles", set()))),
        "cli.command_s": per_round(_self_time(spans, names_by_module.get("cli", set()), in_ops)),
    }
