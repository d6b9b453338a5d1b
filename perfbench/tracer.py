"""Per-layer spans of ghcseries, recorded from outside the library.

install() replaces the public functions of each layer module with wrappers,
in that module and in every other ghcseries module that imported them by
name. Each call records a span (op, parent span, name, start, end, count,
tag); spans stay in memory until the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "report", "blocks", "charseries", "cohomology", "parabolic", "sl2embed", "rootsys")

# Scalar helpers called once per root or per number: wrapping them would make
# tracing cost more than the work it measures. Their time counts as self time
# of the traced function that calls them.
UNTRACED = {
    "rootsys": {"inner_product", "evaluate", "coroot_pairing", "lex_positive", "project_trace_zero"},
    "report": {"rational", "weight_coords", "character_pairs"},
}

RANK4_TYPES = ("A4", "B4", "C4", "D4")


def _type_label(rs) -> str:
    return "+".join(f"{fam}{rank}" for fam, rank in rs.type_label)


def _mults(args, result):
    return len(result.mults), args[2] if len(args) > 2 else None


# name -> f(args, result) -> (count, tag), taken at the wrapper.
COUNTERS = {
    "rootsys.weyl_group": lambda args, result: (len(result), _type_label(args[0])),
    "blocks.enumerate_block": lambda args, result: (len(result), None),
    "charseries.t_character_N": _mults,
    "charseries.f1_k_character": _mults,
    "report.render_json": lambda args, result: (len(result.encode()), None),
}


def traced_functions() -> dict[str, object]:
    """qualified name ("layer.function") -> function, for every traced function."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ghcseries.{layer}")
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and name not in UNTRACED.get(layer, ())
            ):
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(qualname, fn) for qualname, fn in traced_functions().items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ghcseries" and not mod_name.startswith("ghcseries."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (self.op, parent, name, t0, clock(), 0, None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            count, tag = counter(args, result) if counter else (0, None)
            spans[sid] = (self.op, parent, name, t0, t1, count, tag)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its children's durations."""
    child = [0.0] * len(spans)
    for op, parent, name, t0, t1, count, tag in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[4] - s[3] - child[i] for i, s in enumerate(spans)]


FUNCTION_METRICS = {
    "rootsys.weyl_group": ("calls", "self_s", "elements"),
    "rootsys.generate_group": ("calls", "self_s"),
    "rootsys.bruhat_leq_over": ("calls", "self_s"),
    "blocks.central_character_from_kappa": ("calls", "self_s"),
    "blocks.enumerate_block": ("calls", "self_s", "elements"),
    "blocks.integral_weyl_subgroup": ("calls", "self_s"),
    "blocks.multiplicity_matrix": ("calls", "self_s"),
    "blocks.socle_k_character": ("calls", "self_s", "f1_calls"),
    "charseries.t_character_N": ("calls", "self_s", "ktypes"),
    "charseries.f1_k_character": ("calls", "self_s", "ktypes"),
    "cohomology.e1_page_dimension": ("calls", "self_s"),
    "cohomology.nk_cohomology": ("calls",),
    "parabolic.minimal_parabolic": ("self_s",),
    "parabolic.bounds_report": ("self_s",),
    "parabolic.genericity_check": ("self_s",),
    "sl2embed.from_principal": ("self_s",),
    "sl2embed.from_root": ("self_s",),
    "report.render_json": ("self_s", "bytes"),
    "report.render_table": ("self_s",),
    "cli.main": ("self_s",),
}
COUNT_FIELDS = {"elements", "ktypes", "bytes"}
UNITS = {"calls": "count", "self_s": "s", "elements": "count", "ktypes": "count",
         "bytes": "B", "f1_calls": "count"}


def metric_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer in LAYERS:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.calls"] = "count"
    for fn, fields in FUNCTION_METRICS.items():
        for field in fields:
            names[f"{fn}.{field}"] = UNITS[field]
    # Inclusive: weyl_group delegates the enumeration to generate_group
    # today, so its own self time says nothing about the type.
    for label in RANK4_TYPES:
        names[f"rootsys.weyl_group.incl_s.{label}"] = "s"
    names["charseries.f1_k_character.doubling_ratio"] = "ratio"
    names["cli.process_s"] = "s"
    names["trace.overhead_ratio"] = "ratio"
    return names


def doubling_ratio(spans) -> float:
    """f1 time at the top rung over the rung below, from ladder calls only.

    Ladder calls are the f1 calls made directly under cli.main (the
    character command); socle calls are left out. 0 when no cutoff C has a
    partner at 2C.
    """
    by_cutoff: dict[int, float] = defaultdict(float)
    for op, parent, name, t0, t1, count, tag in spans:
        if name == "charseries.f1_k_character" and parent >= 0 and spans[parent][2] == "cli.main":
            by_cutoff[tag] += t1 - t0
    rungs = sorted(c for c in by_cutoff if 2 * c in by_cutoff)
    if not rungs:
        return 0.0
    top = rungs[-1]
    return by_cutoff[2 * top] / by_cutoff[top]


def summarize(spans) -> dict[str, float]:
    """Totals over the given spans of every per-layer count and self time."""
    values = {name: 0.0 for name in metric_names()}
    own = self_times(spans)
    for i, (op, parent, name, t0, t1, count, tag) in enumerate(spans):
        layer = name.split(".", 1)[0]
        values[f"{layer}.self_s"] += own[i]
        values[f"{layer}.calls"] += 1
        fields = FUNCTION_METRICS.get(name, ())
        if "calls" in fields:
            values[f"{name}.calls"] += 1
        if "self_s" in fields:
            values[f"{name}.self_s"] += own[i]
        for field in COUNT_FIELDS & set(fields):
            values[f"{name}.{field}"] += count
        if name == "rootsys.weyl_group" and tag in RANK4_TYPES:
            values[f"rootsys.weyl_group.incl_s.{tag}"] += t1 - t0
        if name == "charseries.f1_k_character" and parent >= 0 and (
            spans[parent][2] == "blocks.socle_k_character"
        ):
            values["blocks.socle_k_character.f1_calls"] += 1
    return values


def per_layer(spans, rounds: int, process_s: float, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric: totals per round, plus the three ratios and process time."""
    values = {name: value / rounds for name, value in summarize(spans).items()}
    values["charseries.f1_k_character.doubling_ratio"] = doubling_ratio(spans)
    values["cli.process_s"] = process_s / rounds
    values["trace.overhead_ratio"] = overhead_ratio
    return values
