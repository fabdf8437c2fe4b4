"""In-memory span tracer for the benchmark's traced iterations.

The tracer wraps kersize's public functions at run time, from outside the
package: module attributes, class methods, and the by-name bindings that other
kersize modules made with ``from .x import y`` (found by identity and patched
too). ``uninstall`` puts every original back, so untraced iterations run the
unmodified library.

A span records name, start, end, parent and run id. Spans are kept in memory
and written out when the benchmark ends. Calls made once per proposal
(``ForwardModel.feasible_batch``) are *counted* instead: their calls, rows and
time are summed into counters at the same boundary, and their time is charged
to the enclosing span so self times stay exact.

Span names are ``<layer>.<function>``; the layer is the kersize module.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

LAYERS = ("cli", "demo", "sampling", "forward", "bounds", "core", "symmetric", "io", "predictors")

# The metric holding each layer's self time; with trace.remainder_s they add
# up to trace.wall_s.
LAYER_SELF = {
    "cli": "cli.self_s",
    "demo": "demo.self_s",
    "sampling": "sampling.self_s",
    "forward": "forward.feasible_batch.s",
    "bounds": "bounds.self_s",
    "core": "core.self_s",
    "symmetric": "symmetric.self_s",
    "io": "io.self_s",
    "predictors": "predictors.s",
    "remainder": "trace.remainder_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    run: int
    counted_s: float = 0.0  # time in counted calls made directly inside this span

    def to_dict(self) -> dict:
        return asdict(self)


def self_times(spans) -> dict:
    """Self time per span name: each span's duration minus the time its direct
    children (spans and counted calls) cover. Calls do not overlap because a
    workload runs on one thread."""
    covered = [s.counted_s for s in spans]
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict = defaultdict(float)
    for s, child in zip(spans, covered):
        out[s.name] += s.end - s.start - child
    return dict(out)


# -- counter hooks: (counters, args, kwargs, result) -> None -----------------


def _count_members(counters, args, kwargs, result):
    counters["sampling.members"] += result.shape[0]
    counters["sampling.empty_sets"] += result.shape[0] == 0


def _count_pairs(counters, args, kwargs, result):
    n = len(args[0])
    counters["bounds.pair_power_sum.pairs"] += n * (n - 1) // 2


def _count_sym_pairs(counters, args, kwargs, result):
    counters["symmetric.pairs"] += args[0].size


def _count_written(counters, args, kwargs, result):
    counters["io.values_written"] += np.size(args[1])
    counters["io.bytes_written"] += os.stat(args[0]).st_size


def _count_read(counters, args, kwargs, result):
    counters["io.values_read"] += result.size


def _count_upscale(counters, args, kwargs, result):
    counters["predictors.upscale.calls"] += 1


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def _feasible_rows(args, kwargs):
    x = args[1]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


# (module, attribute, span name or naming function, counter hook)
SPAN_TARGETS = (
    ("cli", "main", _cli_name, None),
    ("demo", "microscopy_demo", None, None),
    ("demo", "superres_demo", None, None),
    ("sampling", "build_feasible_sets", None, None),
    ("sampling", "sample_feasible", None, _count_members),
    ("bounds", "verify_bounds", None, None),
    ("bounds", "kersize", None, None),
    ("bounds", "pair_power_sum", None, _count_pairs),
    ("bounds", "optimal_map_value", None, None),
    ("core", "loss", None, None),
    ("core", "dataset_from_collection", None, None),
    ("core", "collection_from_dataset", None, None),
    ("symmetric", "skersize", None, _count_sym_pairs),
    ("symmetric", "kernel_projection", None, None),
    ("io", "write_collection", None, None),
    ("io", "read_collection", None, None),
    ("io", "write_vectors_csv", None, _count_written),
    ("io", "read_vectors_csv", None, _count_read),
    ("io", "write_table_csv", None, None),
    ("io", "write_json", None, None),
    ("io", "read_json", None, None),
    ("io", "read_predictions_dir", None, None),
    ("predictors", "mean_map", None, None),
    ("predictors", "median_map", None, None),
    ("predictors", "zero_map", None, None),
    ("predictors", "upscale", None, _count_upscale),
)

# (module, class, method, counter prefix, rows function)
COUNTED_TARGETS = (
    ("forward", "ForwardModel", "feasible_batch", "forward.feasible_batch", _feasible_rows),
)


class Tracer:
    """Spans and counters of one traced iteration (run id ``run``)."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []

    def span(self, name, fn, hook=None):
        spans, stack, counters, run = self.spans, self._stack, self.counters, self.run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            record = Span(label, 0.0, 0.0, stack[-1] if stack else None, run)
            spans.append(record)
            stack.append(index)
            record.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def counted(self, prefix, fn, rows):
        spans, stack, counters = self.spans, self._stack, self.counters
        calls_key, rows_key, s_key = prefix + ".calls", prefix + ".rows", prefix + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            counters[calls_key] += 1
            counters[rows_key] += rows(args, kwargs)
            counters[s_key] += dt
            if stack:
                spans[stack[-1]].counted_s += dt
            else:
                counters["trace.top_counted_s"] += dt
            return result

        return wrapper

    def install(self) -> None:
        for mod_name in LAYERS:
            importlib.import_module(f"kersize.{mod_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "kersize" or key.startswith("kersize."))]
        for mod_name, attr, name, hook in SPAN_TARGETS:
            original = getattr(importlib.import_module(f"kersize.{mod_name}"), attr)
            wrapper = self.span(name or f"{mod_name}.{attr}", original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, prefix, rows in COUNTED_TARGETS:
            cls = getattr(importlib.import_module(f"kersize.{mod_name}"), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.counted(prefix, original, rows))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def _per(total, count, scale):
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration.

    Layer self times plus ``trace.remainder_s`` (benchmark code between the
    top-level calls) add up to ``trace.wall_s``. Ratios whose base is zero in
    a workload (no sampling in superres, say) read 0.
    """
    spans, c = tracer.spans, tracer.counters
    selfs = self_times(spans)
    inclusive: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for s in spans:
        inclusive[s.name] += s.end - s.start
        calls[s.name] += 1
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, value in selfs.items():
        layer_self[name.split(".")[0]] += value
    fb_s = c["forward.feasible_batch.s"]
    layer_self["forward"] += fb_s
    top = sum(s.end - s.start for s in spans if s.parent is None) + c["trace.top_counted_s"]
    sampled = inclusive["sampling.sample_feasible"]
    return {
        "forward.feasible_batch.calls": c["forward.feasible_batch.calls"],
        "forward.feasible_batch.rows": c["forward.feasible_batch.rows"],
        "forward.feasible_batch.s": fb_s,
        "forward.us_per_row": _per(fb_s, c["forward.feasible_batch.rows"], 1e6),
        "sampling.sample_feasible.calls": calls["sampling.sample_feasible"],
        "sampling.self_s": layer_self["sampling"],
        "sampling.members": c["sampling.members"],
        "sampling.accept_ratio": _per(c["sampling.members"], c["forward.feasible_batch.rows"], 1.0),
        "sampling.empty_sets": c["sampling.empty_sets"],
        "sampling.us_per_member": _per(sampled, c["sampling.members"], 1e6),
        "bounds.self_s": layer_self["bounds"],
        "bounds.pair_power_sum.pairs": c["bounds.pair_power_sum.pairs"],
        "bounds.pair_power_sum.s": inclusive["bounds.pair_power_sum"],
        "bounds.ns_per_pair": _per(inclusive["bounds.pair_power_sum"],
                                   c["bounds.pair_power_sum.pairs"], 1e9),
        "bounds.optimal_map_value.calls": calls["bounds.optimal_map_value"],
        "bounds.optimal_map_value.s": inclusive["bounds.optimal_map_value"],
        "bounds.ms_per_theta": _per(inclusive["bounds.optimal_map_value"],
                                    calls["bounds.optimal_map_value"], 1e3),
        "bounds.verify_bounds.self_s": selfs.get("bounds.verify_bounds", 0.0),
        "core.self_s": layer_self["core"],
        "core.loss.calls": calls["core.loss"],
        "core.loss.s": inclusive["core.loss"],
        "core.convert.s": inclusive["core.dataset_from_collection"]
        + inclusive["core.collection_from_dataset"],
        "symmetric.self_s": layer_self["symmetric"],
        "symmetric.kernel_projection.s": inclusive["symmetric.kernel_projection"],
        "symmetric.skersize.self_s": selfs.get("symmetric.skersize", 0.0),
        "symmetric.pairs": c["symmetric.pairs"],
        "symmetric.us_per_pair": _per(inclusive["symmetric.skersize"], c["symmetric.pairs"], 1e6),
        "io.self_s": layer_self["io"],
        "io.values_written": c["io.values_written"],
        "io.bytes_written": c["io.bytes_written"],
        "io.write.s": inclusive["io.write_vectors_csv"],
        "io.us_per_value_write": _per(inclusive["io.write_vectors_csv"], c["io.values_written"], 1e6),
        "io.values_read": c["io.values_read"],
        "io.read.s": inclusive["io.read_vectors_csv"],
        "io.us_per_value_read": _per(inclusive["io.read_vectors_csv"], c["io.values_read"], 1e6),
        "predictors.s": layer_self["predictors"],
        "predictors.upscale.calls": c["predictors.upscale.calls"],
        "cli.self_s": layer_self["cli"],
        "cli.sample_s": inclusive["cli.sample"],
        "cli.validate_s": inclusive["cli.validate"],
        "demo.self_s": layer_self["demo"],
        "trace.wall_s": wall_s,
        "trace.remainder_s": wall_s - top,
    }
