"""Spans and per-layer metrics for the benchmark's traced run.

The tracer wraps hypersat's public functions from outside the package. Modules
bind functions with `from .x import f`, so one function can be reached under
several module attributes, and `verify.SUITES` holds the suites in a dict: the
wrapper replaces every such reference in every loaded hypersat module.
A span is (name, start, end, parent index); a layer's self time is its spans'
durations minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Traced function -> workloads whose pass must reach it. The end-to-end metric
# each one should move is `run_s` on those workloads (and `peak_rss_mb` for
# find_contradictions on contradictions).
SPANS = {
    "formula.random_formula": ("experiment", "curve", "verify"),
    "formula.evaluate": ("experiment", "curve"),
    "formula.solve_exhaustive": ("verify",),
    "dimacs.parse_dimacs": ("contradictions",),
    "subclauses.build_space": ("experiment",),
    "assignments.generate_heuristic": ("experiment",),
    "assignments.generate_greedy.static": ("experiment",),
    "assignments.generate_greedy.dynamic": ("curve",),
    "assignments.unsolved_curve": ("curve",),
    "experiments.generate_assignment": ("curve",),
    "reduction.reduce_to_2sat": ("verify", "contradictions"),
    "reduction.solve_2sat": ("verify", "contradictions"),
    "reduction.verify_theorem": ("verify",),
    "reduction.verify_corollary1": ("verify",),
    "hypernodal.build_hypernodal": ("contradictions", "verify"),
    "hypernodal.merge_active": ("contradictions", "verify"),
    "hypernodal.find_contradictions": ("contradictions",),
    "hypernodal.export_dot": ("contradictions",),
    "verify.theorem_suite": ("verify",),
    "verify.corollary1_suite": ("verify",),
    "verify.twosat_oracle_suite": ("verify",),
    "verify.merge_equivalence_suite": ("verify",),
    "verify.sandwich_suite": ("verify",),
    "verify.census_suite": ("verify",),
    "cli.dump_json": ("experiment", "curve", "verify"),
}


def _report_items(report) -> int:
    # Every entry of the report's tuple fields (reached pairs, escaped edges
    # and SCC conflicts today), so the count survives a renamed field.
    return sum(len(value) for value in vars(report).values() if isinstance(value, tuple))


# Size metric -> (traced function, size of one result, workloads it must be > 0 on).
SIZES = {
    "subclauses.space_size": ("subclauses.build_space", len, ("contradictions",)),
    "reduction.clauses": ("reduction.reduce_to_2sat", lambda t: t.m,
                          ("verify", "contradictions")),
    "hypernodal.report_items": ("hypernodal.find_contradictions", _report_items,
                                ("contradictions",)),
}

# Ratios of the curve experiment, computed by the benchmark from its payload.
RATIOS = {
    "experiments.curve.accept_ratio": ("curve",),
    "experiments.curve.generator_calls_per_accept": ("curve",),
}


def _span_name(qualified: str):
    if qualified == "assignments.generate_greedy":
        def name_of(args, kwargs):
            dynamic = kwargs.get("dynamic", args[2] if len(args) > 2 else False)
            return qualified + (".dynamic" if dynamic else ".static")
        return name_of
    return lambda args, kwargs: qualified


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"{span}.{kind}", unit) for span in SPANS
             for kind, unit in (("calls", "count"), ("self_s", "s"))]
    names += [(size, "count") for size in SIZES]
    names += [(ratio, "ratio") for ratio in RATIOS]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.sizes = dict.fromkeys(SIZES, 0)
        self._open: list[int] = []
        self._patches: list[tuple] = []    # (namespace dict, key, original)

    def _wrap(self, func, name_of, sizers):
        spans, open_spans, sizes = self.spans, self._open, self.sizes

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name_of(args, kwargs), 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            for size_name, size_of in sizers:
                sizes[size_name] += size_of(result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "hypersat" or name.startswith("hypersat.")]
        targets = {span.removesuffix(".static").removesuffix(".dynamic") for span in SPANS}
        for qualified in sorted(targets):
            module_name, func_name = qualified.split(".")
            original = getattr(importlib.import_module("hypersat." + module_name), func_name)
            sizers = [(size, size_of) for size, (traced, size_of, _) in SIZES.items()
                      if traced == qualified]
            wrapper = self._wrap(original, _span_name(qualified), sizers)
            for module in modules:
                for namespace in [vars(module)] + [v for v in vars(module).values()
                                                   if isinstance(v, dict)]:
                    for key in [k for k, v in namespace.items() if v is original]:
                        self._patches.append((namespace, key, original))
                        namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per traced function, plus the size counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics: dict[str, float] = {}
        for span in SPANS:
            metrics[f"{span}.calls"] = 0
            metrics[f"{span}.self_s"] = 0.0
        for (name, start, end, _), children in zip(self.spans, child_time):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += end - start - children
        metrics.update(self.sizes)
        return metrics

    def write_spans(self, path, **context) -> None:
        with open(path, "w") as handle:
            json.dump({**context, "spans": self.spans}, handle)
