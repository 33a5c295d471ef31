"""Spans around the package's public functions, recorded from outside.

The package imports its own functions by name (`from .kernels import
attention_cost`), so a wrapper must replace the name in every module that
holds it, not only in the defining module.  Tracer.__enter__ does that for
every function in TRACED and __exit__ puts the originals back.

A span is (name, layer, start_ns, end_ns, parent index, scenario id, error).
The scenario id is that of the nearest enclosing evaluate_point or
end_to_end call, or 0 outside any evaluation.  Spans stay in memory;
run.py writes the last traced pass out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> (defining module, function).  load_grid lives in sweep.py but
# loads and validates input, so it belongs to the configs layer.
TRACED = {
    "configs": (
        ("lmroofline.configs", "load_scenario"),
        ("lmroofline.configs", "load_model_config"),
        ("lmroofline.configs", "load_hardware_spec"),
        ("lmroofline.configs", "validate_workload"),
        ("lmroofline.sweep", "load_grid"),
    ),
    "kernels": (
        ("lmroofline.kernels", "linear_cost"),
        ("lmroofline.kernels", "attention_cost"),
        ("lmroofline.kernels", "elementwise_bytes"),
    ),
    "phases": (
        ("lmroofline.phases", "arm_prefill_cost"),
        ("lmroofline.phases", "arm_decode_cost"),
        ("lmroofline.phases", "naive_dlm_cost"),
        ("lmroofline.phases", "blockwise_dlm_cost"),
        ("lmroofline.phases", "layer_forward_cost"),
    ),
    "roofline": (
        ("lmroofline.roofline", "end_to_end"),
        ("lmroofline.roofline", "phase_latency"),
        ("lmroofline.roofline", "kernel_time"),
    ),
    "memory": (
        ("lmroofline.memory", "peak_footprint"),
        ("lmroofline.memory", "max_fitting_batch"),
    ),
    "sweep": (
        ("lmroofline.sweep", "run_sweep"),
        ("lmroofline.sweep", "evaluate_point"),
        ("lmroofline.sweep", "emit_csv"),
    ),
    "svgplot": (
        ("lmroofline.svgplot", "emit_roofline_svg"),
        ("lmroofline.svgplot", "emit_line_svg"),
    ),
    "cli": (("lmroofline.cli", "main"),),
}

PHASE_FUNCTIONS = ("arm_prefill_cost", "arm_decode_cost", "naive_dlm_cost", "blockwise_dlm_cost")
PHASES = ("arm_prefill", "arm_decode", "dlm_naive", "dlm_block")
LOAD_FUNCTIONS = ("load_scenario", "load_grid", "load_model_config", "load_hardware_spec")
SCENARIO_ROOTS = ("evaluate_point", "end_to_end")

# Metrics that count work; two traced passes over the same inputs must give
# identical values for all of them.
COUNT_METRICS = (
    "configs.validate_calls",
    "configs.rejected",
    "kernels.linear_calls",
    "kernels.attention_calls",
    "kernels.elementwise_calls",
    "phases.calls",
    *(f"phases.entries.{phase}" for phase in PHASES),
    "roofline.kernel_time_calls",
    "memory.calls",
    "sweep.points",
    "svgplot.points",
    "cli.calls",
)
TIME_METRICS = (
    "configs.load_s",
    "configs.validate_s",
    "kernels.self_s",
    "phases.self_s",
    "roofline.self_s",
    "memory.self_s",
    "sweep.self_s",
    "sweep.csv_s",
    "svgplot.emit_s",
    "cli.self_s",
)


def _svg_points(name: str, args) -> int:
    if name == "emit_line_svg":  # series: [(name, [(x, y), ...]), ...]
        return sum(len(points) for _, points in args[0])
    return len(args[0])  # emit_roofline_svg: [RooflinePoint, ...]


class Tracer:
    """Context manager that records spans while it is entered."""

    def __init__(self) -> None:
        self.spans: list = []
        self.entries: Counter = Counter()
        self.svg_points = 0
        self._stack: list[int] = []
        self._scenario = 0
        self._scenarios = 0
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n.startswith("lmroofline") and m]
        for layer, functions in TRACED.items():
            for module_name, name in functions:
                original = getattr(sys.modules.get(module_name), name, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, layer)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.entries = Counter()
        self.svg_points = 0
        self._scenarios = 0

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        is_root = name in SCENARIO_ROOTS
        is_phase = name in PHASE_FUNCTIONS
        is_svg = layer == "svgplot"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            opened = is_root and tracer._scenario == 0
            if opened:
                tracer._scenarios += 1
                tracer._scenario = tracer._scenarios
            if is_svg:
                tracer.svg_points += _svg_points(name, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, tracer._scenario, error)
                if opened:
                    tracer._scenario = 0
            if is_phase:
                tracer.entries[result.phase] += len(result.breakdown)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded since reset()."""
        spans = self.spans
        child = [0] * len(spans)
        for name, layer, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        load_ns = validate_ns = csv_ns = svg_ns = rejected = memory_calls = 0
        for idx, (name, layer, start, end, parent, _, error) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            self_ns[layer] += duration - child[idx]
            outer_layer = spans[parent][1] if parent >= 0 else None
            if name in LOAD_FUNCTIONS and outer_layer != "configs":
                load_ns += duration
            if layer == "configs" and outer_layer != "configs" and error == "ValidationError":
                rejected += 1
            if layer == "memory" and outer_layer != "memory":
                memory_calls += 1
            if name == "validate_workload":
                validate_ns += duration
            elif name == "emit_csv":
                csv_ns += duration
            elif layer == "svgplot" and outer_layer != "svgplot":
                svg_ns += duration
        metrics = {
            "configs.load_s": load_ns / 1e9,
            "configs.validate_calls": calls["validate_workload"],
            "configs.validate_s": validate_ns / 1e9,
            "configs.rejected": rejected,
            "kernels.linear_calls": calls["linear_cost"],
            "kernels.attention_calls": calls["attention_cost"],
            "kernels.elementwise_calls": calls["elementwise_bytes"],
            "kernels.self_s": self_ns["kernels"] / 1e9,
            "phases.calls": sum(calls[name] for name in PHASE_FUNCTIONS),
            **{f"phases.entries.{phase}": self.entries[phase] for phase in PHASES},
            "phases.self_s": self_ns["phases"] / 1e9,
            "roofline.kernel_time_calls": calls["kernel_time"],
            "roofline.self_s": self_ns["roofline"] / 1e9,
            "memory.calls": memory_calls,
            "memory.self_s": self_ns["memory"] / 1e9,
            "sweep.points": calls["evaluate_point"],
            "sweep.self_s": self_ns["sweep"] / 1e9,
            "sweep.csv_s": csv_ns / 1e9,
            "svgplot.emit_s": svg_ns / 1e9,
            "svgplot.points": self.svg_points,
            "cli.calls": calls["main"],
            "cli.self_s": self_ns["cli"] / 1e9,
        }
        return metrics

    def covered_s(self) -> float:
        """Time inside outermost spans: the sum of every span's self time."""
        return sum(end - start for _, _, start, end, parent, _, _ in self.spans if parent < 0) / 1e9

    def write(self, path: str) -> None:
        """Write the recorded spans as tab-separated lines, times relative to the first."""
        origin = min((span[2] for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tscenario\tlayer\tname\tstart_ns\tend_ns\terror\n")
            for idx, (name, layer, start, end, parent, scenario, error) in enumerate(self.spans):
                handle.write(
                    f"{idx}\t{parent}\t{scenario}\t{layer}\t{name}\t"
                    f"{start - origin}\t{end - origin}\t{error or ''}\n"
                )
