"""Command-line interface.

Exit codes: 0 success, 1 validation error (including bad usage),
2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from operator import attrgetter

from .configs import HW_REGISTRY, MODEL_REGISTRY, echo, load_scenario
from .errors import ValidationError
from .memory import parameter_count, weight_bytes
from .phases import arithmetic_intensity
from .roofline import end_to_end, ridge_point
from .sweep import evaluate_point, load_grid, map_grid, row_to_csv, write_csv
from .svgplot import emit_line_svg, emit_roofline_svg


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use rather than at import, then shared.

    Parsing leaves no state in it, and it writes to the sys.stdout and
    sys.stderr current at each call."""
    parser = _Parser(prog="lmroofline", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="evaluate one scenario file")
    analyze.add_argument("-c", "--config", required=True, help="scenario JSON file")

    sweep = sub.add_parser("sweep", help="evaluate a grid file to CSV")
    sweep.add_argument("-c", "--config", required=True, help="grid JSON file")
    sweep.add_argument("-o", "--output", required=True, help="output CSV path")

    roofline = sub.add_parser("roofline", help="render a grid's phases on the roofline")
    roofline.add_argument("-c", "--config", required=True, help="grid JSON file")
    roofline.add_argument("-o", "--output", required=True, help="output SVG path")

    plot = sub.add_parser("plot", help="render a metric against the last grid axis")
    plot.add_argument("--kind", required=True, choices=("latency", "throughput", "ai"))
    plot.add_argument("-c", "--config", required=True, help="grid JSON file")
    plot.add_argument("-o", "--output", required=True, help="output SVG path")

    hw = sub.add_parser("hw", help="inspect the hardware registry")
    hw_sub = hw.add_subparsers(dest="action", required=True)
    hw_sub.add_parser("list")
    hw_show = hw_sub.add_parser("show")
    hw_show.add_argument("name")

    model = sub.add_parser("model", help="inspect the model registry")
    model_sub = model.add_subparsers(dest="action", required=True)
    model_sub.add_parser("list")
    model_show = model_sub.add_parser("show")
    model_show.add_argument("name")

    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    row = vars(evaluate_point(end_to_end(load_scenario(args.config))))  # the fields, in order
    payload = json.dumps(row, allow_nan=False)
    width = max(map(len, row))
    for name, value in row.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"{name:<{width}}  {value}")
    print(payload)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # One CSV line per point, all computed before the file is opened.
    lines = list(map_grid(
        load_grid(args.config), lambda result: row_to_csv(evaluate_point(result))))
    write_csv(lines, args.output)
    print(f"wrote {len(lines)} rows to {args.output}")
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    grid = load_grid(args.config)
    # Each point's RooflinePoints join one flat list as map_grid yields them.
    points = list(itertools.chain.from_iterable(map_grid(grid, attrgetter("points"))))
    emit_roofline_svg(points, grid.hardware, args.output)
    print(f"wrote {len(points)} points to {args.output}")
    return 0


# kind -> (the plotted value of a point's ScenarioResult, the y-axis label).
# The values are the ones evaluate_point puts in a report row; plot builds no row.
_PLOT_COLUMNS = {
    "latency": (attrgetter("latency_s"), "latency (s)"),
    "throughput": (attrgetter("throughput_tok_s"), "throughput (tokens/s)"),
    "ai": (arithmetic_intensity, "arithmetic intensity (FLOP/byte)"),
}


def _cmd_plot(args: argparse.Namespace) -> int:
    grid = load_grid(args.config)
    if not grid.axes:
        raise ValidationError("plot requires at least one swept axis")
    value, ylabel = _PLOT_COLUMNS[args.kind]
    *series_axes, (x_axis, x_values) = grid.axes
    # x is read off each point's resolved workload, where a null steps is its gen_len.
    pts = list(map_grid(grid, lambda result: (
        float(getattr(result.scenario.workload, x_axis)), value(result))))
    names = [
        ", ".join(f"{n}={v}" for (n, _), v in zip(series_axes, combo)) or grid.base.mode
        for combo in itertools.product(*(values for _, values in series_axes))
    ]
    size = len(x_values)  # points per series
    series = [(name, pts[idx * size : (idx + 1) * size]) for idx, name in enumerate(names)]
    emit_line_svg(series, args.output, xlabel=x_axis, ylabel=ylabel,
                  title=f"{args.kind} vs {x_axis}")
    print(f"wrote {args.output}")
    return 0


def _cmd_hw(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in sorted(HW_REGISTRY):
            print(name)
        return 0
    if args.name not in HW_REGISTRY:
        raise ValidationError(
            f"unknown hardware {echo(args.name)} (registry: {', '.join(sorted(HW_REGISTRY))})"
        )
    hw = HW_REGISTRY[args.name]
    print(hw.name)
    print(f"  peak compute      {hw.peak_flops / 1e12:.4g} TFLOP/s")
    print(f"  memory bandwidth  {hw.mem_bandwidth / 1e9:.4g} GB/s")
    print(f"  memory capacity   {hw.mem_capacity / 1e9:.4g} GB")
    print(f"  ridge point       {ridge_point(hw):.4g} FLOP/byte")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in sorted(MODEL_REGISTRY):
            print(name)
        return 0
    if args.name not in MODEL_REGISTRY:
        raise ValidationError(
            f"unknown model {echo(args.name)} (registry: {', '.join(sorted(MODEL_REGISTRY))})"
        )
    m = MODEL_REGISTRY[args.name]
    for name, value in zip(m._fields, m):
        print(f"  {name:<16} {value}")
    print(f"  {'parameters':<16} {parameter_count(m)}")
    print(f"  {'fp16 weights':<16} {weight_bytes(m, 2)} bytes")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "roofline": _cmd_roofline,
    "plot": _cmd_plot,
    "hw": _cmd_hw,
    "model": _cmd_model,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
