"""Command-line interface.

Exit codes: 0 success, 1 validation error (including bad usage),
2 I/O error.

A call builds the argument parser of the command it runs, and no other.
The whole CLI's parser lists the commands only: it is built for an argv
that does not start with a known command, and gives help or a usage error.
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
from .sweep import evaluate_point, field_names, load_grid, map_grid, row_to_csv, write_csv
from .svgplot import emit_line_svg, emit_roofline_svg


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        """Raise the complaint and the usage line of this parser, the one that raised it."""
        raise _UsageError(f"usage error: {message}\n{self.format_usage()}")


@functools.cache
def _build_parser(command: str | None) -> _Parser:
    """The parser of one command, which takes the arguments after its name;
    or with None the whole CLI's, which lists the commands only, for help and
    for an argv that does not start with a command. Built on first use rather
    than at import, then shared: parsing leaves no state in a parser, and it
    writes to the sys.stdout and sys.stderr current at each call."""
    if command is None:
        # --help prints the module docstring but its last paragraph (none under -OO).
        description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
        parser = _Parser(prog="lmroofline", description=description)
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (_, text) in _COMMANDS.items():
            sub.add_parser(name, help=text, add_help=False)
        return parser
    parser = _Parser(prog=f"lmroofline {command}")
    if command in ("hw", "model"):
        actions = parser.add_subparsers(dest="action", required=True)
        actions.add_parser("list")
        actions.add_parser("show").add_argument("name")
        return parser
    if command == "plot":
        parser.add_argument("--kind", required=True, choices=tuple(_PLOT_COLUMNS))
    source = "scenario" if command == "analyze" else "grid"
    parser.add_argument("-c", "--config", required=True, help=f"{source} JSON file")
    if command != "analyze":
        kind = "CSV" if command == "sweep" else "SVG"
        parser.add_argument("-o", "--output", required=True, help=f"output {kind} path")
    return parser


def _shown(path: str) -> str:
    """An output path as a `wrote` line prints it: as given if printable, else
    escaped by echo, so that a path that is not valid text cannot fail the
    print after its file is written."""
    return path if path.isprintable() else echo(path)


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
    print(f"wrote {len(lines)} rows to {_shown(args.output)}")
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    grid = load_grid(args.config)
    # Each point's RooflinePoints join one flat list as map_grid yields them.
    points = list(itertools.chain.from_iterable(map_grid(grid, attrgetter("points"))))
    emit_roofline_svg(points, grid.hardware, args.output)
    print(f"wrote {len(points)} points to {_shown(args.output)}")
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
    # A series is named by its case, then its series axes' values, else by its mode.
    series_names = [name for name, _ in series_axes]
    names = [
        ", ".join(filter(None, [case, *field_names(zip(series_names, combo))])) or base.mode
        for case, _, base in grid.cases
        for combo in itertools.product(*(values for _, values in series_axes))
    ]
    size = len(x_values)  # points per series
    series = [(name, pts[idx * size : (idx + 1) * size]) for idx, name in enumerate(names)]
    emit_line_svg(series, args.output, xlabel=x_axis, ylabel=ylabel,
                  title=f"{args.kind} vs {x_axis}")
    print(f"wrote {_shown(args.output)}")
    return 0


def _cmd_registry(args: argparse.Namespace, registry: dict, kind: str, show) -> int:
    """`list` prints the registry's names; `show NAME` prints the named entry
    through `show`, and rejects a name the registry lacks."""
    if args.action == "list":
        for name in sorted(registry):
            print(name)
        return 0
    if args.name not in registry:
        raise ValidationError(
            f"unknown {kind} {echo(args.name)} (registry: {', '.join(sorted(registry))})"
        )
    show(registry[args.name])
    return 0


def _show_hw(hw) -> None:
    print(hw.name)
    print(f"  peak compute      {hw.peak_flops / 1e12:.4g} TFLOP/s")
    print(f"  memory bandwidth  {hw.mem_bandwidth / 1e9:.4g} GB/s")
    print(f"  memory capacity   {hw.mem_capacity / 1e9:.4g} GB")
    print(f"  ridge point       {ridge_point(hw):.4g} FLOP/byte")


def _show_model(m) -> None:
    for name, value in zip(m._fields, m):
        print(f"  {name:<16} {value}")
    print(f"  {'parameters':<16} {parameter_count(m)}")
    print(f"  {'fp16 weights':<16} {weight_bytes(m, 2)} bytes")


def _cmd_hw(args: argparse.Namespace) -> int:
    return _cmd_registry(args, HW_REGISTRY, "hardware", _show_hw)


def _cmd_model(args: argparse.Namespace) -> int:
    return _cmd_registry(args, MODEL_REGISTRY, "model", _show_model)


# command -> (its function, its line in the whole CLI's help), in the help's order.
_COMMANDS = {
    "analyze": (_cmd_analyze, "evaluate one scenario file"),
    "sweep": (_cmd_sweep, "evaluate a grid file to CSV"),
    "roofline": (_cmd_roofline, "render a grid's phases on the roofline"),
    "plot": (_cmd_plot, "render a metric against the last grid axis"),
    "hw": (_cmd_hw, "inspect the hardware registry"),
    "model": (_cmd_model, "inspect the model registry"),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A known command's own parser takes the arguments after it; the whole
    # CLI's takes anything else, and ends in help or a usage error.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        parser = _build_parser(command)
        args = parser.parse_args(argv if command is None else argv[1:])
        if command is None:  # `-- analyze` on Python 3.12.10, which drops the '--'
            parser.error("the command must be the first argument")
    except _UsageError as exc:
        print(exc, end="", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    run, _ = _COMMANDS[command]
    try:
        return run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
