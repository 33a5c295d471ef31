"""Every function the package defines is run by a command or by the Python
calls the benchmark makes.

The package is driven as a user drives it: `cli.main` over the golden grids
(`sweep`, `roofline` and `plot` of each kind), the experiment commands of
README.md's table, one `analyze` of a scenario whose model and hardware are
files, `hw` and `model` `list` and `show`, a command's help, a usage error
of the whole CLI and one of a command, and one `analyze` of a scenario it
rejects. Then, as `bench/workloads.py` does, a grid is read with
`load_grid`, its rows made by `run_sweep` and written by `emit_csv`, and
one series drawn by `emit_line_svg`.
A `sys.setprofile` hook records every Python function entered, by file and
first line (a decorated function's code starts at its first decorator), and
each `def` in `src/lmroofline/*.py` must be among them. A function that
none of these runs is code no user reaches: delete it, or run it here if it
is a new entry point. ENTRY_POINTS lists the functions these calls stand in
for.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import lmroofline
from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    cli,
    emit_csv,
    emit_line_svg,
    load_grid,
    run_sweep,
)
from test_golden import GOLDEN, GOLDEN_CLI, MODES, grid_commands, run_experiments

PACKAGE = Path(lmroofline.__file__).resolve().parent

# (module file, function name): `entry` is the console script, which only
# calls `cli.main` and exits with its code.
ENTRY_POINTS = {("cli.py", "entry")}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> a name for every def in the package, methods included."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) not in ENTRY_POINTS:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{node.name} (line {node.lineno})"
    return found


def file_scenario(out_dir: Path) -> Path:
    """golden/analyze_arm.json, with its model and hardware read from files beside it."""
    scenario = json.loads((GOLDEN / "analyze_arm.json").read_text(encoding="utf-8"))
    for key, registry in (("model", MODEL_REGISTRY), ("hardware", HW_REGISTRY)):
        (out_dir / f"{key}.json").write_text(json.dumps(registry[scenario[key]]._asdict()))
        scenario[key] = f"{key}.json"
    path = out_dir / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def rejected_scenario(out_dir: Path) -> Path:
    """golden/analyze_arm.json with a batch of 0, which analyze rejects, quoting it."""
    scenario = json.loads((GOLDEN / "analyze_arm.json").read_text(encoding="utf-8"))
    path = out_dir / "rejected.json"
    path.write_text(json.dumps({**scenario, "batch": 0}))
    return path


def drive_package(out_dir: Path) -> None:
    """Run every command and the benchmark's Python calls once, writing their
    files into out_dir."""
    grid_argv = [argv for mode in MODES for _, argv in grid_commands(mode)]
    calls = [
        *([*argv, "-o", str(out_dir / f"out{i}")] for i, argv in enumerate(grid_argv)),
        ["analyze", "-c", str(file_scenario(out_dir))],
        ["hw", "list"],
        ["hw", "show", "rtx-a6000"],
        ["model", "list"],
        ["model", "show", "llama3-8b"],
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in calls:
            assert cli.main(argv) == 0, argv
        assert cli.main(["analyze", "-h"]) == 0
        assert cli.main(["analyze"]) == 1
        assert cli.main(["no-such-command"]) == 1
        assert cli.main(["analyze", "-c", str(rejected_scenario(out_dir))]) == 1
    run_experiments(out_dir)
    rows = run_sweep(load_grid(str(GOLDEN_CLI / "grid_arm.json")))
    emit_csv(rows, str(out_dir / "rows.csv"))
    emit_line_svg([("arm", [(row.B, row.throughput_tok_s) for row in rows])],
                  str(out_dir / "rows.svg"), xlabel="batch", ylabel="throughput", title="rows")


def test_every_function_in_the_package_is_run_by_a_command_or_a_script(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli._build_parser.cache_clear()  # each parser is built once per process: again under the hook
    entered = set()

    def record(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        drive_package(tmp_path)
    finally:
        sys.setprofile(previous)

    reached = {(os.path.realpath(file), line) for file, line in entered}
    never = sorted(name for key, name in defined_functions().items() if key not in reached)
    assert not never, f"functions no command or benchmark call runs: {', '.join(never)}"
