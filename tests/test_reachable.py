"""Every function the package defines is run by a command or a script.

The package is driven as a user drives it: `cli.main` over the golden grids
(`sweep`, `roofline` and `plot` of each kind), one `analyze` of a scenario
whose model and hardware are files, `hw` and `model` `list` and `show`, one
usage error, and the four scripts. A `sys.setprofile` hook records every
Python function entered, by file and first line (a decorated function's code
starts at its first decorator), and each `def` in `src/lmroofline/*.py` must
be among them. A function that none of these runs is code no user reaches:
delete it, or run it here if it is a new entry point. ENTRY_POINTS lists the
functions these calls stand in for.
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
from lmroofline import HW_REGISTRY, MODEL_REGISTRY, cli
from test_golden import GOLDEN, MODES, SCRIPTS, grid_commands, run_script

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


def drive_package(out_dir: Path) -> None:
    """Run every command and script once, writing their files into out_dir."""
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
        assert cli.main(["no-such-command"]) == 1
    for script in SCRIPTS:
        run_script(script, out_dir)


def test_every_function_in_the_package_is_run_by_a_command_or_a_script(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli._build_parser.cache_clear()  # built once per process: build it again under the hook
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
    assert not never, f"functions no command or script runs: {', '.join(never)}"
