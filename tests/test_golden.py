"""Golden corpus: the experiment scripts' CSV/SVG files and the CLI's output.

tests/golden/ holds the files the four scripts/*.py experiments write and
the stdout of `lmroofline analyze` on one scenario per mode
(analyze_<mode>.json -> analyze_<mode>.txt). tests/golden/cli/ holds one
small grid per mode (grid_<mode>.json) and what the grid commands make of
it: `sweep` (sweep_<mode>.csv), `roofline` (roofline_<mode>.svg) and
`plot --kind <kind>` (plot_<kind>_<mode>.svg), with the stdout of each
command in stdout.txt, and argv.json: the exit code, stdout and stderr of
each of ARGV_FORMS, the argument forms a parser change must keep, from help
and usage errors to prefixes, `=` values and a `--`. A refactor must
reproduce the CSV, SVG, the grid commands' stdout and the analyze table
byte for byte, also when the scripts run a second time into the same
directory and write over their reports. The analyze JSON line prints
floats at full precision and is compared value by value with
GOLDEN_REL_TOL 0: latencies are added with math.fsum, whose correctly
rounded sum does not depend on the order of the terms, so no float may move.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import runpy
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from lmroofline.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CLI = GOLDEN / "cli"
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))
MODES = ("arm", "dlm_naive", "dlm_block")
GOLDEN_REL_TOL = 0.0
PLOT_KINDS = ("latency", "throughput", "ai")
PYTHON_VERSION = "%d.%d" % sys.version_info[:2]


def run_script(script: Path, out_dir: Path) -> None:
    argv = sys.argv
    sys.argv = [str(script), "--out-dir", str(out_dir)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv


def analyze_stdout(mode: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["analyze", "-c", str(GOLDEN / f"analyze_{mode}.json")])
    if code != 0:
        raise RuntimeError(f"analyze of {mode} exited {code}")
    return out.getvalue()


def grid_commands(mode: str) -> list[tuple[str, list[str]]]:
    """(output file name, argv without `-o`) of every grid command on mode's grid."""
    grid = str(GOLDEN_CLI / f"grid_{mode}.json")
    commands = [
        (f"sweep_{mode}.csv", ["sweep", "-c", grid]),
        (f"roofline_{mode}.svg", ["roofline", "-c", grid]),
    ]
    commands.extend(
        (f"plot_{kind}_{mode}.svg", ["plot", "--kind", kind, "-c", grid]) for kind in PLOT_KINDS
    )
    return commands


GRID_OUTPUTS = [name for mode in MODES for name, _ in grid_commands(mode)]

# Run in a directory holding s.json (analyze_arm.json) and g.json (cli/grid_arm.json).
ARGV_FORMS = [
    [], ["--help"], ["-h"], ["--he"], ["-h", "analyze"], ["--bogus", "analyze"],
    ["vibes"], ["ANALYZE"], [""], ["--", "analyze", "-c", "s.json"],
    *([command, "-h"] for command in ("analyze", "sweep", "roofline", "plot", "hw", "model")),
    ["hw", "show", "-h"], ["model", "list", "--help"], ["analyze", "-c", "s.json", "-h"],
    ["analyze", "-c", "s.json"], ["analyze", "--config=s.json"], ["analyze", "-cs.json"],
    ["analyze", "--conf", "s.json"], ["analyze", "-c", "missing.json", "-c", "s.json"],
    ["analyze", "-c", "missing.json"], ["analyze", "-c", "g.json"],
    ["analyze"], ["analyze", "-c"], ["analyze", "-c", "s.json", "extra"],
    ["analyze", "--bogus"], ["analyze", "--", "-c", "s.json"], ["analyze", "-c", "s.json", "--"],
    ["sweep", "-c", "g.json", "-o", "out.csv"], ["sweep", "-o", "out.csv", "--config", "g.json"],
    ["sweep", "-c", "g.json"], ["sweep", "-c", "g.json", "-o"],
    ["roofline", "-c", "g.json", "-o", "out.svg"], ["roofline", "-c", "s.json", "-o", "out.svg"],
    ["plot", "--kind=ai", "-c", "g.json", "-o", "ai.svg"],
    ["plot", "--ki", "latency", "-c", "g.json", "-o", "latency.svg"],
    ["plot", "-c", "g.json", "-o", "throughput.svg", "--kind", "throughput"],
    ["plot", "--kind", "bogus", "-c", "g.json", "-o", "p.svg"],
    ["plot", "-c", "g.json", "-o", "p.svg"],
    ["hw"], ["hw", "list"], ["hw", "lis"], ["hw", "list", "extra"], ["hw", "show"],
    ["hw", "show", "rtx-a6000"], ["hw", "show", "no-such-gpu"], ["hw", "--bogus", "list"],
    ["model"], ["model", "list"], ["model", "show", "llada-8b"], ["model", "show", "a", "b"],
    ["model", "show", "no\nsuch"],
]


def run_grid_command(argv: list[str], output: Path) -> str:
    """Run one grid command into `output`; its stdout, with the path replaced by the file name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([*argv, "-o", str(output)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return out.getvalue().replace(str(output), output.name)


def produce_grid_outputs(out_dir: Path) -> None:
    """Write every grid command's output, and their stdout as stdout.txt, into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout = [
        run_grid_command(argv, out_dir / name)
        for mode in MODES
        for name, argv in grid_commands(mode)
    ]
    (out_dir / "stdout.txt").write_text("".join(stdout), encoding="utf-8")


def run_argv_forms(work_dir: Path) -> list[list]:
    """[argv, exit code, stdout, stderr] of each of ARGV_FORMS, run in order in
    one process from work_dir, with help wrapped at 80 columns."""
    shutil.copy(GOLDEN / "analyze_arm.json", work_dir / "s.json")
    shutil.copy(GOLDEN_CLI / "grid_arm.json", work_dir / "g.json")
    runs = []
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):
            for argv in ARGV_FORMS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(list(argv))
                runs.append([argv, code, out.getvalue(), err.getvalue()])
    finally:
        os.chdir(cwd)
    return runs


def produce(out_dir: Path) -> None:
    """Write every golden file into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for script in SCRIPTS:
        run_script(script, out_dir)
    for mode in MODES:
        (out_dir / f"analyze_{mode}.txt").write_text(analyze_stdout(mode), encoding="utf-8")
    produce_grid_outputs(out_dir / "cli")
    with tempfile.TemporaryDirectory() as work_dir:
        recorded = {"python": PYTHON_VERSION, "runs": run_argv_forms(Path(work_dir))}
    (out_dir / "cli" / "argv.json").write_text(
        json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


def artifact_names() -> list[str]:
    return sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".csv", ".svg"))


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("golden")
    for script in SCRIPTS:
        run_script(script, out_dir)
    return out_dir


def test_golden_corpus_lists_every_script_output(produced):
    assert artifact_names()
    assert sorted(p.name for p in produced.iterdir()) == artifact_names()


@pytest.mark.parametrize("name", artifact_names())
def test_script_output_is_byte_identical(produced, name):
    assert (produced / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def rewritten(tmp_path_factory) -> Path:
    """The scripts' files after a second run into the same directory: each
    report is written over the one the first run left."""
    out_dir = tmp_path_factory.mktemp("golden_rewritten")
    for _ in range(2):
        for script in SCRIPTS:
            run_script(script, out_dir)
    return out_dir


@pytest.mark.parametrize("name", artifact_names())
def test_script_output_written_over_itself_is_byte_identical(rewritten, name):
    assert sorted(p.name for p in rewritten.iterdir()) == artifact_names()
    assert (rewritten / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def produced_grid(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("golden_cli")
    produce_grid_outputs(out_dir)
    return out_dir


def test_golden_cli_corpus_lists_every_grid_output():
    recorded = sorted(p.name for p in GOLDEN_CLI.iterdir() if p.suffix in (".csv", ".svg"))
    assert recorded == sorted(GRID_OUTPUTS)


@pytest.mark.parametrize("name", [*GRID_OUTPUTS, "stdout.txt"])
def test_grid_command_output_is_byte_identical(produced_grid, name):
    assert (produced_grid / name).read_bytes() == (GOLDEN_CLI / name).read_bytes()


ARGV_RECORD = json.loads((GOLDEN_CLI / "argv.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(PYTHON_VERSION != ARGV_RECORD["python"],
                    reason="argparse's help and error texts change between Python versions")
def test_every_argv_form_gives_its_recorded_exit_code_stdout_and_stderr(tmp_path):
    """argv.json was recorded when every call parsed with the whole CLI's
    parser: parsing with the running command's parser alone must change no
    byte. The parsers a call builds serve the calls after it, as they do in
    one process."""
    want = ARGV_RECORD["runs"]
    assert [argv for argv, *_ in want] == ARGV_FORMS
    for got, recorded in zip(run_argv_forms(tmp_path), want):
        assert got == recorded


def assert_close(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("mode", MODES)
def test_analyze_output_matches_golden(mode):
    got_lines = analyze_stdout(mode).splitlines()
    want_lines = (GOLDEN / f"analyze_{mode}.txt").read_text(encoding="utf-8").splitlines()
    assert got_lines[:-1] == want_lines[:-1]
    got, want = json.loads(got_lines[-1]), json.loads(want_lines[-1])
    assert list(got) == list(want)
    for key, value in want.items():
        assert_close(got[key], value, f"{mode}.{key}")


if __name__ == "__main__":
    produce(GOLDEN)
