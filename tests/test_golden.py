"""Golden corpus: the experiment scripts' CSV/SVG files and the CLI's output.

tests/golden/ holds the files the four scripts/*.py experiments write and
the stdout of `lmroofline analyze` on one scenario per mode
(analyze_<mode>.json -> analyze_<mode>.txt). tests/golden/cli/ holds one
small grid per mode (grid_<mode>.json) and what the grid commands make of
it: `sweep` (sweep_<mode>.csv), `roofline` (roofline_<mode>.svg) and
`plot --kind <kind>` (plot_<kind>_<mode>.svg), with the stdout of each
command in stdout.txt. A refactor must reproduce the CSV, SVG, the grid
commands' stdout and the analyze table byte for byte, also when the scripts
run a second time into the same directory and write over their reports. The analyze JSON line
prints floats at full precision and is compared value by value with
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
import runpy
import sys
from pathlib import Path

import pytest

from lmroofline.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CLI = GOLDEN / "cli"
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))
MODES = ("arm", "dlm_naive", "dlm_block")
GOLDEN_REL_TOL = 0.0
PLOT_KINDS = ("latency", "throughput", "ai")


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


def produce(out_dir: Path) -> None:
    """Write every golden file into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for script in SCRIPTS:
        run_script(script, out_dir)
    for mode in MODES:
        (out_dir / f"analyze_{mode}.txt").write_text(analyze_stdout(mode), encoding="utf-8")
    produce_grid_outputs(out_dir / "cli")


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
