"""Golden corpus: the experiments' CSV/SVG files and the CLI's output.

tests/golden/ holds the files the experiment commands of README.md's
"Experiments" table write, and the stdout of `lmroofline analyze` on one
scenario per mode (analyze_<mode>.json -> analyze_<mode>.txt). The table is
read from README.md and run as it stands, each grid read from the
repository and each output written into a temporary directory: a command
edited in the table without a re-record fails here. A `sweep` of a grid
with cases also has each case swept as a grid of its own, named by
CASE_CSVS (batch_throughput_arm.csv, batch_throughput_dlm.csv): the
grid's CSV must be those files' rows in case order under one header, so
sweeping a case after another changes none of its rows. tests/golden/cli/
holds one small grid per mode (grid_<mode>.json) and what the grid
commands make of it: `sweep` (sweep_<mode>.csv), `roofline`
(roofline_<mode>.svg) and `plot --kind <kind>` (plot_<kind>_<mode>.svg),
with the stdout of each command in stdout.txt, and argv.json: the exit
code, stdout and stderr of each of ARGV_FORMS, the argument forms a parser
change must keep, from help and usage errors to prefixes, `=` values and a
`--`. A refactor must
reproduce the CSV, SVG, the grid commands' stdout and the analyze table
byte for byte, also when the experiments run a second time into the same
directory and write over their reports. The analyze JSON line prints
floats at full precision and is compared value by value with
GOLDEN_REL_TOL 0: latencies are added with math.fsum, whose correctly
rounded sum does not depend on the order of the terms, so no float may move.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py

and replay the corpus without pytest, on any Python the package supports,
with

    PYTHONPATH=src python3 tests/test_golden.py --check

which writes every golden file into a temporary directory, compares each
with its recorded copy byte for byte (argv.json only on the minor version
it was recorded on), names each file that differs, and exits 1 if any does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

from lmroofline.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CLI = GOLDEN / "cli"
MODES = ("arm", "dlm_naive", "dlm_block")
GOLDEN_REL_TOL = 0.0
PLOT_KINDS = ("latency", "throughput", "ai")
PYTHON_VERSION = "%d.%d" % sys.version_info[:2]


def experiment_commands() -> list[list[str]]:
    """The argv, after `lmroofline`, of each command in README.md's
    experiments table, in the table's order."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]
    return [command.split() for command in re.findall(r"^\| `lmroofline ([^`]*)` \|", section,
                                                      re.MULTILINE)]


EXPERIMENTS = experiment_commands()

# The CSV of a sweep over a grid with cases -> the file of each case swept alone.
CASE_CSVS = {"batch_throughput.csv": ("batch_throughput_arm.csv", "batch_throughput_dlm.csv")}


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def sweep_each_case(grid_path: Path, names: tuple[str, ...], out_dir: Path) -> None:
    """Sweep each case of the grid at grid_path as a grid of that case
    alone, into out_dir / names[i]."""
    grid = json.loads(grid_path.read_text(encoding="utf-8"))
    assert len(grid["cases"]) == len(names)
    with tempfile.TemporaryDirectory() as work_dir:
        for case, name in zip(grid["cases"], names):
            case_grid = Path(work_dir) / "case.json"
            case_grid.write_text(json.dumps({**grid, "cases": [case]}), encoding="utf-8")
            run_cli(["sweep", "-c", str(case_grid), "-o", str(out_dir / name)])


def run_experiments(out_dir: Path) -> None:
    """Run every experiment command, its `-c` path read from the repository
    root and its `-o` path written into out_dir, and sweep each case of the
    grids CASE_CSVS names."""
    roots = {"-c": REPO, "-o": out_dir}
    for argv in EXPERIMENTS:
        argv = [str(roots[flag] / arg) if flag in roots else arg
                for flag, arg in zip(["", *argv], argv)]
        run_cli(argv)
        output = Path(argv[argv.index("-o") + 1])
        if argv[0] == "sweep" and output.name in CASE_CSVS:
            sweep_each_case(Path(argv[argv.index("-c") + 1]), CASE_CSVS[output.name], out_dir)


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
    run_experiments(out_dir)
    for mode in MODES:
        (out_dir / f"analyze_{mode}.txt").write_text(analyze_stdout(mode), encoding="utf-8")
    produce_grid_outputs(out_dir / "cli")
    with tempfile.TemporaryDirectory() as work_dir:
        recorded = {"python": PYTHON_VERSION, "runs": run_argv_forms(Path(work_dir))}
    (out_dir / "cli" / "argv.json").write_text(
        json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


ARGV_RECORD = json.loads((GOLDEN_CLI / "argv.json").read_text(encoding="utf-8"))


def check() -> int:
    """Replay the corpus: `produce` into a temporary directory, then compare
    every file it writes or the corpus records (but the commands' inputs)
    with its recorded copy, byte for byte. Print each that differs or is
    missing on one side; 1 if any does, else 0."""
    inputs = {GOLDEN / f"analyze_{mode}.json" for mode in MODES}
    inputs.update(GOLDEN_CLI / f"grid_{mode}.json" for mode in MODES)
    argv = Path("cli", "argv.json")
    with tempfile.TemporaryDirectory() as work_dir:
        out_dir = Path(work_dir)
        produce(out_dir)
        names = {path.relative_to(out_dir) for path in out_dir.rglob("*") if path.is_file()}
        names.update(path.relative_to(GOLDEN) for path in GOLDEN.rglob("*")
                     if path.is_file() and path not in inputs)
        if PYTHON_VERSION != ARGV_RECORD["python"]:
            print(f"skipped {argv}: recorded on Python {ARGV_RECORD['python']}")
            names.discard(argv)
        differ = [name for name in sorted(names)
                  if not ((out_dir / name).is_file() and (GOLDEN / name).is_file()
                          and (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes())]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names) - len(differ)} of {len(names)} golden files match "
          f"on Python {sys.version.split()[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    sys.exit(check() if sys.argv[1:] else produce(GOLDEN))

# Imported after the script's entry point, which runs without pytest: the
# floor that requires-python names, 3.10, has none.
import pytest  # noqa: E402


def artifact_names() -> list[str]:
    return sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".csv", ".svg"))


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> Path:
    out_dir = tmp_path_factory.mktemp("golden")
    run_experiments(out_dir)
    return out_dir


def test_golden_corpus_lists_every_script_output(produced):
    """The files of the experiments table's commands, one per command, and
    one per case of each grid CASE_CSVS names."""
    assert artifact_names()
    case_csvs = sum(len(names) for names in CASE_CSVS.values())
    assert len(EXPERIMENTS) + case_csvs == len(artifact_names())
    assert sorted(p.name for p in produced.iterdir()) == artifact_names()


@pytest.mark.parametrize("name", sorted(CASE_CSVS))
def test_a_case_grid_csv_is_each_case_swept_alone_in_turn(produced, name):
    header, *rows = (produced / name).read_text(encoding="utf-8").splitlines(keepends=True)
    case_rows = []
    for case_name in CASE_CSVS[name]:
        case_header, *case_lines = (produced / case_name).read_text(
            encoding="utf-8").splitlines(keepends=True)
        assert case_header == header and case_lines
        case_rows.extend(case_lines)
    assert rows == case_rows


@pytest.mark.parametrize("name", artifact_names())
def test_script_output_is_byte_identical(produced, name):
    assert (produced / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def rewritten(tmp_path_factory) -> Path:
    """The experiments' files after a second run into the same directory:
    each report is written over the one the first run left."""
    out_dir = tmp_path_factory.mktemp("golden_rewritten")
    for _ in range(2):
        run_experiments(out_dir)
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


@pytest.mark.skipif(PYTHON_VERSION != ARGV_RECORD["python"],
                    reason="argparse's help and error texts change between Python versions")
def test_every_argv_form_gives_its_recorded_exit_code_stdout_and_stderr(tmp_path):
    """Every argv form gives its recorded exit code, stdout and stderr, byte
    for byte; a usage error prints the usage line of the command it names.
    The parsers a call builds serve the calls after it, as they do in one
    process."""
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

