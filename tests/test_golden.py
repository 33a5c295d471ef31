"""Golden corpus: the experiment scripts' CSV/SVG files and `analyze` output.

tests/golden/ holds the files the four scripts/*.py experiments write and
the stdout of `lmroofline analyze` on one scenario per mode
(analyze_<mode>.json -> analyze_<mode>.txt). A refactor must reproduce the
CSV, SVG and the analyze table byte for byte; the analyze JSON line prints
floats at full precision, so those may move within GOLDEN_REL_TOL.

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
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))
MODES = ("arm", "dlm_naive", "dlm_block")
GOLDEN_REL_TOL = 1e-12


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


def produce(out_dir: Path) -> None:
    """Write every golden file into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for script in SCRIPTS:
        run_script(script, out_dir)
    for mode in MODES:
        (out_dir / f"analyze_{mode}.txt").write_text(analyze_stdout(mode), encoding="utf-8")


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
