"""Report writers stream: memory stays below the file they write, and a
rejected input writes nothing. An existing file is written over in place.

Each emitter runs its checks and computes its scales before it opens the
file, then writes each mark or row as it is formatted. So its peak traced
allocation is a small fraction of the file, and a rejected point leaves no
file behind, or an existing file as it was. The file is opened without
O_TRUNC and cut where the writing stopped: a rewrite leaves the bytes a
fresh write gives, in the same inode.
"""

from __future__ import annotations

import dataclasses
import os
import tracemalloc

import pytest

from lmroofline import (
    RooflinePoint,
    ValidationError,
    emit_csv,
    emit_line_svg,
    emit_roofline_svg,
    run_sweep,
)
from lmroofline.configs import HW_REGISTRY
from lmroofline.sweep import CSV_HEADER, grid_from_dict, write_csv

A6000 = HW_REGISTRY["rtx-a6000"]
POINTS = 2000


def roofline_points(n: int) -> list[RooflinePoint]:
    return [
        RooflinePoint(
            ai=1.0 + i, perf_attained=1e11 + 1e9 * i,
            bound="memory_bound" if i % 2 else "compute_bound", label=f"point {i}",
        )
        for i in range(n)
    ]


def line_series(n: int, per_series: int) -> list[tuple[str, list[tuple[float, float]]]]:
    return [
        (f"batch={s}", [(float(x + 1), 1e-3 * (s + 1) * (x + 1)) for x in range(per_series)])
        for s in range(n // per_series)
    ]


def sweep_rows(n: int) -> list:
    doc = {
        "model": "llama3-8b", "hardware": "rtx-a6000", "mode": "arm",
        "prompt_len": 64, "gen_len": 32, "axes": {"batch": [1]},
    }
    (row,) = run_sweep(grid_from_dict(doc))
    return [dataclasses.replace(row, B=b) for b in range(1, n + 1)]


# name -> (build an input of n points or rows, write it to a path).
WRITERS = {
    "emit_roofline_svg": (
        roofline_points,
        lambda points, path: emit_roofline_svg(points, A6000, path),
    ),
    # The grid's shape: one series per value of the slower axes.
    "emit_line_svg": (
        lambda n: line_series(n, per_series=min(n, 250)),
        lambda series, path: emit_line_svg(series, path, "gen_len", "latency (s)", "t"),
    ),
    # One long series: its polyline is written in pieces of POLYLINE_CHUNK
    # coordinates, so its coordinate text is never held whole.
    "emit_line_svg-one-series": (
        lambda n: line_series(n, per_series=n),
        lambda series, path: emit_line_svg(series, path, "gen_len", "latency (s)", "t"),
    ),
    "emit_csv": (sweep_rows, emit_csv),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_writer_peak_is_below_half_its_file(tmp_path, writer):
    build, write = WRITERS[writer]
    data = build(POINTS)  # the input is not part of the writer's cost
    path = str(tmp_path / "out")
    tracemalloc.start()
    try:
        write(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 100_000  # 2,000 points or rows
    assert peak < size / 2, f"peak {peak} bytes for a {size}-byte file"


BAD_VALUES = {"zero": 0.0, "nan": float("nan"), "inf": float("inf")}


@pytest.mark.parametrize("bad", list(BAD_VALUES))
@pytest.mark.parametrize(
    "call",
    [
        lambda bad, path: emit_roofline_svg(
            [*roofline_points(100), RooflinePoint(bad, 1e12, "memory_bound", "bad")], A6000, path
        ),
        lambda bad, path: emit_roofline_svg(
            [*roofline_points(100), RooflinePoint(1.0, bad, "memory_bound", "bad")], A6000, path
        ),
        lambda bad, path: emit_line_svg(
            [*line_series(100, 50), ("bad", [(2.0, 1.0), (bad, 1.0)])], path, "x", "y", "t"
        ),
        lambda bad, path: emit_line_svg(
            [*line_series(100, 50), ("bad", [(2.0, 1.0), (4.0, bad)])], path, "x", "y", "t"
        ),
    ],
    ids=["roofline-ai", "roofline-perf", "line-x", "line-y"],
)
def test_emitter_rejecting_its_last_point_writes_nothing(tmp_path, call, bad):
    # The bad point comes last, after points that would already be written if
    # the emitter checked as it wrote.
    missing, existing = tmp_path / "missing.svg", tmp_path / "existing.svg"
    existing.write_bytes(b"previous output\n")
    for path in (missing, existing):
        with pytest.raises(ValidationError, match="positive and finite"):
            call(BAD_VALUES[bad], str(path))
    assert not missing.exists()
    assert existing.read_bytes() == b"previous output\n"


@pytest.mark.parametrize("writer", list(WRITERS))
@pytest.mark.parametrize(
    "first, second", [(40, 10), (10, 40)], ids=["shorter-over-longer", "longer-over-shorter"]
)
def test_a_report_written_over_another_has_the_bytes_of_a_fresh_write(
    tmp_path, writer, first, second
):
    build, write = WRITERS[writer]
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    write(build(second), str(fresh))
    write(build(first), str(rewritten))
    assert rewritten.stat().st_size != fresh.stat().st_size
    write(build(second), str(rewritten))
    assert rewritten.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_rewrite_keeps_the_inode_mode_and_hard_links(tmp_path, writer):
    build, write = WRITERS[writer]
    path, link, fresh = tmp_path / "report", tmp_path / "link", tmp_path / "fresh"
    path.write_bytes(b"previous output\n" * 10_000)
    os.chmod(path, 0o640)
    os.link(path, link)
    before = os.stat(path)
    write(build(10), str(path))
    write(build(10), str(fresh))
    after = os.stat(path)
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
    assert link.read_bytes() == path.read_bytes() == fresh.read_bytes()


def test_an_error_mid_write_leaves_the_lines_written_and_no_old_tail(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("previous,output\n" * 10_000)

    def lines():
        yield "first"
        yield "second"
        raise RuntimeError("stopped after two lines")

    with pytest.raises(RuntimeError, match="stopped after two lines"):
        write_csv(lines(), str(path))
    assert path.read_text() == f"{CSV_HEADER}\nfirst\nsecond\n"


@pytest.mark.parametrize("writer", list(WRITERS))
def test_writers_open_without_o_trunc_and_never_replace_the_file(tmp_path, monkeypatch, writer):
    # Writing into a file just truncated to zero and closing it costs about
    # ten times an in-place rewrite on ext4, so no writer truncates on open,
    # and none deletes or renames the file to start a new one.
    build, write = WRITERS[writer]
    data = build(10)
    path = str(tmp_path / "report")
    opened = []
    real_open = os.open

    def recording_open(file, flags, *args, **kwargs):
        opened.append((os.fspath(file), flags))
        return real_open(file, flags, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError(f"a report writer replaced its file: {args}")

    monkeypatch.setattr(os, "open", recording_open)
    for name in ("unlink", "remove", "rename", "replace"):
        monkeypatch.setattr(os, name, refuse)
    write(data, path)  # creates the file
    write(data, path)  # writes over it
    assert [file for file, _ in opened] == [path, path]
    assert not any(flags & os.O_TRUNC for _, flags in opened)
