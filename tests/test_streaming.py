"""Report writers stream: memory stays below the file they write, and a
rejected input writes nothing.

Each emitter runs its checks and computes its scales before it opens the
file, then writes each mark or row as it is formatted. So its peak traced
allocation is a small fraction of the file, and a rejected point leaves no
file behind, or an existing file as it was.
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
from lmroofline.sweep import grid_from_dict

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


# name -> (build the input, write it to a path).
WRITERS = {
    "emit_roofline_svg": (
        lambda: roofline_points(POINTS),
        lambda points, path: emit_roofline_svg(points, A6000, path),
    ),
    # The grid's shape: one series per value of the slower axes.
    "emit_line_svg": (
        lambda: line_series(POINTS, per_series=250),
        lambda series, path: emit_line_svg(series, path, "gen_len", "latency (s)", "t"),
    ),
    # One long series: its polyline is written in pieces of POLYLINE_CHUNK
    # coordinates, so its coordinate text is never held whole.
    "emit_line_svg-one-series": (
        lambda: line_series(POINTS, per_series=POINTS),
        lambda series, path: emit_line_svg(series, path, "gen_len", "latency (s)", "t"),
    ),
    "emit_csv": (lambda: sweep_rows(POINTS), emit_csv),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_writer_peak_is_below_half_its_file(tmp_path, writer):
    build, write = WRITERS[writer]
    data = build()  # the input is not part of the writer's cost
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
