"""Parameter sweeps and the CSV report format.

Grid points are enumerated in lexicographic order of the axes as listed:
the first axis varies slowest. Evaluation is pure, so re-running a sweep
reproduces the output byte for byte.

A grid document is a scenario document plus `axes`, and `read_scenario`
reads both kinds; a field an axis supplies may be left out of a grid.
`map_grid` is the one loop over a grid's points, used by `run_sweep` and by
the CLI's `sweep`, `roofline` and `plot`. It resolves each point's workload
with `resolve_workload`, as `scenario_from_dict` does for a scenario file,
and builds its Scenario, which validates the workload once. Any error, from
building the point or from evaluating it, names the point. It yields each
point's result as it is evaluated and keeps none, so each caller keeps only
what it needs: `run_sweep` a row per point, `roofline` the flattened
RooflinePoints, with no tuple per point.

`write_csv` writes the header and then each line as it comes, so no
document string is built. The CLI's `sweep` turns each point straight into
its line (`row_to_csv(evaluate_point(scenario))`), keeping no row or
footprint per point, and opens the file only after every point is
evaluated: a rejected point leaves an existing output file as it was. The
file is written by `configs._write_text`: over an existing file in place,
then cut where the CSV ends.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields
from math import isfinite

from .configs import (
    MAX_FLOAT,
    Scenario,
    _load_json,
    _write_text,
    echo,
    read_scenario,
    resolve_workload,
)
from .errors import ValidationError
from .memory import peak_footprint
from .phases import arithmetic_intensity
from .roofline import classify, end_to_end

AXIS_FIELDS = ("batch", "prompt_len", "gen_len", "steps", "block_size", "dtype_bytes")


class SweepGrid(namedtuple("SweepGrid", ("model", "hardware", "base", "axes"))):
    """A base workload plus the cartesian axes to sweep over it.

    `axes` is a tuple of (field name, tuple of values) pairs. Each point is
    `base` with the point's axis values set, resolved by `resolve_workload`.
    So a field of `base` (`batch`, `prompt_len`, `gen_len`, `steps`,
    `block_size`, `dtype_bytes`) may be None where an axis supplies it, and
    `steps` is None where it is unset: a diffusion point then takes its own
    `gen_len` as its step count.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> SweepGrid:
        self = super().__new__(cls, *args, **kwargs)
        seen = set()
        for name, values in self.axes:
            if name not in AXIS_FIELDS:
                raise ValidationError(
                    f"unknown sweep axis {echo(name)} (allowed: {', '.join(AXIS_FIELDS)})"
                )
            if name in seen:
                raise ValidationError(f"duplicate sweep axis '{name}'")
            seen.add(name)
            if len(values) == 0:
                raise ValidationError(f"sweep axis '{name}' has no values")
        return self


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point. Its field names are the CSV header."""

    mode: str
    B: int
    Lp: int
    Lg: int
    K: int | None
    G: int | None
    flops: int
    bytes: int
    ai: float
    latency_s: float
    throughput_tok_s: float
    bound: str
    peak_mem_bytes: int
    fits: bool


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def grid_from_dict(doc: dict, base_dir: str | None = None) -> SweepGrid:
    """Parse a grid document: a scenario document plus an `axes` object.

    Every scenario field is required unless it has a default or an axis
    supplies it. The base workload is not validated here: each point is,
    when `map_grid` builds it.
    """
    if not isinstance(doc, dict):
        raise ValidationError("grid must be a JSON object")
    if "axes" not in doc:
        raise ValidationError("missing field(s) in grid: axes")
    axes_doc = doc["axes"]
    if not isinstance(axes_doc, dict):
        raise ValidationError("axes must be a JSON object of field -> value list")
    axes = []
    for name, values in axes_doc.items():
        if not isinstance(values, list):
            raise ValidationError(f"axis {echo(name)} must map to a list of values")
        axes.append((name, tuple(values)))
    # A field an axis supplies is None in the base unless the document gives it.
    scenario_doc = {**dict.fromkeys(set(AXIS_FIELDS) & axes_doc.keys()), **doc}
    del scenario_doc["axes"]
    model, hardware, base = read_scenario(scenario_doc, "grid", base_dir)
    return SweepGrid(model=model, hardware=hardware, base=base, axes=tuple(axes))


def load_grid(path: str) -> SweepGrid:
    return grid_from_dict(_load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


def map_grid(grid: SweepGrid, evaluate: Callable[[Scenario], object]) -> Iterator[object]:
    """Yield evaluate(scenario) at every grid point, first listed axis varying slowest.

    A ValidationError from building the point's Scenario, or from
    evaluating it, names the point.
    """
    names = [name for name, _ in grid.axes]
    for combo in itertools.product(*(values for _, values in grid.axes)):
        point = dict(zip(names, combo))
        try:
            scenario = Scenario(grid.model, grid.hardware, resolve_workload(grid.base, point))
            result = evaluate(scenario)
        except ValidationError as exc:
            raise ValidationError(f"grid point {echo(point)}: {exc}") from exc
        yield result


def evaluate_point(scenario: Scenario) -> SweepRow:
    """Evaluate one scenario into a report row; every number in it is finite as a float."""
    result = end_to_end(scenario)
    footprint = peak_footprint(scenario)
    w = scenario.workload
    if footprint.total > MAX_FLOAT:
        raise ValidationError("result has a non-finite number: a total beyond the float range")
    ai = arithmetic_intensity(result)
    return SweepRow(
        mode=w.mode,
        B=w.batch,
        Lp=w.prompt_len,
        Lg=w.gen_len,
        K=w.steps,
        G=w.block_size,
        flops=result.flops,
        bytes=result.bytes,
        ai=ai,
        latency_s=result.latency_s,
        throughput_tok_s=result.throughput_tok_s,
        bound=classify(ai, scenario.hardware),
        peak_mem_bytes=footprint.total,
        fits=footprint.fits,
    )


def run_sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate every grid point, first listed axis varying slowest."""
    return list(map_grid(grid, evaluate_point))


def row_to_csv(row: SweepRow) -> str:
    """One CSV line: floats and the int totals to 6 significant digits, None as empty."""
    k = "" if row.K is None else row.K
    g = "" if row.G is None else row.G
    return (
        f"{row.mode},{row.B},{row.Lp},{row.Lg},{k},{g},{float(row.flops):.6g},"
        f"{float(row.bytes):.6g},{row.ai:.6g},{row.latency_s:.6g},{row.throughput_tok_s:.6g},"
        f"{row.bound},{float(row.peak_mem_bytes):.6g},{'true' if row.fits else 'false'}"
    )


def _csv_text(lines: Iterable[str]) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    for line in lines:
        yield line + "\n"


def write_csv(lines: Iterable[str], path: str) -> None:
    """Write the CSV header, then each line as it comes; a line has no newline."""
    _write_text(path, _csv_text(lines), newline="")


def emit_csv(rows: list[SweepRow], path: str) -> None:
    """Write rows to path; floats carry 6 significant digits.

    Every row is checked before the file is opened, so a rejected call
    writes nothing: each float must be finite and each total convert to one.
    """
    for index, row in enumerate(rows):
        if not (isfinite(row.ai) and isfinite(row.latency_s) and isfinite(row.throughput_tok_s)
                and row.flops <= MAX_FLOAT and row.bytes <= MAX_FLOAT
                and row.peak_mem_bytes <= MAX_FLOAT):
            raise ValidationError(f"row {index} has a non-finite number or a total beyond "
                                  "the float range")
    write_csv(map(row_to_csv, rows), path)
