"""Parameter sweeps and the CSV report format.

Grid points are enumerated in lexicographic order of the axes as listed:
the first axis varies slowest. Evaluation is pure, so re-running a sweep
reproduces the output byte for byte.

A grid document is a scenario document plus `axes`, and `read_scenario`
reads both kinds; a field an axis supplies may be left out of a grid. Its
`cases`, if any, are the slowest axis. `map_grid` is the one loop over a
grid's points, used by `run_sweep` and by the CLI's `sweep`, `roofline`
and `plot`. It maps each axis to its WorkloadSpec slot once per grid,
resolves each point's workload from its (slot, value) pairs with
`resolve_workload`, as `scenario_from_dict` does for a scenario file with
none, builds its Scenario, which validates the workload once, and
evaluates it with `end_to_end`. An arm point whose workload equals that of
the case's last arm point with a prompt in every field but gen_len takes
that point's prefill and its seconds, so a gen_len axis builds one prefill
per row; nothing outlives the case, which may change the model. Any
error, from building the point or from evaluating it, names the case and
the point: its {axis: value} dict is built only then. It yields the
caller's function of each point's ScenarioResult and keeps none, so each
caller keeps only what it needs: `run_sweep` a row per point, `roofline`
the flattened RooflinePoints, with no tuple per point. `evaluate_point`
builds its SweepRow positionally.

`write_csv` writes the header and then each line as it comes, so no
document string is built. The CLI's `sweep` turns each point straight into
its line (`row_to_csv(evaluate_point(result))`), keeping no row or
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
    WorkloadSpec,
    _load_json,
    _write_text,
    echo,
    read_scenario,
    resolve_workload,
)
from .errors import ValidationError
from .memory import peak_footprint
from .phases import arithmetic_intensity
from .roofline import ScenarioResult, classify, end_to_end

AXIS_FIELDS = ("batch", "prompt_len", "gen_len", "steps", "block_size", "dtype_bytes")


class SweepGrid(namedtuple("SweepGrid", ("model", "hardware", "base", "axes", "cases"),
                           defaults=((),))):
    """A base workload plus the cartesian axes to sweep over it.

    `axes` is a tuple of (field name, tuple of values) pairs. Each point is
    `base` with the point's axis values set, resolved by `resolve_workload`.
    So a field of `base` (`batch`, `prompt_len`, `gen_len`, `steps`,
    `block_size`, `dtype_bytes`) may be None where an axis supplies it, and
    `steps` is None where it is unset: a diffusion point then takes its own
    `gen_len` as its step count.

    `cases` holds (name, model, base) triples, swept in turn. A grid without
    them is its one case ("", model, base); with them, model and base are
    the first case's.
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
    """Parse a grid document: a scenario document plus an `axes` object, and
    optionally `cases`, partial scenario documents each set over the grid's.

    Every scenario field is required unless it has a default or an axis
    supplies it. A case is named by its fields, and may not set `hardware`,
    `axes`, `cases` or a swept field. The base workload is not validated
    here: each point is, when `map_grid` builds it.
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
    if "cases" not in doc:
        return SweepGrid(*read_scenario(scenario_doc, "grid", base_dir), tuple(axes))
    cases_doc = scenario_doc.pop("cases")
    if not isinstance(cases_doc, list) or not cases_doc:
        raise ValidationError("cases must be a nonempty list of JSON objects")
    cases = []
    for case in cases_doc:
        if not isinstance(case, dict):
            raise ValidationError(f"each case must be a JSON object (got {echo(case)})")
        name = echo(*(f"{key}={value}" for key, value in case.items()), quote="") or "{}"
        reserved = case.keys() & {"hardware", "axes", "cases", *axes_doc}
        try:
            if reserved:
                raise ValidationError(f"a case may not set {echo(*sorted(reserved), quote='')}: "
                                      "the grid sets hardware, axes, cases and swept fields")
            model, hardware, base = read_scenario({**scenario_doc, **case}, "grid", base_dir)
        except ValidationError as exc:
            raise ValidationError(f"case {name}: {exc}") from exc
        cases.append((name, model, base))
    return SweepGrid(cases[0][1], hardware, cases[0][2], tuple(axes), tuple(cases))


def load_grid(path: str) -> SweepGrid:
    return grid_from_dict(_load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


def map_grid(grid: SweepGrid, per_point: Callable[[ScenarioResult], object]
             ) -> Iterator[object]:
    """Yield per_point(result) of every grid point, first listed axis varying
    slowest, reusing arm prefills as the module docstring says.

    A ValidationError from building the point's Scenario, or from
    evaluating it, names the point.
    """
    # Each axis's WorkloadSpec slot, found once: a point is its values by slot.
    slots = [WorkloadSpec._fields.index(name) for name, _ in grid.axes]
    hardware = grid.hardware
    for case, model, base in grid.cases or (("", grid.model, grid.base),):
        # The last prefilled arm point's workload but gen_len, and its prefill and seconds.
        key = prefill = None
        for combo in itertools.product(*(values for _, values in grid.axes)):
            try:
                scenario = Scenario(model, hardware, resolve_workload(base, zip(slots, combo)))
                w = scenario.workload
                if w.mode != "arm" or not w.prompt_len:
                    result = end_to_end(scenario)
                else:
                    fields = (w.mode, w.batch, w.prompt_len, w.steps, w.block_size,
                              w.dtype_bytes, w.options)
                    if fields == key:
                        result = end_to_end(scenario, prefill)
                    else:
                        result = end_to_end(scenario)
                        key, prefill = fields, (result.phases[0], result.phase_latencies[0])
                value = per_point(result)
                del result  # the next point is then built with no other point's phases alive
            except ValidationError as exc:
                point = dict(zip((name for name, _ in grid.axes), combo))
                where = f"case {case}: " if case else ""
                raise ValidationError(f"{where}grid point {echo(point)}: {exc}") from exc
            yield value


def evaluate_point(result: ScenarioResult) -> SweepRow:
    """The report row of an evaluated scenario; every number in it is finite as a float."""
    scenario = result.scenario
    footprint = peak_footprint(scenario)
    w = scenario.workload
    if footprint.total > MAX_FLOAT:
        raise ValidationError("result has a non-finite number: a total beyond the float range")
    ai = arithmetic_intensity(result)
    return SweepRow(w.mode, w.batch, w.prompt_len, w.gen_len, w.steps, w.block_size,
                    result.flops, result.bytes, ai, result.latency_s, result.throughput_tok_s,
                    classify(ai, scenario.hardware), footprint.total, footprint.fits)


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
