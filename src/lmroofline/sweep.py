"""Parameter sweeps and the CSV report format.

A grid's points are its cases in turn, each over the cartesian product of
the axes as listed, the first axis varying slowest. Evaluation is pure, so
re-running a sweep reproduces the output byte for byte. `map_grid` is the
one loop over a grid's points, used by `run_sweep` and by the CLI's
`sweep`, `roofline` and `plot`; `write_csv` writes every CSV report.
"""

from __future__ import annotations

import itertools
import json
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
    _spelt,
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


class SweepGrid(namedtuple("SweepGrid", ("hardware", "axes", "cases"))):
    """A hardware spec, the cartesian axes, and the cases swept over them.

    `axes` is a tuple of (field name, tuple of values) pairs. `cases` is a
    nonempty tuple of (name, model, base) triples; an error names its case
    unless the name is "". Each point is a case's base workload with the
    point's axis values set, resolved by `resolve_workload`: a field of
    `base` may be None where an axis supplies it, and a None `steps` is the
    point's `gen_len`.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> SweepGrid:
        self = super().__new__(cls, *args, **kwargs)
        if not self.cases:
            raise ValidationError("a grid has at least one case")
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


def field_names(pairs: Iterable[tuple[str, object]]) -> list[str]:
    """`name=value` of each pair, for the name of a case or a plot's series:
    the value spelt as JSON spells it (`null`, `true`,
    `{"include_lm_head": true}`), but a string as it is."""
    return [f"{name}={value}" if isinstance(value, str) else
            f"{name}={_spelt(lambda v: json.dumps(v, ensure_ascii=False), value)}"
            for name, value in pairs]


def grid_from_dict(doc: dict, base_dir: str | None = None) -> SweepGrid:
    """Parse a grid document: a scenario document plus an `axes` object, and
    optionally `cases`, partial scenario documents each set over the grid's.

    Every scenario field is required unless it has a default or an axis
    supplies it. A case is named by its fields, and may not set `hardware`,
    `axes`, `cases` or a swept field; a document without cases is its one
    case, named "". The base workload is not validated here: each point is,
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
    if "cases" not in doc:
        model, hardware, base = read_scenario(scenario_doc, "grid", base_dir)
        return SweepGrid(hardware, tuple(axes), (("", model, base),))
    cases_doc = scenario_doc.pop("cases")
    if not isinstance(cases_doc, list) or not cases_doc:
        raise ValidationError("cases must be a nonempty list of JSON objects")
    cases = []
    for case in cases_doc:
        if not isinstance(case, dict):
            raise ValidationError(f"each case must be a JSON object (got {echo(case)})")
        name = echo(*field_names(case.items()), quote="") or "{}"
        reserved = case.keys() & {"hardware", "axes", "cases", *axes_doc}
        try:
            if reserved:
                raise ValidationError(f"a case may not set {echo(*sorted(reserved), quote='')}: "
                                      "the grid sets hardware, axes, cases and swept fields")
            model, hardware, base = read_scenario({**scenario_doc, **case}, "grid", base_dir)
        except ValidationError as exc:
            raise ValidationError(f"case {name}: {exc}") from exc
        cases.append((name, model, base))
    return SweepGrid(hardware, tuple(axes), tuple(cases))


def load_grid(path: str) -> SweepGrid:
    return grid_from_dict(_load_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


def map_grid(grid: SweepGrid, per_point: Callable[[ScenarioResult], object]
             ) -> Iterator[object]:
    """Yield per_point(result) of every grid point in the grid's order, keeping no result.

    An arm point whose workload equals, in every field but gen_len, that of
    its case's last arm point with a prompt takes that point's prefill and
    its seconds, so a gen_len axis builds one prefill per row. A
    ValidationError from building or evaluating a point names its case and
    the point.
    """
    # Each axis's WorkloadSpec slot, found once: a point is its values by slot.
    slots = [WorkloadSpec._fields.index(name) for name, _ in grid.axes]
    hardware = grid.hardware
    for case, model, base in grid.cases:
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
    return "%s,%s,%s,%s,%s,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%s,%.6g,%s" % (
        row.mode, row.B, row.Lp, row.Lg, "" if row.K is None else row.K,
        "" if row.G is None else row.G, row.flops, row.bytes, row.ai, row.latency_s,
        row.throughput_tok_s, row.bound, row.peak_mem_bytes, "true" if row.fits else "false")


def _csv_text(lines: Iterable[str]) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    for line in lines:
        yield line + "\n"


def write_csv(lines: Iterable[str], path: str) -> None:
    """Write the CSV header, then each line as it comes; a line has no newline."""
    _write_text(path, _csv_text(lines))


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
