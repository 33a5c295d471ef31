"""Grid sweeps, the power-law fit the acceptance checks use, and the CSV report contract."""

import dataclasses
import itertools
import json
import math
import os
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmroofline import (
    CountingOptions,
    HW_REGISTRY,
    MODEL_REGISTRY,
    RooflinePoint,
    SweepGrid,
    SweepRow,
    ValidationError,
    WorkloadSpec,
    cli,
    emit_csv,
    load_grid,
    run_sweep,
)
from lmroofline.cli import main as cli_main
from lmroofline.configs import (
    MAX_FLOAT,
    MODES,
    Scenario,
    echo,
    require_int,
    scenario_from_dict,
    validate_workload,
)
from lmroofline.memory import peak_footprint
from lmroofline.roofline import end_to_end
from lmroofline.sweep import (
    AXIS_FIELDS,
    CSV_HEADER,
    evaluate_point,
    field_names,
    grid_from_dict,
    map_grid,
    row_to_csv,
)
from oracles import (
    Unspellable,
    csv_text,
    loglog_slope,
    nested_list,
    one_case_grid,
    parse_csv,
    patch_everywhere,
    recursion_depth,
)

LLAMA = MODEL_REGISTRY["llama3-8b"]
LLADA = MODEL_REGISTRY["llada-8b"]
A6000 = HW_REGISTRY["rtx-a6000"]


def arm_grid(axes):
    base = WorkloadSpec(mode="arm", batch=1, prompt_len=64, gen_len=32)
    return one_case_grid(model=LLAMA, hardware=A6000, base=base, axes=axes)


def test_rows_enumerate_first_axis_slowest():
    grid = arm_grid((("gen_len", (128, 256)), ("batch", (1, 2))))
    rows = run_sweep(grid)
    assert [(r.Lg, r.B) for r in rows] == [(128, 1), (128, 2), (256, 1), (256, 2)]


def test_unknown_axis_rejected():
    with pytest.raises(ValidationError, match="unknown sweep axis"):
        arm_grid((("temperature", (1, 2)),))


def test_duplicate_axis_rejected():
    with pytest.raises(ValidationError, match="duplicate sweep axis"):
        arm_grid((("batch", (1,)), ("batch", (2,))))


def test_empty_axis_rejected():
    with pytest.raises(ValidationError, match="has no values"):
        arm_grid((("batch", ()),))


def test_a_grid_is_its_cases_and_has_at_least_one():
    assert SweepGrid._fields == ("hardware", "axes", "cases")
    with pytest.raises(ValidationError, match="a grid has at least one case"):
        SweepGrid(A6000, (("batch", (1, 2)),), ())


def test_invalid_point_error_names_the_point():
    base = WorkloadSpec(mode="dlm_block", batch=1, prompt_len=64, gen_len=128, steps=128)
    grid = one_case_grid(
        model=LLADA, hardware=A6000, base=base, axes=(("block_size", (32, 256)),)
    )
    with pytest.raises(ValidationError, match=r"grid point \{'block_size': 256\}"):
        run_sweep(grid)


def free_list_grid(gen_lens, mode="dlm_naive"):
    """A grid of 20 batches x 10 prompt lengths x `gen_lens`: llada-8b
    dlm_naive over prompts 0..9, or llama3-8b arm over prompts 1..10, so
    that every arm point has a prefill."""
    model, prompts = (LLAMA, range(1, 11)) if mode == "arm" else (LLADA, range(10))
    axes = (("batch", tuple(range(1, 21))), ("prompt_len", tuple(prompts)),
            ("gen_len", gen_lens))
    return one_case_grid(model, A6000, WorkloadSpec(mode, None, None, None), axes)


def traced_growth_over_grid(per_point, mode="dlm_naive"):
    """(traced bytes left, per_point calls, results) of map_grid over 2,000 `mode` points.

    Each result is dropped as it comes. The warm-up grid has 200 points: a
    full-size one would fill the tuple free list before tracing starts, and
    hide the growth.
    """
    calls = 0

    def counting(result):
        nonlocal calls
        calls += 1
        return per_point(result)

    for _ in map_grid(free_list_grid((1,), mode), counting):
        pass
    full = free_list_grid(tuple(range(1, 11)), mode)
    calls = results = 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in map_grid(full, counting):
            results += 1
        del _
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return left, calls, results


def test_grid_points_leave_no_spare_objects_on_the_free_lists():
    """map_grid over 2,000 points, resolving and evaluating each, leaves
    under 16 KB traced.

    CPython keeps freed tuples on one free list per size, up to 2,000 each,
    and freed lists and dicts on free lists of 80. A tuple built from an
    iterator, as a namedtuple's `_replace` builds one, is not drawn from
    the free list it is freed onto; neither is a list made by calling
    `list`. So resolving each point's WorkloadSpec with `_replace` leaves
    one more spare 8-slot tuple per point: 166 KB over this grid, all of it
    counted by tracemalloc and so by the benchmark's peak_alloc_mb; and
    end_to_end's phase latencies, when they were a tuple built from a
    generator, left one spare 2-slot tuple per point: 86 KB. The bounded
    lists and dicts hold at most about 5 KB each. So the package builds
    these from list and tuple displays, which are drawn from the free lists:
    `configs.resolve_workload`, `roofline.end_to_end` and
    `ScenarioResult.points` name this test. The caller's function must run
    once per point, so that a lazy map_grid cannot pass unevaluated.
    """
    left, calls, results = traced_growth_over_grid(lambda result: None)
    assert calls == results == 2_000
    assert left < 16_000


def test_evaluated_points_leave_no_spare_objects_on_the_free_lists():
    """The report row of each of 2,000 points, as `sweep` builds one and
    drops it, leaves under 16 KB traced, as evaluating them does (the test
    above)."""
    left, calls, results = traced_growth_over_grid(evaluate_point)
    assert calls == results == 2_000
    assert left < 16_000


def test_arm_points_reusing_a_prefill_leave_no_spare_objects_on_the_free_lists():
    """An arm grid along gen_len leaves under 16 KB traced. Nine in ten of
    its points reuse the prefill of the point before, and that path builds
    its key, phases and latencies as tuple displays too."""
    left, calls, results = traced_growth_over_grid(lambda result: None, "arm")
    assert calls == results == 2_000
    assert left < 16_000


def traced_peak_over_grid(points):
    """Traced peak of map_grid over `points` llada-8b dlm_block points with every
    cost term on, each result dropped as it comes, after one warm-up run."""
    options = CountingOptions(True, True, True, True, False)
    base = WorkloadSpec("dlm_block", None, 1024, 4096, None, 64, options=options)
    grid = one_case_grid(LLADA, A6000, base, (("batch", tuple(range(1, points + 1))),))
    for _ in map_grid(grid, lambda result: None):
        pass
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in map_grid(grid, lambda result: None):
            pass
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_grid_holds_one_points_evaluation_at_a_time():
    """map_grid's traced peak over 3 points is within 2,000 bytes of its peak
    over 1: each point's ScenarioResult is freed before the next point is
    evaluated. Measured 0.5 KB apart. A result kept until the next one
    replaces it adds its phases to the peak, 4.8 KB here, and to the
    benchmark's peak_alloc_mb: +6.9% on dlm-block-refresh."""
    assert traced_peak_over_grid(3) - traced_peak_over_grid(1) < 2_000


def test_roofline_holds_its_points_and_a_fixed_working_set(tmp_path):
    """The traced peak of `roofline` over 2,000 points is within a fixed
    margin of its RooflinePoint list built alone.

    The command keeps the flattened points until the SVG is written. Beyond
    them it holds a working set that does not grow with the grid:
    - the output file's buffers, st_blksize bytes of binary buffer and up to
      8,192 bytes of text pending encoding (io's chunk size);
    - the parsed grid, one point's evaluation and the SVG frame, measured at
      about 21 KB on a 10-point grid whose SVG never fills the text chunk.
      The margin allows 32,000 bytes for them, half again as much.
    Here that measures 33 KB in all. Any object kept per point is at least
    24 bytes traced (a float); one 1-tuple per point, 48 bytes with its GC
    header, adds 96 KB over this grid, as the points of each point kept in
    a tuple until the SVG is written did.
    """
    def write_grid(name, gen_lens):
        doc = {"model": "llada-8b", "hardware": "rtx-a6000", "mode": "dlm_naive",
               "axes": {"batch": list(range(1, 21)), "prompt_len": list(range(10)),
                        "gen_len": gen_lens}}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    out = str(tmp_path / "roofline.svg")
    assert cli_main(["roofline", "-c", write_grid("warm.json", [1]), "-o", out]) == 0
    full = write_grid("full.json", list(range(1, 11)))
    grid = load_grid(full)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        points = [point for per_point in map_grid(grid, attrgetter("points"))
                  for point in per_point]
        alone = tracemalloc.get_traced_memory()[0] - before
        assert len(points) == 2_000
        del points
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert cli_main(["roofline", "-c", full, "-o", out]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    margin = os.stat(tmp_path).st_blksize + 8_192 + 32_000
    assert alone < peak < alone + margin


def test_row_ai_consistent_with_totals():
    rows = run_sweep(arm_grid((("batch", (1, 2, 4)),)))
    for row in rows:
        assert row.ai == pytest.approx(row.flops / row.bytes, rel=1e-12)
        assert row.fits == (row.peak_mem_bytes <= A6000.mem_capacity)


# The acceptance checks c2a-c2e read their scaling exponents off
# oracles.loglog_slope, which must be exact on pure power laws.


def test_fitter_exact_on_linear_points():
    assert loglog_slope([(1, 1), (2, 2), (4, 4)]) == pytest.approx(1.0, abs=1e-12)


def test_fitter_exact_on_constant_points():
    assert loglog_slope([(1, 5), (2, 5), (4, 5)]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 2.0])
def test_fitter_exact_on_synthetic_power_laws(exponent):
    points = [(x, 3.7 * x**exponent) for x in (1.0, 2.0, 4.0, 8.0, 64.0)]
    assert loglog_slope(points) == pytest.approx(exponent, abs=1e-12)


@given(
    exponent=st.floats(min_value=-2, max_value=2),
    scale=st.floats(min_value=0.1, max_value=100),
)
def test_fitter_recovers_exponent_from_exact_power_law(exponent, scale):
    points = [(float(x), scale * float(x) ** exponent) for x in (1, 2, 4, 8, 16)]
    assert loglog_slope(points) == pytest.approx(exponent, abs=1e-9)


def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "mode,B,Lp,Lg,K,G,flops,bytes,ai,latency_s,throughput_tok_s,bound,peak_mem_bytes,fits"
    )


def test_empty_sweep_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text() == CSV_HEADER + "\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("latency_s", math.nan),
        ("ai", math.inf),
        ("throughput_tok_s", -math.inf),
        ("flops", 10**400),
        ("bytes", 10**400),
        ("peak_mem_bytes", 10**400),
    ],
    ids=["nan-latency_s", "inf-ai", "-inf-throughput", "huge-flops", "huge-bytes", "huge-peak"],
)
def test_emit_csv_rejects_a_row_it_cannot_write_before_opening_the_file(tmp_path, field, value):
    # A row built through the Python API skips evaluate_point's checks; no NaN
    # may reach the CSV, and an int the float format cannot hold must not
    # escape as an OverflowError from a half-written file.
    rows = run_sweep(arm_grid((("batch", (1, 2)),)))
    rows[1] = dataclasses.replace(rows[1], **{field: value})
    path = tmp_path / "out.csv"
    with pytest.raises(ValidationError, match="row 1 "):
        emit_csv(rows, str(path))
    assert not path.exists()
    path.write_text("kept")
    with pytest.raises(ValidationError, match="row 1 "):
        emit_csv(rows, str(path))
    assert path.read_text() == "kept"


def test_arm_rows_leave_dlm_columns_empty(tmp_path):
    path = tmp_path / "arm.csv"
    rows = run_sweep(arm_grid((("batch", (1,)),)))
    emit_csv(rows, str(path))
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    header = CSV_HEADER.split(",")
    assert cells[header.index("K")] == ""
    assert cells[header.index("G")] == ""
    assert cells[header.index("mode")] == "arm"


# README's "CSV schema", one field at a time: the floats and the int totals
# by `%.6g`, an unset K or G as an empty field, and fits as true or false.
CSV_FLOAT_FIELDS = ("flops", "bytes", "ai", "latency_s", "throughput_tok_s", "peak_mem_bytes")


def csv_line_field_by_field(row):
    cells = []
    for field in dataclasses.fields(row):
        value = getattr(row, field.name)
        if field.name in CSV_FLOAT_FIELDS:
            cells.append(format(float(value), ".6g"))
        elif field.name == "fits":
            cells.append("true" if value else "false")
        else:
            cells.append("" if value is None else str(value))
    return ",".join(cells)


# Totals on both sides of 2**53, where an int stops converting to a float
# exactly, up to the float range; floats from the subnormals to the largest.
csv_totals = st.integers(0, 2**53) | st.integers(2**53 + 1, int(MAX_FLOAT))
csv_floats = (st.floats(0.0, sys.float_info.min, exclude_max=True)
              | st.floats(1e300, MAX_FLOAT) | st.floats(min_value=0.0, allow_infinity=False))
csv_counts = st.integers(0, 2**64)


@given(st.builds(
    SweepRow, mode=st.sampled_from(MODES), B=csv_counts, Lp=csv_counts, Lg=csv_counts,
    K=st.none() | csv_counts, G=st.none() | csv_counts, flops=csv_totals, bytes=csv_totals,
    ai=csv_floats, latency_s=csv_floats, throughput_tok_s=csv_floats,
    bound=st.sampled_from(("compute_bound", "memory_bound")), peak_mem_bytes=csv_totals,
    fits=st.booleans(),
))
def test_a_csv_line_is_the_schema_applied_field_by_field(row):
    assert row_to_csv(row) == csv_line_field_by_field(row)


def test_repeated_sweep_is_byte_identical(tmp_path):
    grid = arm_grid((("gen_len", (32, 64)), ("batch", (1, 2, 4)),))
    first = csv_text(run_sweep(grid))
    second = csv_text(run_sweep(grid))
    assert first == second
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(grid), str(p1))
    emit_csv(run_sweep(grid), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trips(tmp_path):
    path = tmp_path / "round.csv"
    rows = run_sweep(arm_grid((("batch", (1, 2)),)))
    emit_csv(rows, str(path))
    back = parse_csv(str(path))
    assert len(back) == len(rows)
    for row, again in zip(rows, back):
        assert again.mode == row.mode
        assert again.B == row.B
        assert again.Lp == row.Lp
        assert again.Lg == row.Lg
        assert again.K == row.K
        assert again.G == row.G
        assert again.bound == row.bound
        assert again.fits == row.fits
        assert math.isclose(again.ai, row.ai, rel_tol=1e-5)
        assert math.isclose(again.latency_s, row.latency_s, rel_tol=1e-5)
        assert math.isclose(again.flops, row.flops, rel_tol=1e-5)


def test_parse_rejects_foreign_csv(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError, match="bad header"):
        parse_csv(str(path))


EXPERIMENTS = os.path.join(os.path.dirname(__file__), os.pardir, "experiments")


def test_blockwise_ai_grid_is_invariant_per_block_size():
    # AI depends on the block size, not on how far the generation runs
    rows = run_sweep(load_grid(os.path.join(EXPERIMENTS, "blockwise_ai.json")))
    assert len(rows) == 12
    for start in range(0, 12, 4):
        group = rows[start : start + 4]
        ais = [r.ai for r in group]
        assert max(ais) / min(ais) < 1.05
        assert all(r.K == r.Lg for r in group)  # steps re-resolved per point


def test_step_budget_grid_runs_all_points():
    rows = run_sweep(load_grid(os.path.join(EXPERIMENTS, "step_scaling.json")))
    assert len(rows) == 15
    assert [r.K for r in rows[:5]] == [128, 64, 32, 16, 4]


def test_grid_loads_from_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(
        json.dumps(
            {
                "model": "llama3-8b",
                "hardware": "rtx-a6000",
                "mode": "arm",
                "prompt_len": 64,
                "gen_len": 32,
                "axes": {"batch": [1, 2]},
            }
        )
    )
    grid = load_grid(str(path))
    rows = run_sweep(grid)
    assert [r.B for r in rows] == [1, 2]


def test_grid_requires_axes_object():
    with pytest.raises(ValidationError, match="axes"):
        grid_from_dict({"model": "llama3-8b", "hardware": "rtx-a6000", "mode": "arm"})


@pytest.mark.parametrize(
    "doc, message",
    [
        ([{"batch": [1]}], "grid must be a JSON object"),
        ({"model": "llama3-8b", "hardware": "rtx-a6000", "mode": "arm", "axes": [1]},
         "axes must be a JSON object"),
        ({"model": "llama3-8b", "hardware": "rtx-a6000", "axes": {}, "cases": []},
         "cases must be a nonempty list"),
        ({"model": "llama3-8b", "hardware": "rtx-a6000", "axes": {}, "cases": ["arm"]},
         "each case must be a JSON object (got 'arm')"),
    ],
    ids=["list-document", "list-axes", "empty-cases", "string-case"],
)
def test_grid_document_shape_exits_1(tmp_path, capsys, doc, message):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    output = tmp_path / "out.csv"
    assert cli_main(["sweep", "-c", str(path), "-o", str(output)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert not output.exists()


GRID_COMMANDS = {"sweep": ["sweep"], "roofline": ["roofline"], "plot": ["plot", "--kind", "ai"]}
SVG_NS = "http://www.w3.org/2000/svg"


def run_grid_command(tmp_path, capsys, argv, doc):
    """(exit code, stdout, stderr, whether the output exists) of a grid
    command on grid `doc`."""
    path, output = tmp_path / "grid.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    code = cli_main([*argv, "-c", str(path), "-o", str(output)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, output.exists()


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
@pytest.mark.parametrize("field, value", [
    ("hardware", "a100-80g"), ("batch", 2), ("axes", {}), ("cases", []),
], ids=["hardware", "swept-field", "axes", "cases"])
def test_a_case_that_sets_what_only_the_grid_sets_exits_1_naming_it(
        tmp_path, capsys, command, field, value):
    """A case may not set the hardware (a grid keeps one ridge), a field an
    axis sweeps (the axis would override it), `axes` or `cases`."""
    doc = {"model": "llama3-8b", "hardware": "rtx-a6000", "mode": "arm", "prompt_len": 8,
           "gen_len": 16, "cases": [{"gen_len": 8}, {"gen_len": 4, field: value}],
           "axes": {"batch": [1, 2]}}
    assert run_grid_command(tmp_path, capsys, GRID_COMMANDS[command], doc) == (
        1, "", f"error: case gen_len=4, {field}={value}: a case may not set {field}: the grid "
        "sets hardware, axes, cases and swept fields\n", False)


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
def test_an_arm_case_under_a_steps_axis_names_the_case_and_the_point(tmp_path, capsys, command):
    doc = {"model": "llama3-8b", "hardware": "rtx-a6000", "batch": 1, "prompt_len": 8,
           "gen_len": 16, "cases": [{"mode": "dlm_naive"}, {"mode": "arm"}],
           "axes": {"steps": [4, 16]}}
    assert run_grid_command(tmp_path, capsys, GRID_COMMANDS[command], doc) == (
        1, "", "error: case mode=arm: grid point {'steps': 4}: steps is only meaningful for "
        "dlm modes (mode 'arm')\n", False)


def test_a_case_grid_sweeps_each_case_in_turn_and_plot_names_each_cases_series(
        tmp_path, capsys):
    """Cases are the slowest axis. A series is named by its case's fields,
    then by its series axes' values."""
    doc = {"hardware": "a100-80g", "batch": 1, "gen_len": 16,
           "cases": [{"model": "llama3-8b", "mode": "arm"},
                     {"model": "llada-8b", "mode": "dlm_block", "block_size": 8}],
           "axes": {"prompt_len": [8, 16], "batch": [1, 2]}}
    rows = run_sweep(grid_from_dict(doc))
    assert [(row.mode, row.Lp, row.B) for row in rows] == [
        (mode, lp, b) for mode in ("arm", "dlm_block") for lp in (8, 16) for b in (1, 2)]
    assert run_grid_command(tmp_path, capsys, ["plot", "--kind", "latency"], doc)[0] == 0
    texts = [text.text for text in ET.parse(tmp_path / "out").iter(f"{{{SVG_NS}}}text")]
    assert texts[-4:] == [
        "model=llama3-8b, mode=arm, prompt_len=8",
        "model=llama3-8b, mode=arm, prompt_len=16",
        "model=llada-8b, mode=dlm_block, block_size=8, prompt_len=8",
        "model=llada-8b, mode=dlm_block, block_size=8, prompt_len=16",
    ]


def test_case_and_series_names_spell_each_value_as_json_does(tmp_path, capsys):
    """A case's name and a series axis's value read as the document wrote
    them: an object, `true` and `null` in JSON, not as Python prints them.
    An int is spelt as json.dumps spells it, and a name is not cut: two
    legends that differ only past ECHO_LIMIT stay two."""
    long = 10**400
    assert field_names([("batch", 2), ("prompt_len", long), ("gen_len", long + 1)]) == [
        "batch=2", f"prompt_len={long}", f"gen_len={long + 1}"]
    lm_head = {"include_lm_head": True}
    doc = {"model": "llada-8b", "hardware": "rtx-a6000", "mode": "dlm_naive", "batch": 1,
           "prompt_len": 8, "cases": [{"options": lm_head}, {"options": {}}],
           "axes": {"steps": [None, 8], "gen_len": [16, 32]}}
    assert run_grid_command(tmp_path, capsys, ["plot", "--kind", "latency"], doc)[0] == 0
    texts = [text.text for text in ET.parse(tmp_path / "out").iter(f"{{{SVG_NS}}}text")]
    assert texts[-4:] == [
        'options={"include_lm_head": true}, steps=null',
        'options={"include_lm_head": true}, steps=8',
        "options={}, steps=null",
        "options={}, steps=8",
    ]
    doc["cases"][1] = {"options": {**lm_head, "bogus": None}}
    (tmp_path / "rejected").mkdir()
    assert run_grid_command(tmp_path / "rejected", capsys, ["sweep"], doc) == (
        1, "", 'error: case options={"include_lm_head": true, "bogus": null}: unknown field(s) '
        "in options: bogus\n", False)


def test_a_case_value_nested_past_the_recursion_limit_is_named_by_its_type():
    assert field_names([("batch", 2), ("dtype_bytes", Unspellable(k=[]))]) == [
        "batch=2", "dtype_bytes=<Unspellable nested too deep to quote>"]
    depth = recursion_depth(lambda depth: json.dumps(nested_list(depth), ensure_ascii=False))
    if depth is not None:  # json.dumps stops at some depth on this interpreter
        assert field_names([("batch", 2), ("dtype_bytes", nested_list(depth))]) == [
            "batch=2", "dtype_bytes=<list nested too deep to quote>"]


def test_grid_rejects_unknown_fields():
    doc = {
        "model": "llama3-8b",
        "hardware": "rtx-a6000",
        "mode": "arm",
        "gen_len": 8,
        "seed": 7,
        "axes": {"batch": [1]},
    }
    with pytest.raises(ValidationError, match="seed"):
        grid_from_dict(doc)


def test_evaluate_point_matches_run_sweep_row():
    grid = arm_grid((("batch", (3,)),))
    row = run_sweep(grid)[0]
    w = WorkloadSpec(mode="arm", batch=3, prompt_len=64, gen_len=32)
    direct = evaluate_point(end_to_end(Scenario(LLAMA, A6000, w)))
    assert direct == row


# Values an axis may take: a null steps, a block_size above a gen_len, and
# true for dtype_bytes among them, so that some points are rejected.
AXIS_VALUES = {
    "batch": st.integers(1, 4),
    "prompt_len": st.integers(0, 48),
    "gen_len": st.integers(1, 48),
    "steps": st.none() | st.integers(1, 64),
    "block_size": st.none() | st.integers(1, 64),
    "dtype_bytes": st.sampled_from([1, 2, 4, True]),
}


@st.composite
def slot_grid_docs(draw):
    """A grid document over one to six of the AXIS_FIELDS, in any order, of
    any mode; a field an axis supplies may be left out of the document, and
    steps may be null or left out."""
    mode = draw(st.sampled_from(["arm", "dlm_naive", "dlm_block"]))
    model = "llama3-8b" if mode == "arm" else draw(st.sampled_from(["llama3-8b", "llada-8b"]))
    doc = {"model": model, "hardware": "rtx-a6000", "mode": mode, "batch": 2, "prompt_len": 16,
           "gen_len": 32}
    if mode != "arm":
        doc["steps"] = draw(st.sampled_from([None, 32]))
    if mode == "dlm_block":
        doc["block_size"] = 8
    names = draw(st.permutations(AXIS_FIELDS))[:draw(st.integers(1, len(AXIS_FIELDS)))]
    doc["axes"] = {name: draw(st.lists(AXIS_VALUES[name], min_size=1, max_size=2))
                   for name in names}
    for name in names:
        if draw(st.booleans()):
            doc.pop(name, None)
    return doc


@settings(max_examples=200, deadline=None)
@given(slot_grid_docs())
def test_a_grid_point_is_the_scenario_of_its_merged_document(doc):
    """map_grid resolves a point by WorkloadSpec slot; each point it yields
    equals end_to_end of the scenario document the grid's document and the
    point's axis values merge into, and a rejected point's error is that
    document's, after the point's name."""
    scenario_doc = {name: value for name, value in doc.items() if name != "axes"}
    names = list(doc["axes"])
    points = map_grid(grid_from_dict(doc), lambda result: result)
    for combo in itertools.product(*doc["axes"].values()):
        point = dict(zip(names, combo))
        try:
            expected = end_to_end(scenario_from_dict({**scenario_doc, **point}))
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                next(points)
            assert str(caught.value) == f"grid point {echo(point)}: {exc}"
            return
        assert next(points) == expected
    assert next(points, None) is None


# One grid per mode, with every counting option that adds a kernel kind on.
GRID_DOCS = {
    "arm": {
        "model": "llama3-8b",
        "hardware": "rtx-a6000",
        "mode": "arm",
        "gen_len": 16,
        "options": {"include_lm_head": True, "count_elementwise_bytes": True},
        "axes": {"prompt_len": [0, 64], "batch": [1, 2, 4]},
    },
    "dlm_naive": {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": "dlm_naive",
        "prompt_len": 32,
        "options": {"include_lm_head": True, "count_elementwise_bytes": True},
        "axes": {"batch": [1, 2], "gen_len": [16, 64, 96]},
    },
    "dlm_block": {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": "dlm_block",
        "batch": 1,
        "prompt_len": 32,
        "options": {
            "include_lm_head": True,
            "count_elementwise_bytes": True,
            "include_cache_refresh": True,
        },
        "axes": {"block_size": [4, 16], "gen_len": [16, 40, 64]},
    },
}
GRID_POINTS = 6


def run_grid(command, tmp_path, doc):
    """Evaluate grid `doc` through run_sweep, one of the grid CLI commands, or
    `analyze` on the grid's first point."""
    if command == "analyze":
        scenario = {name: value for name, value in doc.items() if name != "axes"}
        scenario.update((name, values[0]) for name, values in doc["axes"].items())
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert cli_main(["analyze", "-c", str(path)]) == 0
        return
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    if command == "run_sweep":
        assert len(run_sweep(load_grid(str(path)))) == GRID_POINTS
        return
    argv = {
        "sweep": ["sweep"],
        "roofline": ["roofline"],
        "plot": ["plot", "--kind", "latency"],
        "plot-throughput": ["plot", "--kind", "throughput"],
        "plot-ai": ["plot", "--kind", "ai"],
    }[command]
    assert cli_main([*argv, "-c", str(path), "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("mode", sorted(GRID_DOCS))
@pytest.mark.parametrize("command", ["run_sweep", "sweep", "roofline", "plot"])
def test_grid_validates_each_point_once(monkeypatch, tmp_path, command, mode):
    calls = []

    def counting(workload, model):
        calls.append(workload)
        return validate_workload(workload, model)

    patch_everywhere(monkeypatch, validate_workload, counting)
    run_grid(command, tmp_path, GRID_DOCS[mode])
    assert len(calls) == GRID_POINTS
    assert len({(w.batch, w.prompt_len, w.gen_len, w.block_size) for w in calls}) == GRID_POINTS


@pytest.mark.parametrize("mode", sorted(GRID_DOCS))
@pytest.mark.parametrize("command", ["run_sweep", "sweep", "plot", "roofline", "analyze"])
def test_only_roofline_builds_roofline_points(monkeypatch, tmp_path, command, mode):
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return RooflinePoint(*args, **kwargs)

    grid = grid_from_dict(GRID_DOCS[mode])
    phases_per_point = list(map_grid(grid, lambda result: len(result.phases)))
    patch_everywhere(monkeypatch, RooflinePoint, counting)
    run_grid(command, tmp_path, GRID_DOCS[mode])
    assert len(built) == (sum(phases_per_point) if command == "roofline" else 0)


@pytest.mark.parametrize("mode", sorted(GRID_DOCS))
@pytest.mark.parametrize(
    "command", ["run_sweep", "sweep", "roofline", "plot", "plot-throughput", "plot-ai"]
)
def test_only_report_rows_compute_a_footprint(monkeypatch, tmp_path, command, mode):
    # A report row (run_sweep, sweep) needs each point's footprint; roofline
    # and plot read nothing of a row, so they build none.
    calls = {peak_footprint: 0, evaluate_point: 0}

    def counting(original):
        def wrapper(argument):
            calls[original] += 1
            return original(argument)

        return wrapper

    for original in list(calls):
        patch_everywhere(monkeypatch, original, counting(original))
    run_grid(command, tmp_path, GRID_DOCS[mode])
    per_point = GRID_POINTS if command in ("run_sweep", "sweep") else 0
    assert calls == {peak_footprint: per_point, evaluate_point: per_point}


@pytest.mark.parametrize("mode", sorted(GRID_DOCS))
def test_plot_draws_the_report_rows_values_bit_for_bit(monkeypatch, tmp_path, mode):
    rows = run_sweep(grid_from_dict(GRID_DOCS[mode]))
    drawn = {}

    def recording(series, path, *, ylabel, **kwargs):
        drawn[ylabel] = [y for _, points in series for _, y in points]

    monkeypatch.setattr(cli, "emit_line_svg", recording)
    for kind in ("latency", "throughput", "ai"):
        run_grid("plot" if kind == "latency" else f"plot-{kind}", tmp_path, GRID_DOCS[mode])
    assert drawn == {
        "latency (s)": [row.latency_s for row in rows],
        "throughput (tokens/s)": [row.throughput_tok_s for row in rows],
        "arithmetic intensity (FLOP/byte)": [row.ai for row in rows],
    }


@pytest.mark.parametrize("mode", sorted(GRID_DOCS))
def test_analyze_validates_the_scenario_once(monkeypatch, tmp_path, mode):
    calls = []

    def counting(workload, model):
        calls.append(workload)
        return validate_workload(workload, model)

    patch_everywhere(monkeypatch, validate_workload, counting)
    run_grid("analyze", tmp_path, GRID_DOCS[mode])
    assert len(calls) == 1


# validate_workload's own require_int calls: batch, prompt_len, gen_len and
# dtype_bytes; steps for the diffusion modes; block_size for dlm_block.
COUNT_CHECKS_PER_POINT = {"arm": 4, "dlm_naive": 5, "dlm_block": 6}


@pytest.mark.parametrize("mode", sorted(GRID_DOCS))
@pytest.mark.parametrize("command", ["run_sweep", "roofline"])
def test_grid_checks_each_count_once_per_point(monkeypatch, tmp_path, command, mode):
    calls = []

    def counting(name, value, minimum):
        calls.append(name)
        return require_int(name, value, minimum)

    patch_everywhere(monkeypatch, require_int, counting)
    run_grid(command, tmp_path, GRID_DOCS[mode])
    assert len(calls) == COUNT_CHECKS_PER_POINT[mode] * GRID_POINTS


# The Python and built-in calls (sys.setprofile's "call" and "c_call" events)
# that `sweep`'s per-point function makes over each grid of GRID_DOCS, counted
# on CALLS_PYTHON: 142.3, 90.3 and 227.5 per point. Python 3.12 inlines list
# comprehensions, so another minor version counts differently.
CALLS_PYTHON = "3.11"
SWEEP_CALLS = {"arm": 854, "dlm_naive": 542, "dlm_block": 1365}


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != CALLS_PYTHON,
                    reason="the calls a point makes change between Python versions")
@pytest.mark.parametrize("mode", sorted(GRID_DOCS))
def test_a_sweep_point_makes_no_more_calls_than_recorded(mode):
    points = map_grid(grid_from_dict(GRID_DOCS[mode]),
                      lambda result: row_to_csv(evaluate_point(result)))
    calls = 0

    def counting(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(counting)
    try:
        for _ in points:
            pass
    finally:
        sys.setprofile(previous)
    assert calls <= SWEEP_CALLS[mode], f"{calls / GRID_POINTS:.2f} calls per point"


def test_steps_axis_of_none_resolves_to_gen_len():
    base = WorkloadSpec(mode="dlm_naive", batch=1, prompt_len=8, gen_len=32, steps=4)
    grid = one_case_grid(
        model=LLADA, hardware=A6000, base=base, axes=(("steps", (None, 8)),)
    )
    assert [r.K for r in run_sweep(grid)] == [32, 8]


@pytest.mark.parametrize("mode", ["dlm_naive", "dlm_block"])
def test_null_steps_in_a_grid_tracks_each_points_gen_len(mode):
    doc = {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": mode,
        "batch": 1,
        "prompt_len": 8,
        "axes": {"gen_len": [64, 128]},
    }
    if mode == "dlm_block":
        doc["block_size"] = 32
    omitted = run_sweep(grid_from_dict(doc))
    null = run_sweep(grid_from_dict({**doc, "steps": None}))
    assert null == omitted
    assert [row.K for row in null] == [64, 128]
