"""Grid sweeps, the power-law fitter, and the CSV report contract."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    RooflinePoint,
    SweepGrid,
    ValidationError,
    WorkloadSpec,
    cli,
    emit_csv,
    fit_scaling_exponent,
    load_grid,
    run_sweep,
)
from lmroofline.cli import main as cli_main
from lmroofline.configs import Scenario, require_int, validate_workload
from lmroofline.memory import peak_footprint
from lmroofline.roofline import scenario_phases
from lmroofline.sweep import CSV_HEADER, evaluate_point, grid_from_dict, map_grid
from oracles import csv_text, parse_csv, patch_everywhere

LLAMA = MODEL_REGISTRY["llama3-8b"]
LLADA = MODEL_REGISTRY["llada-8b"]
A6000 = HW_REGISTRY["rtx-a6000"]


def arm_grid(axes):
    base = WorkloadSpec(mode="arm", batch=1, prompt_len=64, gen_len=32)
    return SweepGrid(model=LLAMA, hardware=A6000, base=base, axes=axes)


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


def test_invalid_point_error_names_the_point():
    base = WorkloadSpec(mode="dlm_block", batch=1, prompt_len=64, gen_len=128, steps=128)
    grid = SweepGrid(
        model=LLADA, hardware=A6000, base=base, axes=(("block_size", (32, 256)),)
    )
    with pytest.raises(ValidationError, match=r"grid point \{'block_size': 256\}"):
        run_sweep(grid)


def test_row_ai_consistent_with_totals():
    rows = run_sweep(arm_grid((("batch", (1, 2, 4)),)))
    for row in rows:
        assert row.ai == pytest.approx(row.flops / row.bytes, rel=1e-12)
        assert row.fits == (row.peak_mem_bytes <= A6000.mem_capacity)


def test_fitter_exact_on_linear_points():
    assert fit_scaling_exponent([(1, 1), (2, 2), (4, 4)]) == pytest.approx(1.0, abs=1e-12)


def test_fitter_exact_on_constant_points():
    assert fit_scaling_exponent([(1, 5), (2, 5), (4, 5)]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0, 2.0])
def test_fitter_exact_on_synthetic_power_laws(exponent):
    points = [(x, 3.7 * x**exponent) for x in (1.0, 2.0, 4.0, 8.0, 64.0)]
    assert fit_scaling_exponent(points) == pytest.approx(exponent, abs=1e-12)


def test_fitter_requires_three_points():
    with pytest.raises(ValidationError, match="3 points"):
        fit_scaling_exponent([(1, 1), (2, 2)])


def test_fitter_rejects_duplicate_x():
    with pytest.raises(ValidationError, match="distinct"):
        fit_scaling_exponent([(1, 1), (1, 2), (2, 3)])


def test_fitter_rejects_nonpositive_values():
    with pytest.raises(ValidationError, match="positive"):
        fit_scaling_exponent([(1, 1), (2, 0), (4, 4)])
    with pytest.raises(ValidationError, match="positive"):
        fit_scaling_exponent([(-1, 1), (2, 2), (4, 4)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_fitter_rejects_non_finite_values(where, bad):
    points = [(1.0, 2.0), (2.0, 4.0), (bad, 8.0) if where == "x" else (4.0, bad)]
    with pytest.raises(ValidationError, match="finite"):
        fit_scaling_exponent(points)


NEXT_AFTER_1E300 = math.nextafter(1e300, math.inf)


@pytest.mark.parametrize(
    "xs",
    [
        (1e300, NEXT_AFTER_1E300, math.nextafter(NEXT_AFTER_1E300, math.inf)),
        (10**400, 10**400 + 1, 10**400 + 2),
    ],
    ids=["adjacent-floats", "adjacent-huge-ints"],
)
def test_fitter_rejects_x_values_whose_logarithms_are_equal(xs):
    # Pairwise distinct, but log() rounds all three to one float, so the
    # spread of log(x) is exactly 0 and no slope exists.
    assert len(set(xs)) == 3 and len({math.log(x) for x in xs}) == 1
    with pytest.raises(ValidationError, match="too close"):
        fit_scaling_exponent(list(zip(xs, (1.0, 2.0, 4.0))))


@given(
    exponent=st.floats(min_value=-2, max_value=2),
    scale=st.floats(min_value=0.1, max_value=100),
)
def test_fitter_recovers_exponent_from_exact_power_law(exponent, scale):
    points = [(float(x), scale * float(x) ** exponent) for x in (1, 2, 4, 8, 16)]
    assert fit_scaling_exponent(points) == pytest.approx(exponent, abs=1e-9)


def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "mode,B,Lp,Lg,K,G,flops,bytes,ai,latency_s,throughput_tok_s,bound,peak_mem_bytes,fits"
    )


def test_empty_sweep_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text() == CSV_HEADER + "\n"


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


def test_blockwise_ai_grid_is_invariant_per_block_size():
    # AI depends on the block size, not on how far the generation runs
    doc = {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": "dlm_block",
        "batch": 1,
        "prompt_len": 1024,
        "axes": {"block_size": [32, 64, 128], "gen_len": [256, 512, 1024, 2048]},
    }
    rows = run_sweep(grid_from_dict(doc))
    assert len(rows) == 12
    for start in range(0, 12, 4):
        group = rows[start : start + 4]
        ais = [r.ai for r in group]
        assert max(ais) / min(ais) < 1.05
        assert all(r.K == r.Lg for r in group)  # steps re-resolved per point


def test_step_budget_grid_runs_all_points():
    doc = {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": "dlm_block",
        "batch": 1,
        "gen_len": 128,
        "block_size": 32,
        "axes": {"prompt_len": [128, 512, 2048], "steps": [128, 64, 32, 16, 4]},
    }
    rows = run_sweep(grid_from_dict(doc))
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
    direct = evaluate_point(Scenario(LLAMA, A6000, w))
    assert direct == row


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
    phases_per_point = map_grid(grid, lambda scenario: len(scenario_phases(scenario)))
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
        def wrapper(scenario):
            calls[original] += 1
            return original(scenario)

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


def test_steps_axis_of_none_resolves_to_gen_len():
    base = WorkloadSpec(mode="dlm_naive", batch=1, prompt_len=8, gen_len=32, steps=4)
    grid = SweepGrid(
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
