"""CLI subcommands, output formats, and exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lmroofline
from lmroofline import HW_REGISTRY, MODEL_REGISTRY, SweepRow, cli, kernel_time, scenario_phases
from oracles import nested_list, parse_csv, recursion_depth
from lmroofline.cli import main
from lmroofline.configs import echo, scenario_from_dict


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def arm_scenario_doc(**overrides):
    doc = {
        "model": "llama3-8b",
        "hardware": "rtx-a6000",
        "mode": "arm",
        "batch": 1,
        "prompt_len": 64,
        "gen_len": 32,
    }
    doc.update(overrides)
    return doc


def arm_grid_doc(axes, **overrides):
    doc = arm_scenario_doc(**overrides)
    for name in axes:
        doc.pop(name, None)
    doc["axes"] = axes
    return doc


def test_analyze_prints_table_and_json(tmp_path, capsys):
    config = write_json(tmp_path, "scenario.json", arm_scenario_doc())
    assert main(["analyze", "-c", config]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    payload = json.loads(lines[-1])
    field_names = [f.name for f in dataclasses.fields(SweepRow)]
    assert list(payload.keys()) == field_names
    assert payload["mode"] == "arm"
    assert payload["B"] == 1
    assert payload["bound"] in ("memory_bound", "compute_bound")
    # aligned text block lists every field as well
    for name in field_names:
        assert any(line.startswith(name) for line in lines[:-1])


def test_analyze_oom_scenario_still_succeeds(tmp_path, capsys):
    config = write_json(
        tmp_path, "oom.json", arm_scenario_doc(batch=100000, prompt_len=2048)
    )
    assert main(["analyze", "-c", config]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["fits"] is False


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", "-c", str(tmp_path / "absent.json")]) == 2
    assert "io error" in capsys.readouterr().err


def test_analyze_invalid_scenario_exits_1(tmp_path, capsys):
    config = write_json(tmp_path, "bad.json", arm_scenario_doc(mode="quantum"))
    assert main(["analyze", "-c", config]) == 1
    assert "error" in capsys.readouterr().err


def test_sweep_writes_csv(tmp_path, capsys):
    config = write_json(tmp_path, "grid.json", arm_grid_doc({"batch": [1, 2, 4]}))
    out_csv = tmp_path / "out.csv"
    assert main(["sweep", "-c", config, "-o", str(out_csv)]) == 0
    rows = parse_csv(str(out_csv))
    assert [r.B for r in rows] == [1, 2, 4]


def test_sweep_invalid_point_exits_1_naming_it(tmp_path, capsys):
    doc = {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": "dlm_block",
        "batch": 1,
        "prompt_len": 64,
        "gen_len": 128,
        "steps": 128,
        "axes": {"block_size": [32, 256]},
    }
    config = write_json(tmp_path, "grid.json", doc)
    assert main(["sweep", "-c", config, "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert "grid point" in err
    assert "256" in err


@pytest.mark.parametrize("command", [["roofline"], ["plot", "--kind", "ai"]])
def test_grid_command_invalid_point_exits_1_naming_it(tmp_path, capsys, command):
    doc = {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": "dlm_block",
        "batch": 1,
        "prompt_len": 64,
        "gen_len": 128,
        "steps": 128,
        "axes": {"block_size": [32, 256]},
    }
    config = write_json(tmp_path, "grid.json", doc)
    out_svg = tmp_path / "out.svg"
    assert main([*command, "-c", config, "-o", str(out_svg)]) == 1
    err = capsys.readouterr().err
    assert "grid point {'block_size': 256}" in err
    assert not out_svg.exists()


def hardware_doc(**overrides):
    doc = {"name": "gpu", "peak_flops": 1e14, "mem_bandwidth": 1e12, "mem_capacity": 4e10}
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("field", ["peak_flops", "mem_bandwidth", "mem_capacity"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), pytest.param(10**400, id="10**400")])
def test_non_finite_hardware_exits_1(tmp_path, capsys, field, bad):
    # json.dumps writes NaN and Infinity literals, which json.load reads back;
    # 10**400 reads back as an int that no float can hold.
    write_json(tmp_path, "hw.json", hardware_doc(**{field: bad}))
    config = write_json(tmp_path, "scenario.json", arm_scenario_doc(hardware="hw.json"))
    assert main(["analyze", "-c", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_non_finite_result_exits_1_without_printing_a_row(tmp_path, capsys):
    # A positive, finite but subnormal bandwidth makes the latency overflow to inf.
    write_json(tmp_path, "hw.json", hardware_doc(mem_bandwidth=1e-310))
    config = write_json(tmp_path, "scenario.json", arm_scenario_doc(hardware="hw.json"))
    assert main(["analyze", "-c", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["sweep", "-o", "out.csv"], ["roofline", "-o", "out.svg"],
     ["plot", "--kind", "latency", "-o", "out.svg"]],
    ids=["analyze", "sweep", "roofline", "plot"],
)
def test_finite_kernel_times_whose_sum_overflows_exit_1(tmp_path, capsys, monkeypatch, command):
    # The bandwidth puts the costliest kernel's time just under the float
    # maximum: every kernel time is finite, and their sum is not.
    phases = scenario_phases(scenario_from_dict(arm_scenario_doc()))
    most = max(kernel.bytes for phase in phases for _, kernel in phase.breakdown)
    hw_path = write_json(tmp_path, "hw.json", hardware_doc(mem_bandwidth=most / 1e308))
    scenario = scenario_from_dict(arm_scenario_doc(hardware=hw_path))
    for phase in scenario_phases(scenario):
        assert all(math.isfinite(kernel_time(kernel, scenario.hardware))
                   for _, kernel in phase.breakdown)
    monkeypatch.chdir(tmp_path)
    doc = arm_scenario_doc(hardware=hw_path)
    if command[0] != "analyze":
        doc = arm_grid_doc({"batch": [1]}, hardware=hw_path)
    config = write_json(tmp_path, "input.json", doc)
    assert main([*command, "-c", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize(
    "documented, field_name",
    [("count_lm_head", "include_lm_head"), ("include_elementwise", "count_elementwise_bytes")],
)
def test_documented_option_names_give_the_field_names_row(tmp_path, capsys, documented,
                                                          field_name):
    rows = []
    for name in (documented, field_name):
        config = write_json(tmp_path, f"{name}.json", arm_scenario_doc(options={name: True}))
        assert main(["analyze", "-c", config]) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]
    config = write_json(tmp_path, "plain.json", arm_scenario_doc())
    assert main(["analyze", "-c", config]) == 0
    assert capsys.readouterr().out != rows[0]


def test_full_kv_each_step_option_reaches_dlm_block(tmp_path, capsys):
    doc = arm_scenario_doc(model="llada-8b", mode="dlm_block", gen_len=64, block_size=16)
    flops = []
    for options in ({}, {"full_kv_each_step": True}):
        config = write_json(tmp_path, "scenario.json", {**doc, "options": options})
        assert main(["analyze", "-c", config]) == 0
        flops.append(json.loads(capsys.readouterr().out.splitlines()[-1])["flops"])
    assert flops[1] > flops[0]


HUGE = 10**320  # beyond the float range


@pytest.mark.parametrize(
    "command, doc",
    [
        (["analyze"], arm_scenario_doc(batch=HUGE)),
        # in the float range, but its FLOPs are not
        (["analyze"], arm_scenario_doc(batch=10**300)),
        (["sweep", "-o", "out.csv"], arm_grid_doc({"gen_len": [8, HUGE]})),
        (["roofline", "-o", "out.svg"], arm_grid_doc({"gen_len": [8, 10**300]})),
        # FLOPs and bytes stay in the float range, the peak footprint does not
        (
            ["sweep", "-o", "out.csv"],
            arm_grid_doc({"prompt_len": [33 * 10**301]}, model="llada-8b", mode="dlm_block",
                         gen_len=1, steps=1, block_size=1),
        ),
        # Every kernel's FLOPs and the latency stay in the float range, the prefill
        # phase's FLOPs, and so the total, do not: end_to_end rejects the total.
        (["roofline", "-o", "out.svg"], arm_grid_doc({"batch": [1, 3 * 10**296]})),
    ],
    ids=["analyze-batch", "analyze-batch-overflows-flops", "sweep-axis", "roofline-axis",
         "sweep-footprint-overflows", "roofline-phase-flops-overflow"],
)
def test_huge_integers_exit_1_without_output(tmp_path, capsys, monkeypatch, command, doc):
    monkeypatch.chdir(tmp_path)
    config = write_json(tmp_path, "input.json", doc)
    assert main([*command, "-c", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    if command[0] != "analyze":
        assert captured.err.startswith("error: grid point {")


# FLOPs, bytes and latency stay in the float range, the peak footprint does not.
FOOTPRINT_OVERFLOW_GRID = arm_grid_doc(
    {"prompt_len": [33 * 10**301]}, model="llada-8b", mode="dlm_block",
    gen_len=1, steps=1, block_size=1,
)
SVG_COORDINATES = ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "width", "height")


def test_footprint_overflow_fails_only_the_report_row(tmp_path, capsys):
    config = write_json(tmp_path, "grid.json", FOOTPRINT_OVERFLOW_GRID)
    assert main(["sweep", "-c", config, "-o", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: grid point {")
    # roofline and plot read no footprint, so they draw the point
    plots = (["plot", "--kind", kind] for kind in ("latency", "throughput", "ai"))
    for command in (["roofline"], *plots):
        out_svg = tmp_path / "out.svg"
        assert main([*command, "-c", config, "-o", str(out_svg)]) == 0
        numbers = []
        for element in ET.parse(out_svg).iter():
            numbers.extend(value for name, value in element.attrib.items()
                           if name in SVG_COORDINATES)
            if "points" in element.attrib:
                numbers.extend(element.attrib["points"].replace(",", " ").split())
        assert "circle" in out_svg.read_text()
        assert all(math.isfinite(float(number)) for number in numbers)


def test_integer_beyond_the_json_digit_limit_exits_1(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(arm_scenario_doc(batch=1)).replace(
        '"batch": 1', '"batch": ' + "9" * 5000
    ))
    assert main(["analyze", "-c", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid JSON" in captured.err


REPEATED_KEYS = {
    # case: (file written, its JSON with one key given twice, the key, command)
    "scenario": ("scenario.json", json.dumps(arm_scenario_doc(batch=1)).replace(
        '"batch": 1', '"batch": 1, "batch": 64'), "batch", ["analyze"]),
    "options": ("scenario.json", json.dumps(arm_scenario_doc(options={"include_lm_head": True}))
                .replace('"include_lm_head": true', '"include_lm_head": true, '
                         '"include_lm_head": false'), "include_lm_head", ["analyze"]),
    "model-file": ("model.json", json.dumps(MODEL_REGISTRY["llama3-8b"]._asdict()).replace(
        '"num_layers": 32', '"num_layers": 32, "num_layers": 16'), "num_layers", ["analyze"]),
    "grid-axes": ("grid.json", json.dumps(arm_grid_doc({"batch": [1, 2], "gen_len": [32]}))
                  .replace('"gen_len": [32]', '"gen_len": [32], "batch": [4]'), "batch",
                  ["sweep", "-o", "out.csv"]),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_a_repeated_json_key_exits_1_naming_it_and_the_file(tmp_path, capsys, monkeypatch, case):
    # json.load keeps the last value of a repeated key; the loader rejects it.
    name, text, key, command = REPEATED_KEYS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    config = str(tmp_path / name)
    if name == "model.json":
        config = write_json(tmp_path, "scenario.json", arm_scenario_doc(model="model.json"))
    assert main([*command, "-c", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid JSON in {tmp_path / name}: repeated key '{key}'\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", [["analyze"], ["sweep", "-o", "out.csv"]])
def test_json_nested_past_the_parser_depth_exits_1(tmp_path, capsys, monkeypatch, command):
    # The parser recurses once per level and raises RecursionError; in a grid
    # the nesting sits inside the axes.
    monkeypatch.chdir(tmp_path)
    deep = "[" * 100_000 + "]" * 100_000
    text = deep
    if command[0] == "sweep":
        text = json.dumps(arm_grid_doc({"gen_len": [32]})).replace("[32]", deep)
    config = tmp_path / "input.json"
    config.write_text(text)
    assert main([*command, "-c", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid JSON in {config}: maximum recursion depth")
    assert not (tmp_path / "out.csv").exists()


def test_range_check_runs_on_a_reused_prefill(tmp_path, capsys):
    # The later points of this gen_len axis reuse the first point's prefill;
    # the decode at 10**300 tokens still takes the total past the float range.
    config = write_json(tmp_path, "grid.json", arm_grid_doc({"gen_len": [16, 32, 10**300]}))
    out = tmp_path / "out.csv"
    out.write_text("kept\n")
    assert main(["sweep", "-c", config, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: grid point {{'gen_len': {10**300}}}: result has a non-finite number"
    )
    assert out.read_text() == "kept\n"


def test_bool_dtype_bytes_exits_1(tmp_path, capsys):
    config = write_json(tmp_path, "scenario.json", arm_scenario_doc(dtype_bytes=True))
    assert main(["analyze", "-c", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dtype_bytes" in captured.err


@pytest.mark.parametrize("bad", [True, 2.0])
def test_non_int_dtype_bytes_on_a_sweep_axis_exits_1(tmp_path, capsys, bad):
    # `True in (1, 2, 4)` and `2.0 in (1, 2, 4)` both hold.
    config = write_json(tmp_path, "grid.json", arm_grid_doc({"dtype_bytes": [2, bad]}))
    assert main(["sweep", "-c", config, "-o", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert f"grid point {{'dtype_bytes': {bad!r}}}" in err


def test_roofline_writes_svg(tmp_path, capsys):
    config = write_json(tmp_path, "grid.json", arm_grid_doc({"prompt_len": [512, 2048]}))
    out_svg = tmp_path / "roofline.svg"
    assert main(["roofline", "-c", config, "-o", str(out_svg)]) == 0
    root = ET.parse(str(out_svg)).getroot()
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("kind", ["latency", "throughput", "ai"])
def test_plot_kinds_write_svg(tmp_path, capsys, kind):
    config = write_json(
        tmp_path, "grid.json", arm_grid_doc({"prompt_len": [128, 512], "batch": [1, 2, 4]})
    )
    out_svg = tmp_path / f"{kind}.svg"
    assert main(["plot", "--kind", kind, "-c", config, "-o", str(out_svg)]) == 0
    content = out_svg.read_text()
    assert "prompt_len=128" in content
    assert "prompt_len=512" in content


def test_plot_rejects_unknown_kind(tmp_path, capsys):
    config = write_json(tmp_path, "grid.json", arm_grid_doc({"batch": [1, 2, 4]}))
    assert main(["plot", "--kind", "vibes", "-c", config, "-o", "x.svg"]) == 1
    assert "usage" in capsys.readouterr().err


def test_hw_list_names_registry(capsys):
    assert main(["hw", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "rtx-a6000" in names
    assert "a100-80g" in names


def test_hw_show_reports_peak_bandwidth_and_ridge(capsys):
    assert main(["hw", "show", "rtx-a6000"]) == 0
    out = capsys.readouterr().out
    assert "154.8 TFLOP/s" in out
    assert "768 GB/s" in out
    assert "201.6 FLOP/byte" in out


def test_hw_show_output_is_pinned(capsys):
    assert main(["hw", "show", "rtx-a6000"]) == 0
    assert capsys.readouterr().out == (
        "rtx-a6000\n"
        "  peak compute      154.8 TFLOP/s\n"
        "  memory bandwidth  768 GB/s\n"
        "  memory capacity   48 GB\n"
        "  ridge point       201.6 FLOP/byte\n"
    )


def test_hw_show_unknown_name_exits_1(capsys):
    assert main(["hw", "show", "abacus"]) == 1
    assert "unknown hardware" in capsys.readouterr().err


def test_model_show_unknown_name_exits_1(capsys):
    assert main(["model", "show", "no-such-model"]) == 1
    assert "unknown model 'no-such-model'" in capsys.readouterr().err


def test_model_list_names_registry(capsys):
    assert main(["model", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "llama3-8b" in names
    assert "llada-8b" in names


def test_model_list_prints_no_test_model(capsys):
    assert main(["model", "list"]) == 0
    assert "tiny-test" not in capsys.readouterr().out.split()


def test_model_show_reports_shape_and_parameters(capsys):
    assert main(["model", "show", "llama3-8b"]) == 0
    out = capsys.readouterr().out
    assert "8029995008" in out
    assert "16059990016" in out


def test_model_show_output_is_pinned(capsys):
    # Every field, in declaration order, then the derived counts.
    assert main(["model", "show", "llama3-8b"]) == 0
    assert capsys.readouterr().out == (
        "  name             llama3-8b\n"
        "  num_layers       32\n"
        "  d_model          4096\n"
        "  num_heads        32\n"
        "  num_kv_heads     8\n"
        "  head_dim         128\n"
        "  ffn_dim          14336\n"
        "  vocab_size       128256\n"
        "  mlp_kind         swiglu\n"
        "  attention_kind   causal_capable\n"
        "  parameters       8029995008\n"
        "  fp16 weights     16059990016 bytes\n"
    )


def test_unknown_subcommand_exits_1(capsys):
    assert main(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag_exits_1(capsys):
    assert main(["analyze"]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "lmroofline" in capsys.readouterr().out


# Every parser the whole CLI's is built from, in the order it builds them:
# one per command, which holds only -h.
WHOLE_CLI = [
    "lmroofline", "lmroofline analyze", "lmroofline sweep", "lmroofline roofline",
    "lmroofline plot", "lmroofline hw", "lmroofline model",
]


def test_the_whole_clis_parser_lists_the_commands_only():
    [commands] = [action for action in cli._build_parser(None)._actions
                  if action.dest == "command"]
    assert {name: [action.dest for action in parser._actions]
            for name, parser in commands.choices.items()} == {
        name: [] for name in cli._COMMANDS}


@pytest.mark.parametrize(
    "argv, err",
    [
        (["hw", "show"], "usage error: the following arguments are required: name\n"
                         "usage: lmroofline hw show [-h] name\n"),
        (["model", "show"], "usage error: the following arguments are required: name\n"
                            "usage: lmroofline model show [-h] name\n"),
        (["--bogus", "analyze"],
         "usage error: unrecognized arguments: --bogus\n"
         "usage: lmroofline [-h] {analyze,sweep,roofline,plot,hw,model} ...\n"),
        # The whole CLI's analyze takes no -h: no help that lists none of analyze's options.
        (["--bogus", "analyze", "-h"],
         "usage error: unrecognized arguments: --bogus -h\n"
         "usage: lmroofline [-h] {analyze,sweep,roofline,plot,hw,model} ...\n"),
    ],
)
def test_a_usage_error_prints_the_usage_line_of_the_parser_that_raised_it(capsys, argv, err):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", err)


def test_a_namespace_from_the_whole_clis_parser_is_a_usage_error(capsys, monkeypatch):
    # What the whole CLI's parser gives `-- analyze` under argparse 3.12.10.
    monkeypatch.setattr(cli._build_parser(None), "parse_args",
                        lambda argv: argparse.Namespace(command="analyze"))
    assert main(["--", "analyze"]) == 1
    assert capsys.readouterr() == ("", (
        "usage error: the command must be the first argument\n"
        "usage: lmroofline [-h] {analyze,sweep,roofline,plot,hw,model} ...\n"))


# Tokens an argv is drawn from: options and values of some command, and the
# commands' and subcommands' names.
ARGV_TOKENS = ["-h", "--he", "--bogus", "--", "-", "-c", "s.json", "x", "list", "show",
               *cli._COMMANDS]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=4).filter(
    lambda argv: not argv or argv[0] not in cli._COMMANDS))
@example(["--", "analyze"])  # argparse 3.11 rejects the '--'; 3.12.10 drops it
@example(["--", "hw"])
def test_an_argv_not_starting_with_a_command_gives_help_or_one_usage_error(argv):
    # The whole CLI's parser declares no command's arguments, so it prints
    # help or raises a usage error, and never runs a command.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        assert out.getvalue().startswith("usage: lmroofline")
    else:
        assert (code, out.getvalue()) == (1, "")
        complaint, usage, rest = err.getvalue().split("\n", 2)
        assert complaint.startswith("usage error: ")
        assert usage.startswith("usage: lmroofline")
        assert rest == ""


def test_a_call_builds_only_its_commands_parser_and_shares_it(tmp_path, monkeypatch):
    """A command builds its own parser once per process, and the whole CLI's
    is built only for an argv that does not start with a known command, such
    as help or an unknown command. A usage error prints the usage line of
    the parser that raised it. Parsers reused from call to call give what
    parsers built fresh for each call give."""
    config = write_json(tmp_path, "scenario.json", arm_scenario_doc())
    calls = [
        ["analyze", "-c", config],
        ["analyze", "-c", config],
        ["analyze"],  # usage error: -c is required
        ["--help"],
        ["vibes"],
        ["hw", "show", "no-such-gpu"],
        ["hw", "show"],  # usage error: a name is required
        ["analyze", "-c", config],
    ]
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    def run(argv):
        """(exit code, stdout, stderr, progs of the parsers built) of one call."""
        out, err = io.StringIO(), io.StringIO()
        before = len(built)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue(), built[before:]

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli._build_parser.cache_clear()
    try:
        shared = [run(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
    finally:
        cli._build_parser.cache_clear()
    assert [call[:3] for call in shared] == [call[:3] for call in fresh]
    assert [call[3] for call in shared] == [
        ["lmroofline analyze"], [], [], WHOLE_CLI, [],
        ["lmroofline hw", "lmroofline hw list", "lmroofline hw show"], [], [],
    ]
    assert [call[3] for call in fresh[2:5]] == [["lmroofline analyze"], WHOLE_CLI, WHOLE_CLI]
    assert [code for code, *_ in shared] == [0, 0, 1, 0, 1, 1, 1, 0]
    assert shared[2][2].startswith("usage error:")
    assert shared[2][2].endswith("\nusage: lmroofline analyze [-h] -c CONFIG\n")
    assert shared[6][2].endswith("\nusage: lmroofline hw show [-h] name\n")
    assert shared[3][1].startswith("usage: lmroofline [-h]")
    assert "usage: lmroofline [-h]" in shared[4][2]  # a usage error once the parser exists


NULL_STEPS_GRID = {
    "model": "llada-8b",
    "hardware": "rtx-a6000",
    "mode": "dlm_naive",
    "batch": 1,
    "prompt_len": 8,
    "gen_len": 32,
    "axes": {"steps": [None, 8]},
}


@pytest.mark.parametrize("kind", ["latency", "throughput", "ai"])
def test_plot_draws_a_null_steps_at_its_gen_len(tmp_path, capsys, kind):
    # steps resolves to gen_len (32) at the null point, and x is read off the
    # resolved workload, so the plot is the one of an explicit 32.
    svgs = []
    for name, steps in (("null", [None, 8]), ("explicit", [32, 8])):
        doc = {**NULL_STEPS_GRID, "axes": {"steps": steps}}
        config = write_json(tmp_path, f"{name}.json", doc)
        out_svg = tmp_path / f"{name}.svg"
        assert main(["plot", "--kind", kind, "-c", config, "-o", str(out_svg)]) == 0
        svgs.append(out_svg.read_bytes())
    assert svgs[0] == svgs[1]


def test_plot_legend_keeps_a_null_steps_of_a_series_axis(tmp_path, capsys):
    axes = {"steps": [None, 8], "gen_len": [32, 64]}
    config = write_json(tmp_path, "grid.json", {**NULL_STEPS_GRID, "axes": axes})
    out_svg = tmp_path / "plot.svg"
    assert main(["plot", "--kind", "latency", "-c", config, "-o", str(out_svg)]) == 0
    legend = [t.text for t in ET.parse(str(out_svg)).iter() if t.tag.endswith("text")]
    assert "steps=null" in legend
    assert "steps=8" in legend


GRID_COMMANDS = [["sweep"], ["roofline"], ["plot", "--kind", "latency"]]


@pytest.mark.parametrize("command", GRID_COMMANDS, ids=lambda argv: argv[0])
def test_grid_without_prompt_len_exits_1(tmp_path, capsys, command):
    # No axis supplies prompt_len either, so the grid misses it, as a scenario would.
    doc = arm_grid_doc({"batch": [1, 2]})
    del doc["prompt_len"]
    output = tmp_path / "out"
    assert main([*command, "-c", write_json(tmp_path, "grid.json", doc), "-o", str(output)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "missing field(s) in grid: prompt_len" in captured.err
    assert not output.exists()

    doc["axes"]["prompt_len"] = [16, 64]
    assert main([*command, "-c", write_json(tmp_path, "grid.json", doc), "-o", str(output)]) == 0


MODEL_FILE_DOC = {
    "name": "tiny",
    "num_layers": 2,
    "d_model": 64,
    "num_heads": 4,
    "num_kv_heads": 2,
    "head_dim": 16,
    "ffn_dim": 128,
    "vocab_size": 100,
}


@pytest.mark.parametrize(
    "field, doc, message",
    [
        ("model", {**MODEL_FILE_DOC, "rope_theta": 1e4},
         "unknown field(s) in model config: rope_theta"),
        ("model", {k: v for k, v in MODEL_FILE_DOC.items() if k != "ffn_dim"},
         "missing field(s) in model config: ffn_dim"),
        ("hardware", {**hardware_doc(), "tdp_w": 300}, "unknown field(s) in hardware spec: tdp_w"),
        ("hardware", {k: v for k, v in hardware_doc().items() if k != "mem_capacity"},
         "missing field(s) in hardware spec: mem_capacity"),
        ("model", {**MODEL_FILE_DOC, "name": ""}, "name must be a nonempty string (got '')"),
        ("model", {**MODEL_FILE_DOC, "attention_kind": "sliding"},
         "attention_kind must be one of ('causal_capable', 'bidirectional_only') "
         "(got 'sliding')"),
        ("hardware", hardware_doc(name=""), "name must be a nonempty string (got '')"),
        ("hardware", hardware_doc(peak_flops="1e14"),
         "peak_flops must be a positive finite number (got '1e14')"),
        ("model", {**MODEL_FILE_DOC, "name": "tiny\u0001x"},
         "name must be printable (got 'tiny\\x01x')"),
        ("model", {**MODEL_FILE_DOC, "name": "tiny\ud800"},
         "name must be printable (got 'tiny\\ud800')"),
        ("hardware", hardware_doc(name="gpu\u0001x"), "name must be printable (got 'gpu\\x01x')"),
        ("hardware", hardware_doc(name="gpu\ud800"), "name must be printable (got 'gpu\\ud800')"),
    ],
    ids=["model-unknown", "model-missing", "hardware-unknown", "hardware-missing",
         "model-empty-name", "model-attention-kind", "hardware-empty-name",
         "hardware-string-number", "model-control-name", "model-surrogate-name",
         "hardware-control-name", "hardware-surrogate-name"],
)
def test_model_and_hardware_file_keys_are_checked(tmp_path, capsys, field, doc, message):
    # The key sets come from the ModelConfig and HardwareSpec fields, and
    # each dataclass checks its own values.
    write_json(tmp_path, "file.json", doc)
    config = write_json(tmp_path, "scenario.json", arm_scenario_doc(**{field: "file.json"}))
    assert main(["analyze", "-c", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("field", ["model", "hardware"])
@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_a_relative_file_name_resolves_against_the_config_directory_only(
        tmp_path, capsys, monkeypatch, field, command):
    # The file exists in the working directory, not beside the config file.
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, f"{field}.json", MODEL_FILE_DOC if field == "model" else hardware_doc())
    (tmp_path / "sub").mkdir()
    doc = {"analyze": arm_scenario_doc, "sweep": lambda **kw: arm_grid_doc({"batch": [1]}, **kw)}
    config = write_json(tmp_path / "sub", "config.json", doc[command](**{field: f"{field}.json"}))
    output = ["-o", str(tmp_path / "out.csv")] if command == "sweep" else []
    argv = [command, "-c", config, *output]
    assert main(argv) == 1
    registry = MODEL_REGISTRY if field == "model" else HW_REGISTRY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: unknown {field} '{field}.json' "
                            f"(registry: {', '.join(sorted(registry))}) and no such file\n")
    assert not (tmp_path / "out.csv").exists()
    os.replace(tmp_path / f"{field}.json", tmp_path / "sub" / f"{field}.json")
    assert main(argv) == 0


@pytest.mark.parametrize("field", ["model", "hardware"])
@pytest.mark.parametrize("name", ["x\u0001y", "x\ud800y"], ids=["control", "surrogate"])
def test_roofline_rejects_an_unprintable_name_leaving_the_output_as_it_was(
        tmp_path, capsys, field, name):
    # Both names are written into the SVG: a control character is no XML
    # character, and a lone surrogate cannot be encoded as UTF-8.
    named = MODEL_FILE_DOC if field == "model" else hardware_doc()
    write_json(tmp_path, "file.json", {**named, "name": name})
    doc = arm_grid_doc({"batch": [1, 2]}, **{field: "file.json"})
    config = write_json(tmp_path, "grid.json", doc)
    output = tmp_path / "roofline.svg"
    output.write_bytes(b"previous output\n")
    assert main(["roofline", "-c", config, "-o", str(output)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: name must be printable (got {name!r})\n"
    assert output.read_bytes() == b"previous output\n"


def test_plot_names_a_zero_x_value_and_its_axis(tmp_path, capsys):
    # sweep and roofline accept prompt_len 0; a log x axis cannot draw it.
    config = write_json(tmp_path, "grid.json", arm_grid_doc({"prompt_len": [0, 8]}))
    output = tmp_path / "plot.svg"
    assert main(["plot", "--kind", "latency", "-c", config, "-o", str(output)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "series 'arm': prompt_len=0," in captured.err
    assert not output.exists()


@pytest.mark.parametrize(
    "command", [*GRID_COMMANDS, ["plot", "--kind", "throughput"], ["plot", "--kind", "ai"]],
    ids=["sweep", "roofline", "plot-latency", "plot-throughput", "plot-ai"],
)
def test_rejected_last_point_leaves_an_existing_output_as_it_was(tmp_path, capsys, command):
    # The points before the last evaluate; nothing is written until every one has.
    doc = {
        "model": "llada-8b",
        "hardware": "rtx-a6000",
        "mode": "dlm_block",
        "batch": 1,
        "prompt_len": 16,
        "block_size": 48,
        "axes": {"gen_len": [64, 96, 32]},
    }
    output = tmp_path / "out"
    output.write_bytes(b"previous output\n")
    assert main([*command, "-c", write_json(tmp_path, "grid.json", doc), "-o", str(output)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid point {'gen_len': 32}: block size exceeds generation length" in captured.err
    assert output.read_bytes() == b"previous output\n"


def run_module(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """`python -m lmroofline argv` in a new process, with `env` added to its
    environment, its stdout and stderr into pipes."""
    src = str(Path(lmroofline.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "lmroofline", *argv],
        env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True, timeout=60,
    )


@pytest.mark.parametrize("command", GRID_COMMANDS, ids=lambda argv: argv[0])
def test_reports_to_dev_stdout_and_dev_null_are_written_whole(tmp_path, command):
    # A regular file is cut where the report ends. A pipe or /dev/null cannot
    # be cut (ftruncate fails with ESPIPE or EINVAL), so neither is.
    doc = arm_grid_doc({"batch": [1, 2], "gen_len": [16, 32]})
    config = write_json(tmp_path, "grid.json", doc)
    report = tmp_path / "report"
    to_file = run_module([*command, "-c", config, "-o", str(report)])
    assert to_file.returncode == 0, to_file.stderr
    for special in ("/dev/stdout", "/dev/null"):
        run = run_module([*command, "-c", config, "-o", special])
        assert (run.returncode, run.stderr) == (0, b"")
        message = to_file.stdout.replace(str(report).encode(), special.encode())
        written = report.read_bytes() if special == "/dev/stdout" else b""
        assert run.stdout == written + message


@pytest.mark.parametrize("command", GRID_COMMANDS, ids=lambda argv: argv[0])
def test_an_output_path_that_is_not_text_prints_escaped(tmp_path, command):
    """A path whose bytes are not UTF-8 reaches Python with surrogate escapes,
    which a strict UTF-8 stdout cannot encode: the `wrote` line quotes it as
    echo does, after the file is written, and the call exits 0."""
    config = write_json(tmp_path, "grid.json", arm_grid_doc({"batch": [1, 2]}, prompt_len=8))
    output = tmp_path / "\udcff.out"
    run = run_module([*command, "-c", config, "-o", str(output)], PYTHONIOENCODING="utf-8:strict")
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout.startswith(b"wrote ")
    assert run.stdout.endswith(f" {echo(str(output))}\n".encode())
    assert os.path.getsize(os.fsencode(output)) > 0


@pytest.mark.parametrize("command", [["analyze"], ["sweep", "-o", "out.csv"]])
def test_a_rejected_value_is_echoed_in_one_short_line(tmp_path, capsys, monkeypatch, command):
    # A gen_len nested 900 deep, which the parser accepts, and a 100,000-character
    # batch: each value is quoted up to ECHO_LIMIT characters, in the grid
    # point and again in the check that rejects it.
    monkeypatch.chdir(tmp_path)
    deep = "[" * 900 + "]" * 900
    if command[0] == "sweep":
        text = json.dumps(arm_grid_doc({"gen_len": [32]})).replace("[32]", f"[{deep}]")
    else:
        text = json.dumps(arm_scenario_doc(batch="x" * 100_000))
    config = tmp_path / "input.json"
    config.write_text(text)
    assert main([*command, "-c", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert len(captured.err) < 1_000
    field = "gen_len" if command[0] == "sweep" else "batch"
    assert f"{field} must be an integer >= 1 (got " in captured.err
    assert " characters)" in captured.err
    assert not (tmp_path / "out.csv").exists()


def nested_dtype_bytes_doc(where, depth):
    """The text of an input whose dtype_bytes is a list nested `depth` deep:
    a scenario's field, a grid's axis value or a grid case's field."""
    deep = "[" * depth + "]" * depth
    if where == "analyze":
        doc = arm_scenario_doc(dtype_bytes=0)
    elif where == "axis":
        doc = arm_grid_doc({"dtype_bytes": [0]})
    else:
        doc = arm_grid_doc({"batch": [1]}, cases=[{}, {"dtype_bytes": 0}])
    return json.dumps(doc).replace('"dtype_bytes": 0', f'"dtype_bytes": {deep}').replace(
        '"dtype_bytes": [0]', f'"dtype_bytes": [{deep}]')


@pytest.mark.parametrize("where", ["analyze", "axis", "case"])
def test_a_value_nested_up_to_the_parser_depth_exits_1_in_one_short_line(
        tmp_path, capsys, monkeypatch, where):
    # A value the JSON parser accepts can still be nested too deep for echo's
    # repr or a case name's json.dumps; then it is quoted by its type. Where
    # that starts moves with the caller's stack, so every depth is run, from
    # 100 below the first at which the running interpreter's repr,
    # json.dumps or JSON parser stops, up to the first one the parser
    # rejects. They are probed from this frame, which the CLI's calls run
    # below, so the CLI's parser rejects a depth no deeper than the probe's.
    parser_depth = recursion_depth(lambda depth: json.loads("[" * depth + "]" * depth))
    assert parser_depth is not None, "the JSON parser accepted every depth probed"
    spell_depths = [recursion_depth(lambda depth: spell(nested_list(depth)))
                    for spell in (repr, json.dumps)]
    first = min(depth for depth in (parser_depth, *spell_depths) if depth is not None) - 100
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "input.json"
    command = ["analyze"] if where == "analyze" else ["sweep", "-o", "out.csv"]
    for depth in range(first, parser_depth + 1):
        config.write_text(nested_dtype_bytes_doc(where, depth))
        assert main([*command, "-c", str(config)]) == 1, depth
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_short_line(captured.err)
        if captured.err.startswith(f"error: invalid JSON in {config}: maximum recursion depth"):
            break
        assert "dtype_bytes must be an integer >= 1 (got " in captured.err, depth
    else:
        pytest.fail("the JSON parser accepted every depth")
    assert depth > first
    assert not (tmp_path / "out.csv").exists()


def assert_one_short_line(err):
    """stderr of a rejection: one line of printable text, at most 1,000 characters."""
    line, newline, rest = err.partition("\n")
    assert (newline, rest) == ("\n", ""), err[:2_000]
    assert len(line) <= 1_000, len(line)
    assert line.isprintable(), line


LONG = "k" * 100_000


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (["analyze"], arm_scenario_doc(**{"x\ny": 1}),
         "error: unknown field(s) in scenario: 'x\\ny'\n"),
        (["analyze"], arm_scenario_doc(model="no\nsuch"),
         "error: unknown model 'no\\nsuch' (registry: llada-8b, llama3-8b) and no such file\n"),
        (["sweep", "-o", "out.csv"], arm_grid_doc({"a\nb": [1]}),
         "error: unknown sweep axis 'a\\nb' (allowed: batch, prompt_len, gen_len, steps, "
         "block_size, dtype_bytes)\n"),
        (["sweep", "-o", "out.csv"], arm_grid_doc({"a\rb": 1}),
         "error: axis 'a\\rb' must map to a list of values\n"),
        (["analyze"], arm_scenario_doc(hardware="\x1b[31mred"),
         "error: unknown hardware '\\x1b[31mred' (registry: a100-80g, rtx-a6000) "
         "and no such file\n"),
        (["analyze"], arm_scenario_doc(options={"\x1b[2J": True, "z": True}),
         "error: unknown field(s) in options: '\\x1b[2J', z\n"),
        (["analyze"], arm_scenario_doc(**{LONG: 1}), None),
        (["analyze"], arm_scenario_doc(**{f"{i}{LONG}": 1 for i in range(3)}), None),
        (["analyze"], arm_scenario_doc(model=LONG), None),
        (["sweep", "-o", "out.csv"], arm_grid_doc({LONG: [1]}), None),
    ],
    ids=["scenario-key-newline", "model-newline", "axis-newline", "axis-carriage-return",
         "hardware-escape", "option-key-escape", "long-key", "long-keys", "long-model",
         "long-axis"],
)
def test_a_rejected_name_or_key_is_echoed_in_one_printable_line(tmp_path, capsys, monkeypatch,
                                                                 command, doc, message):
    # Names and keys are quoted as before while short and printable; any
    # other is escaped by repr and cut after ECHO_LIMIT characters.
    monkeypatch.chdir(tmp_path)
    assert main([*command, "-c", write_json(tmp_path, "input.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_short_line(captured.err)
    if message is None:
        assert " characters)" in captured.err
    else:
        assert captured.err == message
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("registry", ["hw", "model"])
@pytest.mark.parametrize("name", ["a\nb", "\x1b[31mred", LONG],
                         ids=["newline", "escape", "long"])
def test_show_of_an_unknown_name_is_one_printable_line(capsys, registry, name):
    assert main([registry, "show", name]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_short_line(captured.err)
    assert "unknown " in captured.err


REGISTRY_NAMES = {"model": "llada-8b, llama3-8b", "hardware": "a100-80g, rtx-a6000"}


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("field", ["model", "hardware"])
@pytest.mark.parametrize("name", ["", ".", ".."], ids=["empty", "dot", "dotdot"])
def test_a_name_that_resolves_only_to_a_directory_is_unknown(
        tmp_path, capsys, monkeypatch, command, field, name):
    # Joined to the document's directory, and as given, each name is a
    # directory: no document to read, so the name is unknown, not an I/O error.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.csv"
    if command == "analyze":
        argv = ["analyze", "-c", write_json(tmp_path, "in.json", arm_scenario_doc(**{field: name}))]
    else:
        doc = arm_grid_doc({"gen_len": [16, 32]}, **{field: name})
        argv = ["sweep", "-c", write_json(tmp_path, "in.json", doc), "-o", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: unknown {field} '{name}' (registry: {REGISTRY_NAMES[field]}) "
                            "and no such file\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("field", ["model", "hardware"])
@pytest.mark.parametrize("bad", [5, True, None], ids=["int", "true", "null"])
def test_a_model_or_hardware_that_is_not_a_string_exits_1(
        tmp_path, capsys, monkeypatch, command, field, bad):
    # A valid document sits under each name str() would give the value, in
    # the document's directory and the working directory: a value coerced to
    # a name would load it and exit 0.
    monkeypatch.chdir(tmp_path)
    registry = {"model": MODEL_REGISTRY["llama3-8b"], "hardware": HW_REGISTRY["rtx-a6000"]}
    write_json(tmp_path, str(bad), registry[field]._asdict())
    out = tmp_path / "out.csv"
    if command == "analyze":
        argv = ["analyze", "-c", write_json(tmp_path, "in.json", arm_scenario_doc(**{field: bad}))]
    else:
        doc = arm_grid_doc({"gen_len": [16, 32]}, **{field: bad})
        argv = ["sweep", "-c", write_json(tmp_path, "in.json", doc), "-o", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be a registry name or a file path (got {bad})\n"
    assert not out.exists()
