"""Arbitrary JSON values in every field of a scenario or grid document, and
arbitrary keys, names and axis names.

A malformed input must be rejected with a ValidationError, which the CLI
turns into exit 1; it must never raise anything else or yield a NaN, an
infinity or a count that no float can hold. So every document below either
raises ValidationError or evaluates to rows whose numbers are all finite
floats, and every command of the CLI exits 0 or 1 on such a document. A
rejection is one line of at most 1,000 printable characters, whatever
names, keys and values the document holds. A grid document may also list
up to three cases, each holding some of the grid's fields, changed,
dropped or joined by a field only the grid may set.
"""

import contextlib
import dataclasses
import io
import json
import math
import operator
import os
import re
import sys
import tempfile
import xml.etree.ElementTree as ET

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmroofline import HW_REGISTRY, MODEL_REGISTRY, ValidationError, end_to_end
from lmroofline.cli import main as cli_main
from lmroofline.configs import DTYPE_BYTES_ALLOWED, MODES, scenario_from_dict
from lmroofline.sweep import AXIS_FIELDS, evaluate_point, grid_from_dict, run_sweep
from test_cli import assert_one_short_line

OPTION_KEYS = [
    "include_lm_head",
    "count_lm_head",
    "include_cache_refresh",
    "count_elementwise_bytes",
    "include_elementwise",
    "causal_exact",
    "full_kv_each_step",
]
# Ints at and past the edges of the float range, besides hypothesis's own.
EDGE_INTS = [10**300, int(sys.float_info.max), int(sys.float_info.max) + 1, 10**320]

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(EDGE_INTS)
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
# Keys, names and axis names: any Unicode, line breaks and escapes drawn
# often, and some far past ECHO_LIMIT.
any_text = st.text(st.characters() | st.sampled_from("\n\r\x1b")) | st.builds(
    operator.mul, st.text(min_size=1, max_size=3), st.integers(min_value=300, max_value=40_000))
# A model or hardware name that names no document: nothing, or only a
# directory, as "", "." and ".." always do (joined to the document's own
# directory or not). Each is unknown, exit 1. A name with "/" is left out, as
# it could name any file; a name without one could name only an entry of the
# working directory, or of the document's own, which holds only files the
# tests write: each of those is rejected as a model or hardware document
# with exit 1 too.
unknown_names = st.sampled_from(["", ".", ".."]) | any_text.filter(
    lambda name: "/" not in name and (not os.path.exists(name) or os.path.isdir(name)))
# A model or hardware that is not a string is rejected as one, exit 1, before
# any lookup: 5, true and null are never read as files `5`, `True` or `None`.
non_strings = st.none() | st.booleans() | st.integers() | st.lists(st.integers(), max_size=2)
counts = st.sampled_from(EDGE_INTS) | json_values

# What a field may be replaced with: anything, weighted towards values of
# the right kind that are out of range.
ARBITRARY = {
    "model": st.sampled_from(["llada-8b", "gpt-9"]) | unknown_names | non_strings,
    "hardware": st.just("tpu-v9") | unknown_names | non_strings,
    "mode": st.sampled_from(MODES) | json_values,
    "batch": counts,
    "prompt_len": counts,
    "gen_len": counts,
    "steps": counts,
    "block_size": counts,
    "dtype_bytes": json_values,
    "options": st.dictionaries(st.sampled_from(OPTION_KEYS), st.booleans() | json_values,
                               max_size=4) | json_values,
}


def one_in(draw, n):
    """True about once in n draws (hypothesis favours the ends of a range)."""
    return draw(st.integers(min_value=1, max_value=n)) == n // 2


@st.composite
def valid_base(draw):
    """A valid scenario document with gen_len left out."""
    mode = draw(st.sampled_from(MODES))
    doc = {
        "model": "llama3-8b" if mode == "arm" else draw(st.sampled_from(sorted(MODEL_REGISTRY))),
        "hardware": draw(st.sampled_from(sorted(HW_REGISTRY))),
        "mode": mode,
        "batch": draw(st.integers(min_value=1, max_value=64)),
        "prompt_len": draw(st.integers(min_value=0, max_value=4096)),
    }
    if mode == "dlm_block":
        doc["block_size"] = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        doc["dtype_bytes"] = draw(st.sampled_from(DTYPE_BYTES_ALLOWED))
    if draw(st.booleans()):
        # One name per option, documented and field names mixed.
        names = ["count_lm_head", "include_cache_refresh", "count_elementwise_bytes",
                 "causal_exact", "full_kv_each_step"]
        doc["options"] = draw(st.dictionaries(st.sampled_from(names), st.booleans()))
    return doc


def corrupt(draw, doc, names):
    """Add a key the document does not hold, now and then, and replace up to
    two of the named fields with arbitrary values, or drop them."""
    if one_in(draw, 5):
        doc[draw(any_text.filter(lambda key: key not in doc))] = draw(json_values)
    for name in draw(st.sets(st.sampled_from(names), max_size=2)):
        if one_in(draw, 6):
            doc.pop(name, None)
        else:
            doc[name] = draw(ARBITRARY[name])
    return doc


@st.composite
def scenario_docs(draw):
    doc = draw(valid_base())
    doc["gen_len"] = draw(st.integers(min_value=doc.get("block_size", 1), max_value=4096))
    if doc["mode"] != "arm":
        doc["steps"] = draw(st.integers(min_value=doc["gen_len"], max_value=8192))
    return corrupt(draw, doc, sorted(ARBITRARY))


@st.composite
def grid_docs(draw):
    doc = draw(valid_base())
    low = doc.get("block_size", 1)
    axes = {"gen_len": draw(st.lists(st.integers(min_value=low, max_value=4096),
                                     min_size=1, max_size=3))}
    for name in draw(st.sets(st.sampled_from(["batch", "prompt_len"]), max_size=1)):
        axes[name] = [doc.pop(name)] + draw(st.lists(st.integers(min_value=1, max_value=64),
                                                     max_size=2))
    for values in axes.values():
        if one_in(draw, 4):
            values.append(draw(counts))
    if one_in(draw, 8):
        axes[draw(any_text)] = [1]
    names = sorted(ARBITRARY)
    doc["axes"] = axes
    if one_in(draw, 10):
        doc["axes"] = draw(st.dictionaries(st.sampled_from(AXIS_FIELDS) | any_text,
                                           st.lists(counts, max_size=3) | json_values,
                                           max_size=3))
    cases = draw(st.integers(min_value=0, max_value=3))
    if cases:
        # Some of the grid's own fields move into each case, which may then
        # change or drop them, or set a field only the grid may set.
        moved = draw(st.sets(st.sampled_from(sorted(doc.keys() - {"hardware", "axes"}))))
        shared = {name: doc.pop(name) for name in sorted(moved)}
        doc["cases"] = [corrupt(draw, dict(shared), names) if draw(st.booleans()) else dict(shared)
                        for _ in range(cases)]
        if one_in(draw, 10):
            doc["cases"] = draw(json_values)
    return corrupt(draw, doc, names)


def assert_finite(row):
    for field in dataclasses.fields(row):
        value = getattr(row, field.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            assert math.isfinite(float(value)), (field.name, value)


@settings(max_examples=300, deadline=None)
@given(doc=scenario_docs())
def test_scenario_document_is_rejected_or_finite(doc):
    try:
        row = evaluate_point(end_to_end(scenario_from_dict(doc)))
    except ValidationError as exc:
        assert_one_short_line(f"error: {exc}\n")
        return
    assert_finite(row)


@settings(max_examples=300, deadline=None)
@given(doc=grid_docs())
def test_grid_document_is_rejected_or_finite(doc):
    try:
        rows = run_sweep(grid_from_dict(doc))
    except ValidationError as exc:
        assert_one_short_line(f"error: {exc}\n")
        return
    for row in rows:
        assert_finite(row)


GRID_COMMANDS = {
    "sweep": ["sweep"],
    "roofline": ["roofline"],
    **{f"plot-{kind}": ["plot", "--kind", kind] for kind in ("latency", "throughput", "ai")},
}
SVG_COORDINATES = ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "width", "height", "points")


def svg_coordinates(path):
    """Every number in the coordinate attributes of the SVG file at path."""
    for element in ET.parse(path).iter():
        for name in SVG_COORDINATES:
            for token in re.split(r"[ ,]+", element.get(name, "").strip()):
                if token:
                    yield float(token)


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def write_doc(work, name, doc):
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


@settings(max_examples=200, deadline=None)
@given(doc=scenario_docs())
def test_analyze_exits_0_or_1_and_a_rejection_is_one_short_line(doc):
    with tempfile.TemporaryDirectory() as work:
        code, out, err = run_command(["analyze", "-c", write_doc(work, "scenario.json", doc)])
    assert code in (0, 1), err
    if code == 1:
        assert out == ""
        assert_one_short_line(err)
    else:
        assert err == ""


@settings(max_examples=100, deadline=None)
@given(doc=grid_docs())
@example(doc={  # a null steps on the x axis: drawn at the point's gen_len
    "model": "llada-8b",
    "hardware": "rtx-a6000",
    "mode": "dlm_naive",
    "batch": 1,
    "prompt_len": 8,
    "gen_len": 32,
    "axes": {"steps": [None, 8]},
})
@example(doc={  # prompt_len 0 on the x axis: swept, but not on a log axis
    "model": "llama3-8b",
    "hardware": "a100-80g",
    "mode": "arm",
    "batch": 2,
    "gen_len": 16,
    "axes": {"prompt_len": [0, 8]},
})
@example(doc={  # no axes: one point, but no x axis to plot against
    "model": "llama3-8b",
    "hardware": "rtx-a6000",
    "mode": "arm",
    "batch": 1,
    "prompt_len": 4,
    "gen_len": 4,
    "axes": {},
})
def test_every_grid_command_exits_0_or_1(doc):
    """Each grid command exits 0 or 1 and never raises; on exit 1 it prints
    nothing to stdout and one short line to stderr, and every SVG it writes
    has finite coordinates. A grid
    that `sweep` accepts, every other grid command draws, except that `plot`
    needs an axis to draw against, and its log x axis cannot show a
    prompt_len of 0."""
    with tempfile.TemporaryDirectory() as work:
        config = write_doc(work, "grid.json", doc)
        codes = {}
        for name, argv in GRID_COMMANDS.items():
            output = os.path.join(work, f"{name}.out")
            code, out, err = run_command([*argv, "-c", config, "-o", output])
            assert code in (0, 1), (name, code, err)
            if code == 1:
                assert out == "", (name, out)
                assert_one_short_line(err)
            elif name != "sweep":
                assert all(map(math.isfinite, svg_coordinates(output))), name
            codes[name] = (code, err)
    if codes["sweep"][0] == 0:
        axes = list(doc["axes"].values())
        plot_refuses = not axes or 0 in axes[-1]
        for name, (code, err) in codes.items():
            assert code == (1 if name.startswith("plot") and plot_refuses else 0), (name, err)
