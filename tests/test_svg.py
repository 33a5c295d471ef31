"""SVG emitters: well-formedness, roof geometry, and byte determinism."""

import os
import xml.etree.ElementTree as ET

import pytest

from lmroofline import (
    HW_REGISTRY,
    MODEL_REGISTRY,
    RooflinePoint,
    Scenario,
    ValidationError,
    WorkloadSpec,
    classify,
    emit_line_svg,
    emit_roofline_svg,
    end_to_end,
    ridge_point,
)

A6000 = HW_REGISTRY["rtx-a6000"]
LLAMA = MODEL_REGISTRY["llama3-8b"]

SVG_NS = "{http://www.w3.org/2000/svg}"


def sample_points():
    w = WorkloadSpec(mode="arm", batch=1, prompt_len=2048, gen_len=128)
    return list(end_to_end(Scenario(model=LLAMA, hardware=A6000, workload=w)).points)


def parse_svg(path):
    tree = ET.parse(path)
    root = tree.getroot()
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("width")
    assert root.get("height")
    return root


def test_roofline_svg_is_well_formed(tmp_path):
    path = tmp_path / "roofline.svg"
    emit_roofline_svg(sample_points(), A6000, str(path))
    parse_svg(str(path))


def test_roofline_roofs_meet_at_ridge(tmp_path):
    path = tmp_path / "roofline.svg"
    emit_roofline_svg(sample_points(), A6000, str(path))
    root = parse_svg(str(path))
    polylines = root.findall(f".//{SVG_NS}polyline")
    roof = next(p for p in polylines if p.get("stroke") == "#000000")
    vertices = roof.get("points").split()
    assert len(vertices) == 3
    knee = vertices[1]
    # the compute roof is horizontal from the knee onward
    assert vertices[2].split(",")[1] == knee.split(",")[1]
    # the dashed ridge marker stands at the knee's x position
    dashed = next(
        line for line in root.findall(f".//{SVG_NS}line") if line.get("stroke-dasharray")
    )
    assert dashed.get("x1") == dashed.get("x2") == knee.split(",")[0]


def test_roofline_annotates_ridge_value(tmp_path):
    path = tmp_path / "roofline.svg"
    emit_roofline_svg(sample_points(), A6000, str(path))
    content = path.read_text()
    assert "ridge 201.6 FLOP/B" in content


def test_point_on_ridge_renders_at_the_knee(tmp_path):
    on_ridge = RooflinePoint(
        ai=ridge_point(A6000),
        perf_attained=A6000.peak_flops,
        bound="compute_bound",
        label="balanced",
    )
    path = tmp_path / "knee.svg"
    emit_roofline_svg([on_ridge], A6000, str(path))
    root = parse_svg(str(path))
    roof = next(
        p for p in root.findall(f".//{SVG_NS}polyline") if p.get("stroke") == "#000000"
    )
    knee_x, knee_y = roof.get("points").split()[1].split(",")
    circle = root.find(f".//{SVG_NS}circle")
    assert circle.get("cx") == knee_x
    assert circle.get("cy") == knee_y


def test_bound_controls_marker_color(tmp_path):
    points = [
        RooflinePoint(ai=1.0, perf_attained=768e9, bound="memory_bound", label="mb"),
        RooflinePoint(ai=1e4, perf_attained=154.8e12, bound="compute_bound", label="cb"),
    ]
    path = tmp_path / "colors.svg"
    emit_roofline_svg(points, A6000, str(path))
    root = parse_svg(str(path))
    colors = [c.get("fill") for c in root.findall(f".//{SVG_NS}circle")]
    assert len(set(colors)) == 2


def test_roofline_requires_points(tmp_path):
    with pytest.raises(ValidationError, match="at least one"):
        emit_roofline_svg([], A6000, str(tmp_path / "x.svg"))


def test_roofline_rejects_nonpositive_points(tmp_path):
    bad = RooflinePoint(ai=0.0, perf_attained=1.0, bound="memory_bound", label="bad")
    with pytest.raises(ValidationError, match="positive"):
        emit_roofline_svg([bad], A6000, str(tmp_path / "x.svg"))


def test_roofline_output_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_roofline_svg(sample_points(), A6000, str(p1))
    emit_roofline_svg(sample_points(), A6000, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def line_series():
    return [
        ("arm", [(1, 100.0), (2, 180.0), (4, 300.0), (8, 420.0)]),
        ("dlm", [(1, 90.0), (2, 160.0), (4, 200.0), (8, 210.0)]),
    ]


def test_line_svg_is_well_formed(tmp_path):
    path = tmp_path / "lines.svg"
    emit_line_svg(line_series(), str(path), "batch", "tokens/s", "throughput")
    root = parse_svg(str(path))
    polylines = [
        p for p in root.findall(f".//{SVG_NS}polyline") if p.get("stroke") != "#000000"
    ]
    assert len(polylines) == 2


def test_line_svg_x_ticks_are_powers_of_two(tmp_path):
    path = tmp_path / "lines.svg"
    emit_line_svg(line_series(), str(path), "batch", "tokens/s", "throughput")
    content = path.read_text()
    for label in (">1<", ">2<", ">4<", ">8<"):
        assert label in content


def test_line_svg_legend_carries_series_names(tmp_path):
    path = tmp_path / "lines.svg"
    emit_line_svg(line_series(), str(path), "batch", "tokens/s", "throughput")
    content = path.read_text()
    assert ">arm<" in content
    assert ">dlm<" in content


def test_line_svg_requires_nonempty_series(tmp_path):
    with pytest.raises(ValidationError, match="nonempty"):
        emit_line_svg([("empty", [])], str(tmp_path / "x.svg"), "x", "y", "t")


def test_line_svg_rejects_nonpositive_values(tmp_path):
    with pytest.raises(ValidationError, match="positive"):
        emit_line_svg([("s", [(0.0, 1.0)])], str(tmp_path / "x.svg"), "x", "y", "t")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad, path: classify(bad, A6000),
        lambda bad, path: emit_roofline_svg(
            [RooflinePoint(ai=bad, perf_attained=1.0, bound="memory_bound", label="p")], A6000, path
        ),
        lambda bad, path: emit_line_svg([("s", [(1.0, 1.0), (2.0, bad)])], path, "x", "y", "t"),
    ],
    ids=["classify", "emit_roofline_svg", "emit_line_svg"],
)
def test_non_finite_floats_rejected(tmp_path, call, bad):
    path = str(tmp_path / "x.svg")
    with pytest.raises(ValidationError, match="finite"):
        call(bad, path)
    assert not os.path.exists(path)


def test_line_svg_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_line_svg(line_series(), str(p1), "batch", "tokens/s", "throughput")
    emit_line_svg(line_series(), str(p2), "batch", "tokens/s", "throughput")
    assert p1.read_bytes() == p2.read_bytes()
