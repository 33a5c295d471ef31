"""Static SVG emitters with a fixed layout and tick policy.

Identical inputs give byte-identical files; no plotting library is used.
Axes are logarithmic: decades, but powers of two on a line plot's x axis, a
token count. Every plotted value must be positive and finite. An emitter
checks every point before it opens the file, so a rejected plot leaves an
existing file as it was, and writes the document as it renders it.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import ceil, floor, inf, log10, log2

from .configs import HardwareSpec, _write_text
from .errors import ValidationError
from .roofline import RooflinePoint, ridge_point

WIDTH, HEIGHT = 860, 560
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 84, 36, 48, 72

# Coordinates per write of a polyline: a longer series is written in pieces,
# so its coordinate text is never held whole.
POLYLINE_CHUNK = 256

_MEMORY_COLOR = "#1f77b4"
_COMPUTE_COLOR = "#d62728"
_SERIES_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


class _LogScale:
    def __init__(self, lo_log: float, hi_log: float, px_lo: float, px_hi: float):
        self.lo_log, self.span = lo_log, hi_log - lo_log
        self.px_lo, self.px_hi, self.width = px_lo, px_hi, px_hi - px_lo

    def map_log(self, value_log: float) -> float:
        return self.px_lo + (value_log - self.lo_log) / self.span * self.width

    def map(self, value: float) -> float:
        return self.px_lo + (log10(value) - self.lo_log) / self.span * self.width


def _escape(text: str) -> str:
    """Escape &, > and < for SVG text, in that order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _frame(
    title: str, x: _LogScale, y: _LogScale, x_ticks: list[tuple[float, str]],
    y_ticks: list[tuple[float, str]], xlabel: str, ylabel: str,
) -> list[str]:
    """The document head, background, title and axes: one line per element."""
    left, right = x.px_lo, x.px_hi
    top, bottom = y.px_hi, y.px_lo
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.0f}" y="26" font-size="16" text-anchor="middle">'
        f"{_escape(title)}</text>",
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="#000000"/>',
    ]
    for value_log, text in x_ticks:
        px = x.map_log(value_log)
        lines.append(
            f'<line x1="{px:.2f}" y1="{top:.2f}" x2="{px:.2f}" y2="{bottom:.2f}" '
            f'stroke="#dddddd"/>'
        )
        lines.append(
            f'<text x="{px:.2f}" y="{bottom + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{_escape(text)}</text>'
        )
    for value_log, text in y_ticks:
        py = y.map_log(value_log)
        lines.append(
            f'<line x1="{left:.2f}" y1="{py:.2f}" x2="{right:.2f}" y2="{py:.2f}" '
            f'stroke="#dddddd"/>'
        )
        lines.append(
            f'<text x="{left - 6:.2f}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end">{_escape(text)}</text>'
        )
    lines.append(
        f'<text x="{(left + right) / 2:.2f}" y="{HEIGHT - 16}" font-size="13" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    lines.append(
        f'<text x="20" y="{(top + bottom) / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.2f})">{_escape(ylabel)}</text>'
    )
    return lines


def _decade_ticks(lo_exp: int, hi_exp: int) -> list[tuple[float, str]]:
    step = max(1, (hi_exp - lo_exp) // 10)
    return [(float(e), f"1e{e}") for e in range(lo_exp, hi_exp + 1, step)]


def _extents(triples, rejection) -> tuple[float, float, float, float]:
    """(x min, x max, y min, y max) over (x, y, what) triples, in one pass that
    checks each x and y positive and finite, else raises `rejection(x, y, what)`.
    With no triples, the minima are inf."""
    x_lo = y_lo = inf
    x_hi = y_hi = 0.0
    for x, y, what in triples:
        if not (0 < x < inf and 0 < y < inf):  # also false for NaN
            raise ValidationError(rejection(x, y, what))
        if x < x_lo:
            x_lo = x
        if x > x_hi:
            x_hi = x
        if y < y_lo:
            y_lo = y
        if y > y_hi:
            y_hi = y
    return x_lo, x_hi, y_lo, y_hi


def emit_roofline_svg(points: list[RooflinePoint], hw: HardwareSpec, path: str) -> None:
    """Log-log roofline: bandwidth slope and compute ceiling meeting at the ridge."""
    if not points:
        raise ValidationError("at least one roofline point is required")
    ridge = ridge_point(hw)
    peak, bw = hw.peak_flops, hw.mem_bandwidth
    ai_lo, ai_hi, perf_lo, _ = _extents(
        ((p.ai, p.perf_attained, p.label) for p in points),
        lambda ai, perf, label: f"roofline point '{label}' must be positive and finite to plot",
    )
    ai_lo, ai_hi = min(ai_lo, ridge), max(ai_hi, ridge)  # x spans the ridge too

    x_lo = floor(log10(ai_lo)) - 1
    x_hi = ceil(log10(ai_hi)) + 1
    y_hi = floor(log10(peak)) + 1
    y_lo = min(floor(log10(perf_lo)) - 1, y_hi - 4)

    x = _LogScale(x_lo, x_hi, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    y = _LogScale(y_lo, y_hi, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)

    frame = _frame(
        f"Roofline: {hw.name}", x, y, _decade_ticks(x_lo, x_hi),
        _decade_ticks(y_lo, y_hi), "arithmetic intensity (FLOP/byte)", "performance (FLOP/s)",
    )
    # Bandwidth roof y = bw * ai, clipped at the bottom of the frame.
    start_log = max(float(x_lo), y_lo - log10(bw))
    knee_x, knee_y = x.map(ridge), y.map(peak)
    frame.append(
        f'<polyline fill="none" stroke="#000000" stroke-width="2" points="'
        f"{x.map_log(start_log):.2f},{y.map_log(start_log + log10(bw)):.2f} "
        f'{knee_x:.2f},{knee_y:.2f} {x.map_log(x_hi):.2f},{knee_y:.2f}"/>'
    )
    frame.append(
        f'<line x1="{knee_x:.2f}" y1="{y.map_log(y_lo):.2f}" x2="{knee_x:.2f}" '
        f'y2="{knee_y:.2f}" stroke="#555555" stroke-dasharray="5,4"/>'
    )
    frame.append(
        f'<text x="{knee_x + 6:.2f}" y="{y.map_log(y_lo) - 8:.2f}" font-size="12">'
        f"ridge {ridge:.4g} FLOP/B</text>"
    )

    _write_text(path, _roofline_document(frame, points, x, y))


def _roofline_document(
    frame: list[str], points: list[RooflinePoint], x: _LogScale, y: _LogScale
) -> Iterator[str]:
    yield "\n".join(frame) + "\n"
    for p in points:
        color = _COMPUTE_COLOR if p.bound == "compute_bound" else _MEMORY_COLOR
        px, py = x.map(p.ai), y.map(p.perf_attained)
        yield (
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}"/>\n'
            f'<text x="{px + 6:.2f}" y="{py - 6:.2f}" font-size="10">'
            f"{_escape(p.label)}</text>\n"
        )
    yield "</svg>\n"


def emit_line_svg(
    series: list[tuple[str, list[tuple[float, float]]]],
    path: str,
    xlabel: str,
    ylabel: str,
    title: str,
) -> None:
    """Log-log line plot; x ticks at powers of two for token-count axes.

    A point that is not positive and finite is rejected by series name and
    (x, y) pair, with x under `xlabel`.
    """
    x_min, x_max, y_min, y_max = _extents(
        ((px, py, name) for name, pts in series for px, py in pts),
        lambda px, py, name: f"line plots are log-log; values must be positive and finite "
                             f"(series '{name}': {xlabel}={px:g}, y={py:g})",
    )
    if x_min == inf:
        raise ValidationError("at least one nonempty series is required")

    lo2, hi2 = floor(log2(x_min)), ceil(log2(x_max))
    step = max(1, (hi2 - lo2) // 10)
    x_ticks = [(log10(2.0**e), f"{2**e:g}") for e in range(lo2, hi2 + 1, step)]
    x_lo, x_hi = log10(2.0**lo2), log10(2.0**hi2)
    if x_hi <= x_lo:
        x_hi = x_lo + log10(2.0)
    y_lo, y_hi = floor(log10(y_min)), ceil(log10(y_max))
    if y_hi <= y_lo:
        y_hi = y_lo + 1
    y_ticks = _decade_ticks(y_lo, y_hi)

    x = _LogScale(x_lo, x_hi, MARGIN_LEFT, WIDTH - MARGIN_RIGHT - 150)
    y = _LogScale(float(y_lo), float(y_hi), HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    frame = _frame(title, x, y, x_ticks, y_ticks, xlabel, ylabel)

    _write_text(path, _line_document(frame, series, x, y))


def _line_document(
    frame: list[str], series: list[tuple[str, list[tuple[float, float]]]], x: _LogScale,
    y: _LogScale,
) -> Iterator[str]:
    yield "\n".join(frame) + "\n"
    legend_x = WIDTH - MARGIN_RIGHT - 140
    for idx, (name, pts) in enumerate(series):
        color = _SERIES_PALETTE[idx % len(_SERIES_PALETTE)]
        ordered = sorted(pts)
        text = f'<polyline fill="none" stroke="{color}" stroke-width="2" points="'
        for start in range(0, len(ordered), POLYLINE_CHUNK):
            if start:
                yield text
                text = " "
            text += " ".join(
                f"{x.map(px):.2f},{y.map(py):.2f}"
                for px, py in ordered[start:start + POLYLINE_CHUNK]
            )
        yield text + '"/>\n'
        for px, py in pts:
            yield f'<circle cx="{x.map(px):.2f}" cy="{y.map(py):.2f}" r="3" fill="{color}"/>\n'
        ly = MARGIN_TOP + 16 + 18 * idx
        yield (
            f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{legend_x + 28}" y="{ly}" font-size="11">{_escape(name)}</text>\n'
        )
    yield "</svg>\n"
