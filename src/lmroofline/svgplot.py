"""Static SVG emitters with a fixed layout and tick policy.

Plots are written directly as SVG text so that identical inputs produce
byte-identical files; no plotting library is involved. Axes are
logarithmic: decades everywhere, except that the x axis of a line plot,
a token count, uses powers of two. Every plotted value must be positive and
finite.

An emitter runs every check and computes its scales before it opens the
file, so a rejected plot creates no file and leaves an existing one as it
was. It then writes as it renders: the head and axes frame in one write,
then one write per mark (a roofline point with its label, a polyline, a
circle, a legend entry). No document string is built, so memory stays
flat in the number of points, apart from the coordinates of the one
polyline being written.
"""

from __future__ import annotations

from math import ceil, floor, inf, log10, log2

from .configs import HardwareSpec
from .errors import ValidationError
from .roofline import RooflinePoint, ridge_point

WIDTH, HEIGHT = 860, 560
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 84, 36, 48, 72

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


def _f(value: float) -> str:
    return f"{value:.2f}"


class _LogScale:
    def __init__(self, lo_log: float, hi_log: float, px_lo: float, px_hi: float):
        self.lo_log, self.hi_log = lo_log, hi_log
        self.px_lo, self.px_hi = px_lo, px_hi

    def map_log(self, value_log: float) -> float:
        frac = (value_log - self.lo_log) / (self.hi_log - self.lo_log)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def map(self, value: float) -> float:
        return self.map_log(log10(value))


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
        f'<rect x="{_f(left)}" y="{_f(top)}" width="{_f(right - left)}" '
        f'height="{_f(bottom - top)}" fill="none" stroke="#000000"/>',
    ]
    for value_log, text in x_ticks:
        px = x.map_log(value_log)
        lines.append(
            f'<line x1="{_f(px)}" y1="{_f(top)}" x2="{_f(px)}" y2="{_f(bottom)}" '
            f'stroke="#dddddd"/>'
        )
        lines.append(
            f'<text x="{_f(px)}" y="{_f(bottom + 18)}" font-size="11" '
            f'text-anchor="middle">{_escape(text)}</text>'
        )
    for value_log, text in y_ticks:
        py = y.map_log(value_log)
        lines.append(
            f'<line x1="{_f(left)}" y1="{_f(py)}" x2="{_f(right)}" y2="{_f(py)}" '
            f'stroke="#dddddd"/>'
        )
        lines.append(
            f'<text x="{_f(left - 6)}" y="{_f(py + 4)}" font-size="11" '
            f'text-anchor="end">{_escape(text)}</text>'
        )
    lines.append(
        f'<text x="{_f((left + right) / 2)}" y="{HEIGHT - 16}" font-size="13" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    lines.append(
        f'<text x="20" y="{_f((top + bottom) / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 20 {_f((top + bottom) / 2)})">{_escape(ylabel)}</text>'
    )
    return lines


def _decade_ticks(lo_exp: int, hi_exp: int) -> list[tuple[float, str]]:
    step = max(1, (hi_exp - lo_exp) // 10)
    return [(float(e), f"1e{e}") for e in range(lo_exp, hi_exp + 1, step)]


def emit_roofline_svg(
    points: list[RooflinePoint],
    hw: HardwareSpec,
    path: str,
    title: str | None = None,
) -> None:
    """Log-log roofline: bandwidth slope and compute ceiling meeting at the ridge."""
    if not points:
        raise ValidationError("at least one roofline point is required")
    for p in points:
        if not (0 < p.ai < inf and 0 < p.perf_attained < inf):
            raise ValidationError(
                f"roofline point '{p.label}' must be positive and finite to plot"
            )
    ridge = ridge_point(hw)
    peak, bw = hw.peak_flops, hw.mem_bandwidth

    x_lo = floor(log10(min(min(p.ai for p in points), ridge))) - 1
    x_hi = ceil(log10(max(max(p.ai for p in points), ridge))) + 1
    y_hi = floor(log10(peak)) + 1
    y_lo = min(floor(log10(min(p.perf_attained for p in points))) - 1, y_hi - 4)

    x = _LogScale(x_lo, x_hi, MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    y = _LogScale(y_lo, y_hi, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)

    frame = _frame(
        title or f"Roofline: {hw.name}", x, y, _decade_ticks(x_lo, x_hi),
        _decade_ticks(y_lo, y_hi), "arithmetic intensity (FLOP/byte)", "performance (FLOP/s)",
    )
    # Bandwidth roof y = bw * ai, clipped at the bottom of the frame.
    start_log = max(float(x_lo), y_lo - log10(bw))
    knee_x, knee_y = x.map(ridge), y.map(peak)
    frame.append(
        f'<polyline fill="none" stroke="#000000" stroke-width="2" points="'
        f"{_f(x.map_log(start_log))},{_f(y.map_log(start_log + log10(bw)))} "
        f'{_f(knee_x)},{_f(knee_y)} {_f(x.map_log(x_hi))},{_f(knee_y)}"/>'
    )
    frame.append(
        f'<line x1="{_f(knee_x)}" y1="{_f(y.map_log(y_lo))}" x2="{_f(knee_x)}" '
        f'y2="{_f(knee_y)}" stroke="#555555" stroke-dasharray="5,4"/>'
    )
    frame.append(
        f'<text x="{_f(knee_x + 6)}" y="{_f(y.map_log(y_lo) - 8)}" font-size="12">'
        f"ridge {ridge:.4g} FLOP/B</text>"
    )

    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(frame) + "\n")
        for p in points:
            color = _COMPUTE_COLOR if p.bound == "compute_bound" else _MEMORY_COLOR
            px, py = x.map(p.ai), y.map(p.perf_attained)
            handle.write(
                f'<circle cx="{_f(px)}" cy="{_f(py)}" r="4" fill="{color}"/>\n'
                f'<text x="{_f(px + 6)}" y="{_f(py - 6)}" font-size="10">'
                f"{_escape(p.label)}</text>\n"
            )
        handle.write("</svg>\n")


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
    if not series or all(len(pts) == 0 for _, pts in series):
        raise ValidationError("at least one nonempty series is required")
    for name, pts in series:
        for px, py in pts:
            if not (0 < px < inf and 0 < py < inf):  # also false for NaN
                raise ValidationError(
                    f"line plots are log-log; values must be positive and finite "
                    f"(series '{name}': {xlabel}={px:g}, y={py:g})"
                )
    x_min = min(px for _, pts in series for px, _ in pts)
    x_max = max(px for _, pts in series for px, _ in pts)
    y_min = min(py for _, pts in series for _, py in pts)
    y_max = max(py for _, pts in series for _, py in pts)

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

    legend_x = WIDTH - MARGIN_RIGHT - 140
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(frame) + "\n")
        for idx, (name, pts) in enumerate(series):
            color = _SERIES_PALETTE[idx % len(_SERIES_PALETTE)]
            coords = " ".join(f"{_f(x.map(px))},{_f(y.map(py))}" for px, py in sorted(pts))
            handle.write(
                f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>\n'
            )
            for px, py in pts:
                handle.write(
                    f'<circle cx="{_f(x.map(px))}" cy="{_f(y.map(py))}" r="3" fill="{color}"/>\n'
                )
            ly = MARGIN_TOP + 16 + 18 * idx
            handle.write(
                f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>\n'
                f'<text x="{legend_x + 28}" y="{ly}" font-size="11">{_escape(name)}</text>\n'
            )
        handle.write("</svg>\n")
