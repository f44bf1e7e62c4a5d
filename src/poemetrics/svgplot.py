"""Tiny dependency-free SVG renderings of the report's plot data.

These are deliberately minimal: boxplots for length distributions, a
grayscale grid for occupancy heatmaps, and bar charts for per-style rates.
Output is deterministic for identical inputs, and text is XML-escaped.
"""

from __future__ import annotations

from typing import TextIO

from .structure import LengthSummary, OccupancyGrid

_FONT = 'font-family="monospace" font-size="11"'


def _text(s: str) -> str:
    """s as XML character data: html.escape(s, quote=False), without importing html."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _head(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )


def _svg(width: int, height: int, body: list[str]) -> str:
    return "\n".join([_head(width, height), *body, "</svg>"]) + "\n"


def boxplot_svg(summaries: list[tuple[str, LengthSummary]], title: str = "") -> str:
    """Horizontal boxplots, one row per (label, summary) pair."""
    if not summaries:
        raise ValueError("nothing to plot")
    row_h = 28
    left = 150
    width = 640
    height = 40 + row_h * len(summaries)
    top_vals = [max([s.whisker_high, *s.outliers]) for _, s in summaries]
    scale_max = max(top_vals) or 1
    x = lambda v: left + (width - left - 20) * v / scale_max
    body = [f'<text x="8" y="16" {_FONT}>{_text(title)}</text>'] if title else []
    for i, (label, s) in enumerate(summaries):
        cy = 40 + row_h * i + row_h // 2
        body.append(f'<text x="8" y="{cy + 4}" {_FONT}>{_text(label[:20])}</text>')
        body.append(
            f'<line x1="{x(s.whisker_low):.1f}" y1="{cy}" x2="{x(s.whisker_high):.1f}" '
            f'y2="{cy}" stroke="black"/>'
        )
        body.append(
            f'<rect x="{x(s.q1):.1f}" y="{cy - 8}" width="{max(x(s.q3) - x(s.q1), 1):.1f}" '
            f'height="16" fill="#cfe2f3" stroke="black"/>'
        )
        body.append(
            f'<line x1="{x(s.median):.1f}" y1="{cy - 8}" x2="{x(s.median):.1f}" '
            f'y2="{cy + 8}" stroke="black" stroke-width="2"/>'
        )
        for v in s.outliers:
            body.append(f'<circle cx="{x(v):.1f}" cy="{cy}" r="2" fill="black"/>')
    return _svg(width, height, body)


def heatmap_svg(grid: OccupancyGrid, out: TextIO, title: str = "") -> None:
    """Write the occupancy grid to out as grayscale 8-unit squares; darker means more occupied.

    The SVG is written one grid row at a time, so no more than a row of it is held.
    """
    cell = 8
    top = 24 if title else 4
    out.write(_head(4 + grid.cols * cell + 4, top + grid.rows * cell + 4) + "\n")
    if title:
        out.write(f'<text x="4" y="16" {_FONT}>{_text(title)}</text>\n')
    for i, row in enumerate(grid._shares()):
        rects = []
        for j, value in enumerate(row):
            if value <= 0:
                continue
            shade = int(round(255 * (1 - value)))
            rects.append(
                f'<rect x="{4 + j * cell}" y="{top + i * cell}" width="{cell}" '
                f'height="{cell}" fill="rgb({shade},{shade},{shade})"/>\n'
            )
        out.write("".join(rects))
    out.write(
        f'<rect x="4" y="{top}" width="{grid.cols * cell}" height="{grid.rows * cell}" '
        f'fill="none" stroke="#999"/>\n</svg>\n'
    )


def barchart_svg(rows: list[tuple[str, float]], title: str = "", max_value: float = 100.0) -> str:
    """Horizontal bars for (label, value) rows, scaled to max_value; a negative value has none."""
    if not rows:
        raise ValueError("nothing to plot")
    row_h = 20
    left = 180
    width = 640
    height = 30 + row_h * len(rows)
    body = [f'<text x="8" y="16" {_FONT}>{_text(title)}</text>'] if title else []
    for i, (label, value) in enumerate(rows):
        y = 30 + row_h * i
        bar = max(0.0, (width - left - 60) * min(value, max_value) / max_value)
        body.append(f'<text x="8" y="{y + 13}" {_FONT}>{_text(label[:26])}</text>')
        body.append(
            f'<rect x="{left}" y="{y + 3}" width="{bar:.1f}" height="{row_h - 8}" '
            f'fill="#6fa8dc"/>'
        )
        body.append(f'<text x="{left + bar + 4:.1f}" y="{y + 13}" {_FONT}>{value:.1f}</text>')
    return _svg(width, height, body)
