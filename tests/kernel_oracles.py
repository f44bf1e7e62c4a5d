"""Slow reference implementations that the fast scoring kernels are tested against.

Each is a frozen copy of an earlier, plainer implementation, kept here so
that a later change to the library cannot move the reference with it.
"""

from __future__ import annotations

import math
import re

_TOKEN_RE = re.compile(r"[^\W_']+(?:'+[^\W_']+)*")


def tokenize_reference(text: str) -> tuple[str, ...]:
    """lexstats.tokenize as it was: split the text, then lowercase each token alone."""
    text = text.replace("\u2019", "'").replace("\u02bc", "'").replace("\u0130", "i")
    return tuple(t.lower() for t in _TOKEN_RE.findall(text))


_PHONE_RE = re.compile(r"^([A-Z]{1,3})([0-2])?$")
_VOWELS = frozenset({"AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER",
                     "EY", "IH", "IY", "OW", "OY", "UH", "UW"})


def phone_reference(phoneme: str) -> bool:
    """The dictionary loader's phone rule: a vowel with a stress digit, or a consonant without."""
    m = _PHONE_RE.match(phoneme)
    if not m:
        return False
    symbol, digit = m.groups()
    return (digit is not None) if symbol in _VOWELS else digit is None


def summarize_lengths_reference(line_counts: list[int]) -> tuple:
    """structure.summarize_lengths as it was, over the sorted list of line counts.

    Returns (median, q1, q3, whisker_low, whisker_high, outliers, count).
    """
    values = sorted(line_counts)

    def quantile(p: float) -> float:
        h = (len(values) - 1) * p
        lo, hi = math.floor(h), math.ceil(h)
        return values[lo] + (h - lo) * (values[hi] - values[lo])

    q1, median, q3 = quantile(0.25), quantile(0.5), quantile(0.75)
    reach = 1.5 * (q3 - q1)
    low = min(v for v in values if v >= q1 - reach)
    high = max(v for v in values if v <= q3 + reach)
    outliers = tuple(v for v in values if v < low or v > high)
    return median, q1, q3, low, high, outliers, len(values)


def heatmap_svg_reference(grid, title: str = "") -> str:
    """svgplot.heatmap_svg as it was: every rect of grid.cells in a list, joined into one string."""
    font = 'font-family="monospace" font-size="11"'

    def text(s: str) -> str:
        return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    cell = 8
    top = 24 if title else 4
    width = 4 + grid.cols * cell + 4
    height = top + grid.rows * cell + 4
    body = [f'<text x="4" y="16" {font}>{text(title)}</text>'] if title else []
    for i, row in enumerate(grid.cells):
        for j, value in enumerate(row):
            if value <= 0:
                continue
            shade = int(round(255 * (1 - value)))
            body.append(
                f'<rect x="{4 + j * cell}" y="{top + i * cell}" width="{cell}" '
                f'height="{cell}" fill="rgb({shade},{shade},{shade})"/>'
            )
    body.append(
        f'<rect x="4" y="{top}" width="{grid.cols * cell}" height="{grid.rows * cell}" '
        f'fill="none" stroke="#999"/>'
    )
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"
