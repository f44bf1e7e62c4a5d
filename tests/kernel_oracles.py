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
