"""Line/stanza parsing and corpus-level length and layout statistics.

A "line" is a non-blank line; blank lines (empty after trimming whitespace)
only delimit stanzas. Stanzas are maximal runs of non-blank lines.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .corpus import Corpus, PoemRecord
from .lexstats import tokenize


@dataclass(frozen=True)
class PoemStructure:
    lines: tuple[str, ...]
    stanza_sizes: tuple[int, ...]
    line_count: int

    @cached_property
    def tokens(self) -> tuple[tuple[str, ...], ...]:
        """Each line's tokens, computed on first read and then kept. Tokens never
        span a line break, so together they are the whole text's tokens, in order."""
        return tuple(tokenize(line) for line in self.lines)


def parse_structure(poem: PoemRecord | str) -> PoemStructure:
    """Parse a poem's line breaks into non-blank lines and stanza sizes."""
    text = poem.text if isinstance(poem, PoemRecord) else poem
    lines: list[str] = []
    stanza_sizes: list[int] = []
    run = 0
    for raw in text.split("\n"):
        if raw.strip():
            lines.append(raw)
            run += 1
        elif run:
            stanza_sizes.append(run)
            run = 0
    if run:
        stanza_sizes.append(run)
    if not lines:
        raise ValueError("empty poem")
    return PoemStructure(
        lines=tuple(lines),
        stanza_sizes=tuple(stanza_sizes),
        line_count=len(lines),
    )


@dataclass
class QuatrainStats:
    """Quatrain counts of a group, added poem by poem."""

    poems_with_quatrain: int = 0
    poem_count: int = 0
    quatrain_stanzas: int = 0
    stanza_count: int = 0

    def add(self, stanza_sizes: tuple[int, ...]) -> None:
        """Count one poem's stanzas."""
        hits = stanza_sizes.count(4)
        self.poems_with_quatrain += hits > 0
        self.poem_count += 1
        self.quatrain_stanzas += hits
        self.stanza_count += len(stanza_sizes)

    @property
    def poems_with_quatrain_pct(self) -> float:
        return 100.0 * self.poems_with_quatrain / self.poem_count

    @property
    def quatrain_stanza_pct(self) -> float:
        return 100.0 * self.quatrain_stanzas / self.stanza_count if self.stanza_count else 0.0


def quatrain_stats(corpus: Corpus) -> QuatrainStats:
    """Share of poems containing a 4-line stanza and of stanzas that are quatrains."""
    if not len(corpus):
        raise ValueError("empty corpus")
    stats = QuatrainStats()
    for record in corpus.records:
        stats.add(parse_structure(record).stanza_sizes)
    return stats


@dataclass(frozen=True)
class LengthSummary:
    """Tukey five-number summary of per-poem line counts."""

    median: float
    q1: float
    q3: float
    whisker_low: int
    whisker_high: int
    outliers: tuple[int, ...]
    count: int


def _quantile(sorted_values: list[int], p: float) -> float:
    # Linear interpolation between order statistics.
    h = (len(sorted_values) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def summarize_lengths(line_counts: list[int]) -> LengthSummary:
    """Five-number summary with whiskers at data points within 1.5 IQR fences."""
    if not line_counts:
        raise ValueError("no line counts to summarize")
    values = sorted(line_counts)
    q1 = _quantile(values, 0.25)
    median = _quantile(values, 0.5)
    q3 = _quantile(values, 0.75)
    reach = 1.5 * (q3 - q1)
    whisker_low = min(v for v in values if v >= q1 - reach)
    whisker_high = max(v for v in values if v <= q3 + reach)
    outliers = tuple(v for v in values if v < whisker_low or v > whisker_high)
    return LengthSummary(
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        count=len(values),
    )


def length_summary(corpus: Corpus) -> LengthSummary:
    """Length distribution over a corpus's poems."""
    if not len(corpus):
        raise ValueError(f"no poems in corpus {corpus.label!r}")
    return summarize_lengths([parse_structure(r).line_count for r in corpus.records])


_INK_RE = re.compile(r"\S+")


class OccupancyGrid:
    """Mean character-cell occupancy of the poems added so far, rows x cols in [0, 1].

    Row 0 is a poem's first non-blank line; later lines, blank ones included,
    take the rows below it. A tab is four columns.
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.rows, self.cols, self.poems = rows, cols, 0
        # Each run of ink adds 1 at its first cell and -1 past its last; a row's
        # running sum is then its count per cell.
        self.edges = [[0] * (cols + 1) for _ in range(rows)]

    def add(self, text: str) -> None:
        """Count one poem's non-whitespace cells."""
        lines = text.split("\n")
        first = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
        for row, line in zip(self.edges, lines[first:first + self.rows]):
            for ink in _INK_RE.finditer(line.replace("\t", "    "), 0, self.cols):
                row[ink.start()] += 1
                row[ink.end()] -= 1
        self.poems += 1

    @property
    def cells(self) -> tuple[tuple[float, ...], ...]:
        """Each cell's share of the poems added with a non-whitespace character there."""
        n = self.poems
        return tuple(tuple(v / n for v in accumulate(row[:self.cols])) for row in self.edges)

    def to_csv(self) -> str:
        return "".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in self.cells)

    def to_json(self) -> str:
        cells = [list(row) for row in self.cells]
        return json.dumps({"rows": self.rows, "cols": self.cols, "cells": cells})


def occupancy_heatmap(corpus: Corpus, rows: int = 60, cols: int = 80) -> OccupancyGrid:
    """Fraction of poems with a non-whitespace character at each (line, column) cell."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be at least 1x1")
    if not len(corpus):
        raise ValueError("empty corpus")
    grid = OccupancyGrid(rows, cols)
    for record in corpus.records:
        grid.add(record.text)
    return grid
