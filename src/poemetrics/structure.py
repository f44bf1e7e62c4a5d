"""Line/stanza parsing and corpus-level length and layout statistics.

A "line" is a non-blank line; blank lines (empty after trimming whitespace)
only delimit stanzas. Stanzas are maximal runs of non-blank lines.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add

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
        return tuple(map(tokenize, self.lines))


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


def _quantile(values: list[int], ends: list[int], p: float) -> float:
    # Linear interpolation between the order statistics at ranks floor(h) and
    # ceil(h); ends[i] is the rank just past the last copy of values[i].
    h = (ends[-1] - 1) * p
    lo = math.floor(h)
    low, high = (values[bisect_right(ends, rank)] for rank in (lo, math.ceil(h)))
    return low + (h - lo) * (high - low)


def summarize_length_counts(counts: Mapping[int, int]) -> LengthSummary:
    """summarize_lengths of the line counts that counts maps to their number of poems.

    The order statistics are read by walking the distinct line counts in
    order with their cumulative numbers, so the line counts are never listed.
    """
    values = sorted(v for v, k in counts.items() if k > 0)
    if not values:
        raise ValueError("no line counts to summarize")
    ends = list(accumulate(counts[v] for v in values))
    q1 = _quantile(values, ends, 0.25)
    median = _quantile(values, ends, 0.5)
    q3 = _quantile(values, ends, 0.75)
    reach = 1.5 * (q3 - q1)
    whisker_low = min(v for v in values if v >= q1 - reach)
    whisker_high = max(v for v in values if v <= q3 + reach)
    outliers = tuple(chain.from_iterable(
        repeat(v, counts[v]) for v in values if v < whisker_low or v > whisker_high))
    return LengthSummary(
        median=median,
        q1=q1,
        q3=q3,
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        count=ends[-1],
    )


def summarize_lengths(line_counts: list[int]) -> LengthSummary:
    """Five-number summary with whiskers at data points within 1.5 IQR fences."""
    return summarize_length_counts(Counter(line_counts))


def length_summary(corpus: Corpus) -> LengthSummary:
    """Length distribution over a corpus's poems."""
    if not len(corpus):
        raise ValueError(f"no poems in corpus {corpus.label!r}")
    return summarize_lengths([parse_structure(r).line_count for r in corpus.records])


_INK_RE = re.compile(r"\S")
# Whitespace other than a space.
_BLANK_RE = re.compile(r"[^\S ]")
# Poems whose lines an OccupancyGrid holds before it counts them; bounds the
# memory the held lines and their padded block take.
_GRID_BATCH = 256


class OccupancyGrid:
    """Mean character-cell occupancy of the poems added so far, rows x cols in [0, 1].

    Row 0 is a poem's first non-blank line; later lines, blank ones included,
    take the rows below it. A tab is four columns. The grid holds each row's
    lines for up to _GRID_BATCH poems, then counts them column by column (see
    _count); cells, to_csv and to_json count the lines held first.
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.rows, self.cols, self.poems = rows, cols, 0
        # Per cell, the poems counted so far with ink there.
        self._ink = [[0] * cols for _ in range(rows)]
        # Per row, the lines of the poems added since the last count.
        self._held = [[] for _ in range(rows)]

    def add(self, text: str) -> None:
        """Hold one poem's first rows of lines, from its first non-blank one, for counting."""
        ink = _INK_RE.search(text)
        if ink is not None:
            start = text.rfind("\n", 0, ink.start()) + 1
            # zip stops at the last row, before split's unsplit rest.
            for held, line in zip(self._held, text[start:].split("\n", self.rows)):
                held.append(line)
        self.poems += 1
        if not self.poems % _GRID_BATCH:
            self._count()

    def _count(self) -> None:
        """Add the held lines to the per-cell counts, then drop them.

        Row by row, the lines are joined to expand their tabs at once, then each
        is cut or padded to the longest of them (at most cols), so that the k
        lines are k equal slices of one block. A column's ink count is then k
        less the spaces in one strided slice, once every other whitespace
        character in the block is a space: none is printable.
        """
        for ink, held in zip(self._ink, self._held):
            if not held:  # and no later row holds a line either
                break
            lines = "\n".join(held).replace("\t", "    ").split("\n")
            held.clear()
            width = min(self.cols, max(map(len, lines)))
            block = (f"%-{width}.{width}s" * len(lines)) % tuple(lines)
            if not block.isprintable():
                block = _BLANK_RE.sub(" ", block)
            columns = map(slice, range(width), repeat(None), repeat(width))
            spaces = map(str.count, map(block.__getitem__, columns), repeat(" "))
            ink[:width] = map(add, ink, map(len(lines).__sub__, spaces))

    @property
    def cells(self) -> tuple[tuple[float, ...], ...]:
        """Each cell's share of the poems added with a non-whitespace character there."""
        self._count()
        n = self.poems
        return tuple(tuple(v / n for v in row) for row in self._ink)

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
