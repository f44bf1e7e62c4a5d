from __future__ import annotations

import io
import json
import random
import tracemalloc
from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given, strategies as st

from poemetrics import structure, svgplot
from poemetrics.corpus import Corpus, PoemRecord
from poemetrics.lexstats import tokenize
from poemetrics.structure import (
    length_summary,
    occupancy_heatmap,
    parse_structure,
    quatrain_stats,
    summarize_length_counts,
    summarize_lengths,
)

from conftest import DATA_DIR, LIMERICK, QUATRAINS, make_corpus
from kernel_oracles import heatmap_svg_reference, summarize_lengths_reference


def brute_force_summary(counts):
    """Independent five-number summary: sort, interpolate, fence, collect."""
    xs = sorted(counts)
    n = len(xs)

    def quantile(p):
        pos = p * (n - 1)
        lower = int(pos)
        upper = min(lower + 1, n - 1)
        frac = pos - lower
        return xs[lower] * (1 - frac) + xs[upper] * frac

    q1, med, q3 = quantile(0.25), quantile(0.5), quantile(0.75)
    iqr = q3 - q1
    in_fence = [x for x in xs if q1 - 1.5 * iqr <= x <= q3 + 1.5 * iqr]
    lo, hi = min(in_fence), max(in_fence)
    outliers = [x for x in xs if x < lo or x > hi]
    return med, q1, q3, lo, hi, outliers


# --- parse_structure -------------------------------------------------------

def test_fourteen_lines_with_three_breaks():
    text = "\n".join(
        ["l"] * 4 + [""] + ["l"] * 4 + [""] + ["l"] * 4 + [""] + ["l"] * 2
    )
    s = parse_structure(text)
    assert s.stanza_sizes == (4, 4, 4, 2)
    assert s.line_count == 14


def test_limerick_structure():
    s = parse_structure(LIMERICK)
    assert s.stanza_sizes == (5,)
    assert s.line_count == 5


def test_five_quatrains_structure():
    s = parse_structure(QUATRAINS)
    assert s.stanza_sizes == (4, 4, 4, 4, 4)
    assert s.line_count == 20


def test_blank_only_text_is_an_error():
    with pytest.raises(ValueError, match="empty poem"):
        parse_structure("\n\n   \n")


def test_whitespace_only_lines_are_blank():
    s = parse_structure("one\n   \t \ntwo")
    assert s.stanza_sizes == (1, 1)


def test_sonnet_fixture_line_counts():
    plain = parse_structure((DATA_DIR / "sonnet18.txt").read_text())
    assert plain.line_count == 14
    assert plain.stanza_sizes == (14,)
    staged = parse_structure((DATA_DIR / "sonnet18_stanzas.txt").read_text())
    assert staged.line_count == 14
    assert staged.stanza_sizes == (4, 4, 4, 2)


@given(st.lists(st.sampled_from(["word", "two words", ""]), min_size=1, max_size=30),
       st.integers(min_value=0, max_value=3))
def test_trailing_blank_lines_do_not_matter(lines, padding):
    if not any(l.strip() for l in lines):
        lines = lines + ["anchor"]
    base = "\n".join(lines)
    padded = base + "\n" * padding
    assert parse_structure(base) == parse_structure(padded)


@given(st.lists(st.sampled_from(["a line", "  ", "", "another line", "\t"]),
                min_size=1, max_size=40))
def test_stanza_sizes_partition_the_lines(lines):
    if not any(l.strip() for l in lines):
        lines = lines + ["anchor"]
    s = parse_structure("\n".join(lines))
    assert sum(s.stanza_sizes) == s.line_count
    assert all(size >= 1 for size in s.stanza_sizes)
    assert len(s.lines) == s.line_count


# --- quatrain_stats --------------------------------------------------------

def _poem_with_stanzas(sizes, ident):
    text = "\n\n".join("\n".join(["line"] * k) for k in sizes)
    return PoemRecord(id=ident, text=text, source="human")


# Line breaks and other whitespace, apostrophes straight and curly, the
# underscore separator, digits and non-ASCII letters.
TOKEN_EDGE_ALPHABET = "ab Zé\u00dfж\u4e2d07_'\u2019-.\n\r\t\x0b\x0c\x1c\x85\u00a0\u2028"


@given(st.text(alphabet=TOKEN_EDGE_ALPHABET, max_size=80))
def test_line_tokens_concatenate_to_the_text_tokens(text):
    whole = tokenize(text)
    if not text.strip():
        assert whole == ()
        return
    assert tuple(chain.from_iterable(parse_structure(text).tokens)) == whole


def test_quatrain_stats_direct_count():
    corpus = Corpus(label="t", records=(_poem_with_stanzas([4, 4, 5], "a"),))
    q = quatrain_stats(corpus)
    assert q.poems_with_quatrain_pct == 100.0
    assert q.quatrain_stanza_pct == pytest.approx(200 / 3)
    assert (q.poems_with_quatrain, q.quatrain_stanzas, q.stanza_count) == (1, 2, 3)


def test_quatrain_stats_zero_case():
    corpus = Corpus(
        label="t",
        records=(_poem_with_stanzas([3, 5], "a"), _poem_with_stanzas([2], "b")),
    )
    q = quatrain_stats(corpus)
    assert q.poems_with_quatrain_pct == 0.0
    assert q.quatrain_stanza_pct == 0.0


def test_quatrain_stats_order_invariant():
    poems = [_poem_with_stanzas(s, str(i)) for i, s in enumerate([[4], [3], [4, 4], [5]])]
    forward = quatrain_stats(Corpus(label="f", records=tuple(poems)))
    backward = quatrain_stats(Corpus(label="b", records=tuple(reversed(poems))))
    assert forward == backward


# --- length_summary --------------------------------------------------------

def _counts_corpus(counts):
    return make_corpus(["\n".join(["line"] * c) for c in counts])


def test_summary_constant_body_one_outlier():
    s = summarize_lengths([14, 14, 14, 14, 55])
    assert (s.median, s.q1, s.q3) == (14, 14, 14)
    assert (s.whisker_low, s.whisker_high) == (14, 14)
    assert s.outliers == (55,)


def test_summary_one_to_nine():
    s = summarize_lengths(list(range(1, 10)))
    assert (s.median, s.q1, s.q3) == (5, 3, 7)
    assert (s.whisker_low, s.whisker_high) == (1, 9)
    assert s.outliers == ()


def test_length_summary_counts_every_poem():
    corpus = make_corpus(["x\nx\nx", "x", "x\n\nx\nx"])
    assert length_summary(corpus).median == 3
    with pytest.raises(ValueError, match="no poems in corpus 'empty'"):
        length_summary(Corpus(label="empty", records=()))


def test_summary_matches_brute_force_on_random_corpora():
    rng = random.Random(1729)
    for _ in range(200):
        counts = [rng.randint(1, 120) for _ in range(rng.randint(1, 1000))]
        s = summarize_lengths(counts)
        med, q1, q3, lo, hi, outliers = brute_force_summary(counts)
        assert (s.median, s.q1, s.q3) == (med, q1, q3)
        assert (s.whisker_low, s.whisker_high) == (lo, hi)
        assert list(s.outliers) == outliers


@given(st.dictionaries(st.integers(1, 120), st.integers(1, 50), min_size=1, max_size=30))
@example({14: 4, 55: 1})
@example({7: 1})
def test_summary_from_counts_matches_list_reference_and_brute_force(counts):
    counter = Counter(counts)
    line_counts = list(counter.elements())
    s = summarize_length_counts(counter)
    fields = (s.median, s.q1, s.q3, s.whisker_low, s.whisker_high, s.outliers, s.count)
    assert fields == summarize_lengths_reference(line_counts)
    med, q1, q3, lo, hi, outliers = brute_force_summary(line_counts)
    assert fields == (med, q1, q3, lo, hi, tuple(outliers), len(line_counts))
    assert summarize_lengths(line_counts) == s


# --- occupancy_heatmap -----------------------------------------------------

def test_single_poem_full_grid():
    grid = occupancy_heatmap(make_corpus(["ab\ncd"]), rows=2, cols=2)
    assert grid.cells == ((1.0, 1.0), (1.0, 1.0))


def test_two_poems_half_occupancy():
    grid = occupancy_heatmap(make_corpus(["a", "a\nb"]), rows=2, cols=1)
    assert grid.cells == ((1.0,), (0.5,))


def test_blank_lines_leave_empty_rows():
    grid = occupancy_heatmap(make_corpus(["aa\n\naa"]), rows=3, cols=2)
    assert grid.cells[1] == (0.0, 0.0)


def test_tab_expansion():
    grid = occupancy_heatmap(make_corpus(["\tz"]), rows=1, cols=6)
    assert grid.cells[0] == (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)


def test_grid_truncates_beyond_dimensions():
    grid = occupancy_heatmap(make_corpus(["abcdef\nx\ny\nz"]), rows=2, cols=3)
    assert grid.rows == 2 and grid.cols == 3
    assert grid.cells[0] == (1.0, 1.0, 1.0)


def test_identical_poems_give_binary_grid(gpt_corpus):
    text = gpt_corpus.records[0].text
    grid = occupancy_heatmap(make_corpus([text, text, text]), rows=10, cols=40)
    values = {v for row in grid.cells for v in row}
    assert values <= {0.0, 1.0}


def test_doubled_corpus_has_same_grid(human_corpus):
    texts = [r.text for r in human_corpus]
    once = occupancy_heatmap(make_corpus(texts), rows=20, cols=40)
    twice = occupancy_heatmap(make_corpus(texts + texts), rows=20, cols=40)
    assert once.cells == twice.cells
    assert all(0.0 <= v <= 1.0 for row in once.cells for v in row)


def occupancy_reference(texts, rows, cols):
    """Per-character occupancy: drop blank lines at both ends, expand tabs, test each cell."""
    sums = [[0] * cols for _ in range(rows)]
    for text in texts:
        lines = [line.replace("\t", "    ") for line in text.split("\n")]
        while lines and not lines[0].strip():
            lines.pop(0)
        while lines and not lines[-1].strip():
            lines.pop()
        for i, line in enumerate(lines[:rows]):
            for j, ch in enumerate(line[:cols]):
                if not ch.isspace():
                    sums[i][j] += 1
    return tuple(tuple(v / len(texts) for v in row) for row in sums)


# Lines over ink, ASCII and Unicode whitespace (U+00A0, U+3000, U+001C), tabs,
# carriage returns and a wide character; many come out blank.
_GRID_LINES = st.lists(st.text(alphabet="ab \t\r\u00a0\u3000\u001c\u4e00", max_size=10),
                       min_size=1, max_size=9)


@given(st.lists(_GRID_LINES.map("\n".join).filter(str.rstrip), min_size=1, max_size=4),
       st.integers(1, 6), st.integers(1, 6))
@example([" \t\n\u3000\nab\n\n b\n \n", "\n\nab\n\n b"], 4, 2)
def test_occupancy_matches_per_character_reference(texts, rows, cols):
    grid = occupancy_heatmap(make_corpus(texts), rows=rows, cols=cols)
    assert grid.cells == occupancy_reference(texts, rows, cols)


@given(st.lists(_GRID_LINES.map("\n".join), min_size=1, max_size=7),
       st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 2, 3]))
@example(["ab", " \t\n\u00a0b", "\n\n\u3000a\tb"], 3, 6, 2)
def test_occupancy_counted_in_batches_matches_reference(texts, rows, cols, batch):
    # Batches of 1 to 3 poems put counts mid-corpus; blank poems count as poems with no ink.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structure, "_GRID_BATCH", batch)
        grid = structure.OccupancyGrid(rows, cols)
        for text in texts:
            grid.add(text)
        assert grid.cells == occupancy_reference(texts, rows, cols)
        grid.add(texts[0])
        assert grid.cells == occupancy_reference(texts + texts[:1], rows, cols)


def test_occupancy_padding_is_bounded_by_the_text(monkeypatch):
    texts = [f"ab\tc {i}\n\n x\u00a0y" for i in range(300)]
    monkeypatch.setattr(structure, "_GRID_BATCH", len(texts))
    grid = structure.OccupancyGrid(3, 10_000)
    tracemalloc.start()
    try:
        for text in texts:
            grid.add(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Lines padded to 10,000 columns would take 9 MB; padded to the longest line, 9 kB.
    assert peak < 1_000_000
    assert grid.cells == occupancy_reference(texts, 3, 10_000)


def test_grid_serialization_round_trip():
    grid = occupancy_heatmap(make_corpus(["ab", "a"]), rows=1, cols=2)
    csv_text = grid.to_csv()
    assert csv_text == "1.000000,0.500000\n"
    assert '"rows": 1' in grid.to_json()


def test_grid_json_is_json_dumps_of_its_cells():
    grid = occupancy_heatmap(make_corpus(["ab\n c\td", "a\n\n  x", "é"]), rows=4, cols=7)
    assert grid.to_json() == json.dumps({"rows": 4, "cols": 7,
                                         "cells": [list(row) for row in grid.cells]})


@given(rows=st.integers(1, 5), cols=st.integers(1, 5),
       poems=st.lists(st.lists(st.text(" x", max_size=6), min_size=1, max_size=6).map("\n".join),
                      min_size=1, max_size=4),
       title=st.text("a &<>\"é", max_size=8))
@example(rows=2, cols=4, poems=["x x", "xx\nx"], title="a&<b>")  # shares 1, 0.5 and 0
def test_streamed_heatmap_svg_equals_the_joined_svg(rows, cols, poems, title):
    grid = structure.OccupancyGrid(rows, cols)
    for text in poems:
        grid.add(text)
    out = io.StringIO()
    svgplot.heatmap_svg(grid, out, title=title)
    assert out.getvalue() == heatmap_svg_reference(grid, title)
