"""Slow reference implementations that the fast scoring kernels are tested against.

Each is a frozen copy of an earlier, plainer implementation, kept here so
that a later change to the library cannot move the reference with it.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from poemetrics.arpabet import rhyme_part
from poemetrics.rhyme import RhymeAnnotation, SchemeMatch

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


def annotate_rhymes_reference(poem, dictionary) -> RhymeAnnotation:
    """rhyme.annotate_rhymes as it was: every line pair of every window tested by a closure,
    each match recorded with the sorted set of its bound lines; nothing memoized."""
    n = poem.line_count
    words = tuple(t[-1] if t and not t[-1].isdigit() else None for t in poem.tokens)
    found = {}
    for w in dict.fromkeys(words):
        if w is None:
            continue
        variants = dictionary.lookup(w)
        if not variants:
            found[w] = None
            continue
        parts = set()
        for variant in variants:
            try:
                parts.add(rhyme_part(variant))
            except ValueError:
                continue
        found[w] = frozenset(parts)
    parts = [found.get(w) or frozenset() for w in words]

    def r(i: int, j: int) -> bool:
        return not parts[i].isdisjoint(parts[j])

    flags = [False] * n
    schemes = []

    def record(scheme: str, *pairs: tuple[int, int]) -> None:
        bound = sorted({idx for pair in pairs for idx in pair})
        schemes.append(SchemeMatch(scheme=scheme, lines=tuple(bound)))
        for idx in bound:
            flags[idx] = True

    for i in range(n - 1):
        if r(i, i + 1):
            record("AA", (i, i + 1))
    for i in range(n - 3):
        abab = r(i, i + 2) and r(i + 1, i + 3)
        if abab:
            record("ABAB", (i, i + 2), (i + 1, i + 3))
        if r(i, i + 3) and r(i + 1, i + 2):
            record("ABBA", (i, i + 3), (i + 1, i + 2))
        if r(i + 1, i + 3) and not abab:
            record("ABCB", (i + 1, i + 3))

    oov = tuple(sorted(w for w, p in found.items() if p is None))
    return RhymeAnnotation(
        end_words=words,
        rhymed_line_flags=tuple(flags),
        schemes=tuple(schemes),
        rhymed_fraction=sum(flags) / n,
        oov_end_words=oov,
    )


def word_counts_reference(poems, stopwords: frozenset[str]) -> tuple[Counter, Counter, Counter]:
    """(counts, doc_freq, firsts) as lexstats.WordCounts.add counted them, poem by poem:
    stopwords filtered out of each poem's tokens first, its first token counted regardless."""
    counts, doc_freq, firsts = Counter(), Counter(), Counter()
    for tokens in poems:
        if tokens:
            firsts[tokens[0]] += 1
        eligible = [t for t in tokens if t not in stopwords]
        counts.update(eligible)
        doc_freq.update(set(eligible))
    return counts, doc_freq, firsts


def pronoun_counts_reference(tokens, categories: dict[str, frozenset[str]]) -> tuple[int, ...]:
    """lexstats.pronoun_counts as it was: each token looked up once, in order. A pronoun
    followed by 'm, 're, 've, 'll, 'd or 's counts as that pronoun."""
    index = {word + clitic: k for k, words in enumerate(categories.values(), start=1)
             for word in words for clitic in ("", "'m", "'re", "'ve", "'ll", "'d", "'s")}
    counts = [len(tokens)] + [0] * len(categories)
    for token in tokens:
        if token in index:
            counts[index[token]] += 1
    return tuple(counts)


def touchstone_hits_reference(tokens, groups) -> tuple[bool, ...]:
    """lexstats.touchstone_hits as it was, over every token in order: a group is hit when a
    token is one of its words, or " " and the space-joined tokens hold " " and the prefix of
    one of its "*" entries."""
    joined = " " + " ".join(tokens)
    return tuple(
        not group.isdisjoint(tokens)
        or any(map(joined.__contains__, (" " + w[:-1] for w in group if w.endswith("*"))))
        for group in groups
    )
