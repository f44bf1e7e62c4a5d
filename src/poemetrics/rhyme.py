"""End-rhyme detection and AA/ABAB/ABBA/ABCB scheme statistics.

Two words rhyme when any pronunciation variants share an identical rhyming
part (strict phoneme match; no slant rhyme). Out-of-vocabulary end words
never rhyme and are collected for audit. Scheme windows slide one line at a
time over the flattened non-blank line sequence, so stanza breaks do not
affect detection.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

from .arpabet import PronouncingDictionary, Variant, rhyme_part
from .corpus import Corpus
from .lexstats import tokenize
from .structure import PoemStructure, parse_structure


def _last_word(tokens: Sequence[str]) -> str | None:
    return tokens[-1] if tokens and not tokens[-1].isdigit() else None


def end_word(line: str) -> str | None:
    """The line's last lexstats.tokenize token; None if it has none or that one is all digits."""
    return _last_word(tokenize(line))


def _rhyme_parts(dictionary: PronouncingDictionary, word: str) -> frozenset[Variant]:
    key = word.lower()
    parts = dictionary.rhyme_part_memo.get(key)
    if parts is None:
        variants = dictionary.lookup(key)
        found = set()
        for variant in variants:
            try:
                found.add(rhyme_part(variant))
            except ValueError:
                continue
        parts = frozenset(found)
        if variants:
            dictionary.rhyme_part_memo[key] = parts
    return parts


def lines_rhyme(word_a: str | None, word_b: str | None, dictionary: PronouncingDictionary) -> bool:
    """True when some variants of the two words share a rhyming part.

    Missing words (None or out of vocabulary) never rhyme.
    """
    if word_a is None or word_b is None:
        return False
    return not _rhyme_parts(dictionary, word_a).isdisjoint(_rhyme_parts(dictionary, word_b))


# One poem's (has a scheme, rhymed fraction, rhymed lines, lines).
RhymeCounts = tuple[bool, float, int, int]


@dataclass(frozen=True)
class SchemeMatch:
    scheme: str
    lines: tuple[int, ...]  # 0-based indices into the non-blank line sequence


@dataclass(frozen=True)
class RhymeAnnotation:
    end_words: tuple[str | None, ...]
    rhymed_line_flags: tuple[bool, ...]
    schemes: tuple[SchemeMatch, ...]
    rhymed_fraction: float
    oov_end_words: tuple[str, ...]

    @property
    def scheme_names(self) -> set[str]:
        return {m.scheme for m in self.schemes}

    def counts(self) -> RhymeCounts:
        """The numbers of this annotation that corpus statistics fold."""
        flags = self.rhymed_line_flags
        return bool(self.schemes), self.rhymed_fraction, sum(flags), len(flags)

    def to_json_dict(self) -> dict:
        return {
            "end_words": list(self.end_words),
            "rhymed_line_flags": list(self.rhymed_line_flags),
            "schemes": [{"scheme": m.scheme, "lines": list(m.lines)} for m in self.schemes],
            "rhymed_fraction": self.rhymed_fraction,
            "oov_end_words": list(self.oov_end_words),
        }


def annotate_rhymes(poem: PoemStructure, dictionary: PronouncingDictionary) -> RhymeAnnotation:
    """Detect AA/ABAB/ABBA/ABCB end-rhyme windows and flag the rhymed lines.

    For window start i: AA when lines (i, i+1) rhyme; over (i..i+3), ABAB
    when (i, i+2) and (i+1, i+3) rhyme, ABBA when (i, i+3) and (i+1, i+2)
    rhyme, and ABCB when (i+1, i+3) rhyme without ABAB holding on the same
    window. A line is flagged when it is bound by a matched pair in any
    detected window.
    """
    n = poem.line_count
    words = tuple(map(_last_word, poem.tokens))
    # lines_rhyme's test, with each end word's parts looked up once.
    parts = [frozenset() if w is None else _rhyme_parts(dictionary, w) for w in words]

    def r(i: int, j: int) -> bool:
        return not parts[i].isdisjoint(parts[j])

    flags = [False] * n
    schemes: list[SchemeMatch] = []

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

    oov = tuple(
        sorted({w for w in words if w is not None and not dictionary.lookup(w)})
    )
    return RhymeAnnotation(
        end_words=words,
        rhymed_line_flags=tuple(flags),
        schemes=tuple(schemes),
        rhymed_fraction=sum(flags) / n,
        oov_end_words=oov,
    )


@dataclass(frozen=True)
class RhymeStats:
    poems_with_rhyme: int
    poem_count: int
    avg_rhymed_fraction: float
    pooled_rhymed_fraction: float

    @property
    def poems_with_rhyme_pct(self) -> float:
        return 100.0 * self.poems_with_rhyme / self.poem_count


def fold_rhyme_stats(counts: Sequence[RhymeCounts]) -> RhymeStats:
    """Rhyme statistics of a group from its poems' counts, summed in input order."""
    if not counts:
        raise ValueError("empty corpus")
    with_rhyme, fractions, rhymed_lines, lines = zip(*counts)
    return RhymeStats(sum(with_rhyme), len(counts), reduce(add, fractions, 0.0) / len(counts),
                      sum(rhymed_lines) / sum(lines))


def corpus_rhyme_stats(corpus: Corpus, dictionary: PronouncingDictionary) -> RhymeStats:
    """Share of poems with any detected scheme and mean rhymed-line fraction.

    avg_rhymed_fraction is the unweighted mean of per-poem fractions;
    pooled_rhymed_fraction pools rhymed and total lines corpus-wide.
    """
    return fold_rhyme_stats(
        [annotate_rhymes(parse_structure(r), dictionary).counts() for r in corpus.records]
    )
