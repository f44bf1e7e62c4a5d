"""End-rhyme detection and AA/ABAB/ABBA/ABCB scheme statistics.

Two words rhyme when any pronunciation variants share an identical rhyming
part (strict phoneme match; no slant rhyme). Out-of-vocabulary end words
never rhyme and are collected for audit. Scheme windows slide one line at a
time over the flattened non-blank line sequence, so stanza breaks do not
affect detection.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from .arpabet import PronouncingDictionary, Variant, rhyme_part
from .corpus import Corpus
from .lexstats import tokenize
from .structure import PoemStructure, Totals, exact, exact_mean, parse_structure


def _last_word(tokens: Sequence[str]) -> str | None:
    return tokens[-1] if tokens and not tokens[-1].isdigit() else None


def end_word(line: str) -> str | None:
    """The line's last lexstats.tokenize token; None if it has none or that one is all digits."""
    return _last_word(tokenize(line))


def _rhyme_parts(dictionary: PronouncingDictionary, word: str) -> frozenset[Variant] | None:
    """The rhyming parts of the word's variants; None when it is not in the dictionary."""
    variants = dictionary.lookup(word)
    if not variants:
        return None
    found = set()
    for variant in variants:
        try:
            found.add(rhyme_part(variant))
        except ValueError:
            continue
    return frozenset(found)


def lines_rhyme(word_a: str | None, word_b: str | None, dictionary: PronouncingDictionary) -> bool:
    """True when some variants of the two words share a rhyming part.

    Missing words (None or out of vocabulary) never rhyme.
    """
    if word_a is None or word_b is None:
        return False
    parts_a, parts_b = _rhyme_parts(dictionary, word_a), _rhyme_parts(dictionary, word_b)
    return parts_a is not None and parts_b is not None and not parts_a.isdisjoint(parts_b)


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

    def counts(self) -> tuple[bool, float, int, int]:
        """What RhymeStats.add counts: any scheme, rhymed fraction, rhymed lines, lines."""
        flags = self.rhymed_line_flags
        return bool(self.schemes), self.rhymed_fraction, sum(flags), len(flags)

    @property
    def scheme_names(self) -> set[str]:
        return {m.scheme for m in self.schemes}

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
    detected window. Each end word's rhyming parts are memoized in
    dictionary.rhyme_part_memo, None for a word not in the dictionary.
    """
    n = poem.line_count
    words = tuple(map(_last_word, poem.tokens))
    memo = dictionary.rhyme_part_memo
    found = {w: memo[w] if w in memo else memo.setdefault(w, _rhyme_parts(dictionary, w))
             for w in dict.fromkeys(words) if w is not None}
    # lines_rhyme's test: a missing or unknown end word rhymes with nothing.
    parts = [found.get(w) or frozenset() for w in words]
    oov = tuple(sorted(w for w, p in found.items() if p is None))
    # Whether lines i and i + k share no rhyming part, for k = 1, 2, 3: each pair tested once.
    apart = [list(map(frozenset.isdisjoint, parts, parts[k:])) for k in (1, 2, 3)]
    if all(map(all, apart)):
        return RhymeAnnotation(end_words=words, rhymed_line_flags=(False,) * n, schemes=(),
                               rhymed_fraction=0 / n, oov_end_words=oov)
    apart1, apart2, apart3 = apart
    flags = [False] * n
    schemes: list[SchemeMatch] = []
    for i in range(n - 1):
        if not apart1[i]:
            schemes.append(SchemeMatch("AA", (i, i + 1)))
            flags[i] = flags[i + 1] = True
    for i in range(n - 3):
        if apart2[i + 1] and apart3[i]:  # no ABAB, ABBA or ABCB here
            continue
        abab = not (apart2[i] or apart2[i + 1])
        abba = not (apart3[i] or apart1[i + 1])
        if abab:
            schemes.append(SchemeMatch("ABAB", (i, i + 1, i + 2, i + 3)))
        if abba:
            schemes.append(SchemeMatch("ABBA", (i, i + 1, i + 2, i + 3)))
        if abab or abba:
            flags[i:i + 4] = True, True, True, True
        if not (abab or apart2[i + 1]):
            schemes.append(SchemeMatch("ABCB", (i + 1, i + 3)))
            flags[i + 1] = flags[i + 3] = True
    return RhymeAnnotation(
        end_words=words,
        rhymed_line_flags=tuple(flags),
        schemes=tuple(schemes),
        rhymed_fraction=sum(flags) / n,
        oov_end_words=oov,
    )


@dataclass
class RhymeStats(Totals):
    """Rhyme counts of a group, added poem by poem.

    avg_rhymed_fraction is the unweighted mean of per-poem fractions, summed
    exactly (see structure.exact) and rounded once, so it does not depend on
    the order poems are added or groups merged in; pooled_rhymed_fraction
    pools rhymed and total lines.
    """

    poems_with_rhyme: int = 0
    poem_count: int = 0
    rhymed_fraction_sum: int = 0  # in units of 2**-structure.EXACT_SCALE
    rhymed_lines: int = 0
    lines: int = 0

    def add(self, counts: tuple[bool, float, int, int]) -> None:
        """Count one poem's RhymeAnnotation.counts()."""
        rhymed, fraction, rhymed_lines, lines = counts
        self.poems_with_rhyme += rhymed
        self.poem_count += 1
        self.rhymed_fraction_sum += exact(fraction)
        self.rhymed_lines += rhymed_lines
        self.lines += lines

    @property
    def poems_with_rhyme_pct(self) -> float:
        return 100.0 * self.poems_with_rhyme / self.poem_count

    @property
    def avg_rhymed_fraction(self) -> float:
        return exact_mean(self.rhymed_fraction_sum, self.poem_count)

    @property
    def pooled_rhymed_fraction(self) -> float:
        return self.rhymed_lines / self.lines


def corpus_rhyme_stats(corpus: Corpus, dictionary: PronouncingDictionary) -> RhymeStats:
    """Share of poems with any detected scheme and mean rhymed-line fraction."""
    if not len(corpus):
        raise ValueError("empty corpus")
    stats, run = RhymeStats(), replace(dictionary)  # with memos for this call only
    for record in corpus.records:
        stats.add(annotate_rhymes(parse_structure(record), run).counts())
    return stats
