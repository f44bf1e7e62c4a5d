"""Automated scansion: per-line stress sequences and iambic-dominance scores.

Stress sequences use one symbol per syllable: "0" unstressed, "1" stressed
(secondary stress folds to "1"), "x" for monosyllables (metrically flexible;
the same word can be stressed or unstressed depending on context), and "?"
per estimated syllable of out-of-vocabulary words.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import chain, filterfalse

from .arpabet import PronouncingDictionary, stress_pattern
from .corpus import Corpus
from .lexstats import tokenize
from .structure import PoemStructure, parse_structure

_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")

IAMB = "01"
DEFAULT_DOMINANCE_THRESHOLD = 0.75


def estimate_syllables(word: str) -> int:
    """Vowel-letter-group count, the syllable guess for unknown words."""
    return len(_VOWEL_GROUP_RE.findall(word.lower()))


@dataclass(frozen=True)
class StressSequence:
    digits: str  # over {0, 1, x, ?}
    line: int


def word_stress(word: str, dictionary: PronouncingDictionary) -> str:
    """Stress symbols for one word, using its first dictionary variant."""
    variants = dictionary.lookup(word)
    if not variants:
        return "?" * estimate_syllables(word)
    pattern = stress_pattern(variants[0])
    return "x" if len(pattern) == 1 else pattern.replace("2", "1")


def _stress_memo(words: Iterable[str], dictionary: PronouncingDictionary) -> dict[str, str]:
    """dictionary.stress_memo, after adding the word_stress string of each word it lacks."""
    memo = dictionary.stress_memo
    # The filter reads the memo as it goes, so a word is scanned once however often it comes.
    for word in filterfalse(memo.__contains__, words):
        memo[word] = word_stress(word, dictionary)
    return memo


def _stress_digits(tokens: Sequence[str], dictionary: PronouncingDictionary) -> str:
    """The tokens' word_stress strings joined, each memoized in dictionary.stress_memo."""
    return "".join(map(_stress_memo(tokens, dictionary).__getitem__, tokens))


def line_stress(line: str, dictionary: PronouncingDictionary, line_index: int = 0) -> StressSequence:
    """Concatenated word stress patterns for one line of text."""
    return StressSequence(digits=_stress_digits(tokenize(line), dictionary), line=line_index)


def alignment_score(digits: str, pattern: str = IAMB) -> float:
    """Fraction of syllables agreeing with the repeating pattern of 0s and 1s.

    "x" matches either pattern digit; "?" earns half credit. Position k is
    compared against pattern[k % len(pattern)].
    """
    if not digits:
        raise ValueError("cannot score an empty stress sequence")
    n = len(pattern)
    # Every partial sum is a multiple of 0.5, so the credit is exact.
    credit = (digits.count("x") + 0.5 * digits.count("?")
              + sum(digits[k::n].count(p) for k, p in enumerate(pattern)))
    return credit / len(digits)


class UnscannableError(ValueError):
    """A poem has no line with two or more resolvable syllables."""


@dataclass(frozen=True)
class MeterVerdict:
    iambic_score: float
    dominant: bool
    syllables_per_line: tuple[int, ...]
    threshold: float
    scanned_lines: int


def iambic_score(
    poem: PoemStructure,
    dictionary: PronouncingDictionary,
    threshold: float = DEFAULT_DOMINANCE_THRESHOLD,
) -> MeterVerdict:
    """Mean per-line iambic alignment; dominant when the mean meets threshold.

    Lines with fewer than two resolvable (non-"?") syllables are not
    scored; they still contribute to syllables_per_line. Each token's stress
    is memoized on the dictionary (see _stress_memo). A line's credit is
    counted here, as alignment_score(digits) counts it: every "x", half of
    every "?", and each "0" at an even position and "1" at an odd one. Every
    partial sum is a multiple of 0.5, so each line's score is the same float.
    """
    stress = _stress_memo(chain.from_iterable(poem.tokens), dictionary).__getitem__
    syllables = []
    total, scanned = 0.0, 0
    for tokens in poem.tokens:
        digits = "".join(map(stress, tokens))
        n, unknown = len(digits), digits.count("?")
        syllables.append(n)
        if n - unknown >= 2:
            # Added left to right: sum() of floats rounds differently from Python 3.12 on.
            total += (digits.count("x") + 0.5 * unknown + digits[::2].count("0")
                      + digits[1::2].count("1")) / n
            scanned += 1
    if not scanned:
        raise UnscannableError("no scannable lines")
    score = total / scanned
    return MeterVerdict(
        iambic_score=score,
        dominant=score >= threshold,
        syllables_per_line=tuple(syllables),
        threshold=threshold,
        scanned_lines=scanned,
    )


@dataclass
class CorpusMeterStats:
    """Meter counts of a group, added poem by poem; scores are summed in input order."""

    dominant_poems: int = 0
    poem_count: int = 0
    iambic_score_sum: float = 0.0
    unscannable_poems: int = 0

    def add(self, scan: tuple[float, bool] | None) -> None:
        """Count one poem's scan_poem result."""
        self.poem_count += 1
        if scan is None:
            self.unscannable_poems += 1
        else:
            self.iambic_score_sum += scan[0]
            self.dominant_poems += scan[1]

    @property
    def pct_dominant_iambic(self) -> float:
        scanned = self.poem_count - self.unscannable_poems
        return 100.0 * self.dominant_poems / scanned if scanned else 0.0

    @property
    def mean_iambic_score(self) -> float:
        scanned = self.poem_count - self.unscannable_poems
        return self.iambic_score_sum / scanned if scanned else 0.0


def scan_poem(
    poem: PoemStructure,
    dictionary: PronouncingDictionary,
    threshold: float = DEFAULT_DOMINANCE_THRESHOLD,
) -> tuple[float, bool] | None:
    """(iambic score, dominant) of one poem, as iambic_score gives it; None when unscannable.

    A run scoring many poems passes every call the same dictionary, so each
    distinct token's stress is worked out once per run (see _stress_memo).
    """
    try:
        verdict = iambic_score(poem, dictionary, threshold)
    except UnscannableError:
        return None
    return verdict.iambic_score, verdict.dominant


def corpus_meter_stats(
    corpus: Corpus,
    dictionary: PronouncingDictionary,
    threshold: float = DEFAULT_DOMINANCE_THRESHOLD,
) -> CorpusMeterStats:
    """Share of poems whose mean line alignment is iambic-dominant."""
    if not len(corpus):
        raise ValueError("empty corpus")
    stats, run = CorpusMeterStats(), replace(dictionary)  # with memos for this call only
    for record in corpus.records:
        stats.add(scan_poem(parse_structure(record), run, threshold))
    return stats
