"""Tokenization, pronoun frequencies, and distinctive-word statistics.

Distinctive words are scored with weighted log-odds under an informative
Dirichlet prior. With y_kw the count of word w in corpus k, n_k the corpus
token total over eligible words (stopwords excluded when removal is on;
words under the document-frequency cutoff stay in the total but are not
scored), and a prior alpha_w proportional to the pooled counts scaled to a
total alpha_0:

    delta_w  = log[(y_aw + a_w) / (n_a + a_0 - y_aw - a_w)]
             - log[(y_bw + a_w) / (n_b + a_0 - y_bw - a_w)]
    sigma2_w = 1/(y_aw + a_w) + 1/(y_bw + a_w)
    z_w      = delta_w / sqrt(sigma2_w)

Positive z favors corpus a. alpha_0 defaults to 0.01 times the scored
vocabulary size.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce
from importlib import resources
from operator import add

from .corpus import Corpus

# Maximal runs of letters/digits plus internal apostrophes; apostrophes at
# token edges are not part of the token. Underscore is a separator.
_TOKEN_RE = re.compile(r"[^\W_']+(?:'+[^\W_']+)*")


def tokenize(text: str) -> tuple[str, ...]:
    """Split text into lowercased word tokens.

    Tokens are maximal runs of letters, digits, and apostrophes; edge
    apostrophes are trimmed, internal ones ("who've") kept. Curly
    apostrophes (U+2019, U+02BC) count as "'", so "don\u2019t" is "don't".
    Capital dotted I (U+0130) reads as "i": its lowercase holds a combining
    dot that would split the token.

    The line is lowercased once, before it is split, which gives the same
    tokens as lowercasing each token, except around a capital sigma (U+03A3):
    whether it lowers to final sigma depends on the characters past the token
    ("\u0391\u03a3.\u0392"), so a line holding one lowercases token by token.
    """
    # str.translate is slower.
    text = text.replace("\u2019", "'").replace("\u02bc", "'").replace("\u0130", "i")
    if "\u03a3" in text:
        return tuple(t.lower() for t in _TOKEN_RE.findall(text))
    return tuple(_TOKEN_RE.findall(text.lower()))


# Pronoun categories. The six sets are disjoint; archaic second-person forms
# (thou/thee/thy/...) belong to the second person.
PRONOUN_CATEGORIES: dict[str, frozenset[str]] = {
    "first_singular": frozenset({"i", "me", "my", "mine", "myself"}),
    "first_plural": frozenset({"we", "us", "our", "ours", "ourselves"}),
    "second": frozenset(
        {"you", "your", "yours", "yourself", "yourselves",
         "thou", "thee", "thy", "thine", "thyself"}
    ),
    "third_feminine": frozenset({"she", "her", "hers", "herself"}),
    "third_masculine": frozenset({"he", "his", "him", "himself"}),
    "third": frozenset(
        {"they", "them", "their", "theirs", "themself", "themselves",
         "it", "its", "itself"}
    ),
}


@dataclass(frozen=True)
class PronounProfile:
    """Normalized pronoun frequencies (occurrences per 100 words)."""

    per_100_words: dict[str, float]
    counts: dict[str, int]
    total_tokens: int


_PRONOUN_INDEX = {
    word: k for k, words in enumerate(PRONOUN_CATEGORIES.values(), start=1) for word in words
}


def pronoun_counts(tokens: Sequence[str]) -> tuple[int, ...]:
    """A poem's token count, then its count of each PRONOUN_CATEGORIES entry in order."""
    counts = [len(tokens)] + [0] * len(PRONOUN_CATEGORIES)
    for k in filter(None, map(_PRONOUN_INDEX.get, tokens)):
        counts[k] += 1
    return tuple(counts)


def fold_pronouns(counts: Sequence[tuple[int, ...]], per_poem: bool = False) -> PronounProfile:
    """Pronoun profile of a group from its poems' pronoun_counts, in input order.

    Poems with no tokens are skipped.
    """
    counted = [c for c in counts if c[0]]
    token_total = sum(c[0] for c in counted)
    totals, freqs = {}, {}
    for k, category in enumerate(PRONOUN_CATEGORIES, start=1):
        totals[category] = sum(c[k] for c in counted)
        if per_poem:
            rates = [100.0 * c[k] / c[0] for c in counted]
            freqs[category] = reduce(add, rates, 0.0) / len(rates) if rates else 0.0
        else:
            freqs[category] = 100.0 * totals[category] / token_total if token_total else 0.0
    return PronounProfile(per_100_words=freqs, counts=totals, total_tokens=token_total)


def pronoun_profile(
    corpus: Corpus,
    exclude_subjects: set[str] | None = None,
    per_poem: bool = False,
) -> PronounProfile:
    """Pronoun-category frequencies per 100 words, pooled over the corpus.

    exclude_subjects removes poems whose subject label is in the given set
    before counting. per_poem=True averages per-poem rates instead of
    pooling counts (poems with no tokens are skipped).
    """
    records = list(corpus.records)
    if exclude_subjects:
        records = [r for r in records if r.subject not in exclude_subjects]
    if not records:
        raise ValueError("no poems left after subject exclusion")
    return fold_pronouns([pronoun_counts(tokenize(r.text)) for r in records], per_poem)


def load_stopwords() -> frozenset[str]:
    """The fixed English stopword list shipped with the package."""
    text = resources.files("poemetrics.data").joinpath("stopwords.txt").read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


@dataclass(frozen=True)
class LogOddsResult:
    word: str
    delta: float
    variance: float
    z_score: float
    doc_freq_a: int
    doc_freq_b: int


def _score_counts(
    counts_a: Counter[str],
    counts_b: Counter[str],
    doc_freq_a: Counter[str],
    doc_freq_b: Counter[str],
    min_docs: int,
    alpha_total: float | None,
    feature: str,
) -> list[LogOddsResult]:
    # The token totals cover every counted word; words below the
    # document-frequency cutoff stay in them but are not scored.
    vocabulary = sorted(
        w for w in set(doc_freq_a) | set(doc_freq_b) if doc_freq_a[w] + doc_freq_b[w] >= min_docs
    )
    if not vocabulary:
        raise ValueError(f"empty {feature} after document-frequency filtering")
    n_a, n_b = sum(counts_a.values()), sum(counts_b.values())
    pooled_total = n_a + n_b
    if alpha_total is None:
        alpha_total = 0.01 * len(vocabulary)

    results = []
    for word in vocabulary:
        y_a = counts_a[word]
        y_b = counts_b[word]
        alpha_w = alpha_total * (y_a + y_b) / pooled_total
        rest_a = n_a + alpha_total - y_a - alpha_w
        rest_b = n_b + alpha_total - y_b - alpha_w
        if rest_a <= 0 or rest_b <= 0:
            raise ValueError(
                f"degenerate comparison: a corpus consists solely of the word {word!r}"
            )
        delta = math.log((y_a + alpha_w) / rest_a) - math.log((y_b + alpha_w) / rest_b)
        variance = 1.0 / (y_a + alpha_w) + 1.0 / (y_b + alpha_w)
        results.append(
            LogOddsResult(
                word=word,
                delta=delta,
                variance=variance,
                z_score=delta / math.sqrt(variance),
                doc_freq_a=doc_freq_a[word],
                doc_freq_b=doc_freq_b[word],
            )
        )
    results.sort(key=lambda r: (-r.z_score, r.word))
    return results


@dataclass
class WordCounts:
    """One corpus's log-odds inputs, counted poem by poem.

    counts and doc_freq cover the tokens outside stopwords; firsts counts
    each poem's first token, stopwords included.
    """

    stopwords: frozenset[str] = frozenset()
    counts: Counter[str] = field(default_factory=Counter)
    doc_freq: Counter[str] = field(default_factory=Counter)
    firsts: Counter[str] = field(default_factory=Counter)

    def add(self, tokens: Sequence[str]) -> None:
        """Count one poem's tokens."""
        if tokens:
            self.firsts[tokens[0]] += 1
        eligible = [t for t in tokens if t not in self.stopwords]
        self.counts.update(eligible)
        self.doc_freq.update(set(eligible))

    def update(self, other: WordCounts) -> None:
        """Add the counts of other, counted with the same stopwords, to these."""
        self.counts.update(other.counts)
        self.doc_freq.update(other.doc_freq)
        self.firsts.update(other.firsts)


def _word_counts(corpus: Corpus, stopwords: frozenset[str] = frozenset()) -> WordCounts:
    """WordCounts of a corpus, each poem tokenized whole."""
    counted = WordCounts(stopwords)
    for record in corpus.records:
        counted.add(tokenize(record.text))
    return counted


def fold_logodds(
    a: WordCounts,
    b: WordCounts,
    min_docs: int = 10,
    alpha_total: float | None = None,
) -> list[LogOddsResult]:
    """Distinctive words of a vs b from their counts, ranked by z descending (see logodds)."""
    return _score_counts(a.counts, b.counts, a.doc_freq, b.doc_freq, min_docs, alpha_total,
                         "vocabulary")


def logodds(
    corpus_a: Corpus,
    corpus_b: Corpus,
    min_docs: int = 10,
    remove_stopwords: bool = True,
    alpha_total: float | None = None,
) -> list[LogOddsResult]:
    """Distinctive words of corpus_a vs corpus_b, ranked by z descending.

    The vocabulary is restricted to words appearing in at least min_docs
    poems of the two corpora together. Stopword removal uses the shipped
    list.
    """
    stop = load_stopwords() if remove_stopwords else frozenset()
    return fold_logodds(_word_counts(corpus_a, stop), _word_counts(corpus_b, stop),
                        min_docs, alpha_total)


def fold_first_word_logodds(
    a: WordCounts,
    b: WordCounts,
    min_docs: int = 10,
    alpha_total: float | None = None,
) -> list[LogOddsResult]:
    """Distinctive opening words of a vs b from their counts (see first_word_logodds).

    Each poem contributes its first token once, so document frequency equals the count.
    """
    return _score_counts(a.firsts, b.firsts, a.firsts, b.firsts, min_docs, alpha_total,
                         "first-word vocabulary")


def first_word_logodds(
    corpus_a: Corpus,
    corpus_b: Corpus,
    min_docs: int = 10,
    alpha_total: float | None = None,
) -> list[LogOddsResult]:
    """Distinctive opening words, one feature per poem, stopwords retained."""
    return fold_first_word_logodds(_word_counts(corpus_a), _word_counts(corpus_b),
                                   min_docs, alpha_total)


# Word groups whose presence rate characterizes a corpus. A trailing "*"
# makes the entry a prefix match covering inflected forms.
DEFAULT_TOUCHSTONE_GROUPS: tuple[frozenset[str], ...] = (
    frozenset({"embrace", "grace", "dance", "dreams"}),
    frozenset({"echo*", "whisper*"}),
)


@dataclass(frozen=True)
class TouchstoneCoverage:
    patterns: tuple[str, ...]
    poems_matched: int
    poem_count: int

    @property
    def pct(self) -> float:
        return 100.0 * self.poems_matched / self.poem_count if self.poem_count else 0.0


# Each group with its "*" entries' prefixes, each after a space. No token holds
# "*" or a space, so a prefix entry never matches exactly, and a token starts
# with a prefix when " " and the space-joined tokens hold " " + prefix.
_TOUCHSTONE_MATCHERS = tuple(
    (group, tuple(" " + w[:-1] for w in group if w.endswith("*")))
    for group in DEFAULT_TOUCHSTONE_GROUPS
)


def touchstone_hits(tokens: Sequence[str]) -> tuple[bool, ...]:
    """Whether a poem's tokens hold a member of each DEFAULT_TOUCHSTONE_GROUPS group, in order."""
    joined = " " + " ".join(tokens)
    return tuple(
        not group.isdisjoint(tokens) or any(map(joined.__contains__, prefixes))
        for group, prefixes in _TOUCHSTONE_MATCHERS
    )


def fold_touchstones(matched: Sequence[int], poem_count: int) -> list[TouchstoneCoverage]:
    """Per-group coverage of a corpus from its summed touchstone_hits and its poem count."""
    if not poem_count:
        raise ValueError("empty corpus")
    return [
        TouchstoneCoverage(patterns=tuple(sorted(group)), poems_matched=m, poem_count=poem_count)
        for m, group in zip(matched, DEFAULT_TOUCHSTONE_GROUPS)
    ]


def touchstone_coverage(corpus: Corpus) -> list[TouchstoneCoverage]:
    """Per-group percentage of poems containing at least one member word."""
    hits = [touchstone_hits(tokenize(r.text)) for r in corpus.records]
    return fold_touchstones([sum(column) for column in zip(*hits)], len(hits))
