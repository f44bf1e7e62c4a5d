from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, strategies as st

from poemetrics import meter
from poemetrics.arpabet import load_bundled_dictionary
from poemetrics.meter import (
    CorpusMeterStats,
    UnscannableError,
    alignment_score,
    corpus_meter_stats,
    estimate_syllables,
    iambic_score,
    line_stress,
    scan_poem,
    word_stress,
)
from poemetrics.structure import parse_structure

from conftest import IAMBIC_LINE, fold_and_merge, make_corpus


def test_word_stress_rules(dictionary):
    assert word_stress("whisper", dictionary) == "10"
    assert word_stress("upon", dictionary) == "01"
    # monosyllables are metrically flexible
    assert word_stress("day", dictionary) == "x"
    assert word_stress("the", dictionary) == "x"
    # secondary stress folds to stressed
    assert word_stress("shadows", dictionary) == "11"


def test_word_stress_oov_uses_vowel_groups(dictionary):
    assert word_stress("glorfindel", dictionary) == "???"
    assert word_stress("zzz", dictionary) == ""


def test_estimate_syllables():
    assert estimate_syllables("glorfindel") == 3
    assert estimate_syllables("rhythm") == 1
    assert estimate_syllables("zzz") == 0


def test_line_stress_concatenates(dictionary):
    seq = line_stress("whisper upon", dictionary, line_index=3)
    assert seq.digits == "1001"
    assert seq.line == 3


def test_line_stress_empty_line(dictionary):
    assert line_stress("", dictionary).digits == ""


def test_iambic_line_scores_high(dictionary):
    seq = line_stress(IAMBIC_LINE, dictionary)
    assert len(seq.digits) == 10
    assert alignment_score(seq.digits) >= 0.9


def test_alignment_scores():
    assert alignment_score("0101010101") == 1.0
    assert alignment_score("100100100") <= 0.5
    assert alignment_score("xxxx") == 1.0
    assert alignment_score("??") == 0.5
    with pytest.raises(ValueError):
        alignment_score("")


def test_perfectly_iambic_poem(dictionary):
    poem = parse_structure("upon delight\nupon delight return")
    verdict = iambic_score(poem, dictionary)
    assert verdict.iambic_score == 1.0
    assert verdict.dominant


def test_dactylic_poem_scores_low(dictionary):
    text = "\n".join(["murmuring whispering echoing"] * 4)
    verdict = iambic_score(parse_structure(text), dictionary)
    assert verdict.iambic_score <= 0.5
    assert not verdict.dominant


def test_unscannable_poem_is_an_error(dictionary):
    with pytest.raises(ValueError, match="no scannable lines"):
        iambic_score(parse_structure("qzz\nxvv"), dictionary)


def test_short_lines_are_skipped_but_counted(dictionary):
    poem = parse_structure("day\nupon delight")
    verdict = iambic_score(poem, dictionary)
    assert verdict.scanned_lines == 1
    assert verdict.syllables_per_line == (1, 4)


def test_syllables_per_line_sums_to_total(dictionary):
    poem = parse_structure(IAMBIC_LINE + "\nwhisper upon the day")
    verdict = iambic_score(poem, dictionary)
    total = sum(
        len(line_stress(l, dictionary).digits) for l in poem.lines
    )
    assert sum(verdict.syllables_per_line) == total


def test_line_reordering_invariance(dictionary):
    lines = ["upon delight", "murmuring echoing", "whisper the day", IAMBIC_LINE]
    forward = iambic_score(parse_structure("\n".join(lines)), dictionary)
    backward = iambic_score(parse_structure("\n".join(reversed(lines))), dictionary)
    assert forward.iambic_score == backward.iambic_score
    assert forward.dominant == backward.dominant


def test_threshold_is_configurable(dictionary):
    poem = parse_structure("whisper the day upon")
    strict = iambic_score(poem, dictionary, threshold=1.01)
    assert not strict.dominant


def test_complement_alignment_sums_to_one_exactly():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randrange(2, 41, 2)
        digits = "".join(rng.choice("01") for _ in range(n))
        assert alignment_score(digits, "01") + alignment_score(digits, "10") == 1.0


@given(st.text(alphabet="01", min_size=1, max_size=60))
def test_complement_alignment_property(digits):
    assert alignment_score(digits, "01") + alignment_score(digits, "10") == pytest.approx(1.0)


def alignment_reference(digits, pattern):
    """Per-symbol alignment credit: x is 1, ? is 0.5, a digit 1 where it matches the pattern."""
    credit = 0.0
    for k, symbol in enumerate(digits):
        if symbol == "x":
            credit += 1.0
        elif symbol == "?":
            credit += 0.5
        elif symbol == pattern[k % len(pattern)]:
            credit += 1.0
    return credit / len(digits)


@given(st.text(alphabet="01x?", min_size=1, max_size=80), st.sampled_from(["01", "10", "001"]))
def test_alignment_matches_per_symbol_reference(digits, pattern):
    assert alignment_score(digits, pattern) == alignment_reference(digits, pattern)


def test_fold_meter_stats_mean_is_exact():
    # Added left to right in floats this is 0.09999999999999999, and sum() of floats rounds
    # it to 0.1 from Python 3.12 on; reports must not depend on the Python version.
    stats = CorpusMeterStats()
    for _ in range(10):
        stats.add((0.1, False))
    assert stats.mean_iambic_score == 0.1


@given(st.lists(st.none() | st.floats(0, 1), min_size=1, max_size=40), st.data())
def test_meter_stats_merged_in_any_order_hold_the_exact_mean(scores, data):
    # None stands for an unscannable poem.
    scans = [None if s is None else (s, s >= 0.75) for s in scores]
    one, merged = fold_and_merge(CorpusMeterStats, scans, data)
    assert merged == one
    scanned = [s for s in scores if s is not None]
    assert merged.mean_iambic_score == (
        float(sum(map(Fraction, scanned)) / len(scanned)) if scanned else 0.0)


def test_corpus_meter_stats(dictionary):
    iambic = "upon delight\nupon delight return"
    dactylic = "murmuring whispering echoing\nmurmuring whispering echoing"
    stats = corpus_meter_stats(make_corpus([iambic, dactylic]), dictionary)
    assert stats.poem_count == 2
    assert stats.dominant_poems == 1
    assert stats.pct_dominant_iambic == 50.0


def test_corpus_meter_stats_skips_unscannable(dictionary):
    stats = corpus_meter_stats(make_corpus(["qzz xvv", "upon delight"]), dictionary)
    assert stats.unscannable_poems == 1
    assert stats.pct_dominant_iambic == 100.0


def test_vowel_less_unknown_words_are_unscannable(dictionary):
    assert issubclass(UnscannableError, ValueError)
    text = "qzz xvv\nbrr tsk pfft"
    with pytest.raises(UnscannableError, match="no scannable lines"):
        iambic_score(parse_structure(text), dictionary)
    assert scan_poem(parse_structure(text), dictionary) is None
    stats = corpus_meter_stats(make_corpus([text, "upon delight"]), dictionary)
    assert stats.unscannable_poems == 1
    assert stats.mean_iambic_score == 1.0


def test_corpus_meter_stats_does_not_hide_other_value_errors(dictionary, monkeypatch):
    def broken(poem, *args, **kwargs):
        raise ValueError("not an unscannable poem")

    monkeypatch.setattr(meter, "iambic_score", broken)
    with pytest.raises(ValueError, match="not an unscannable poem"):
        corpus_meter_stats(make_corpus(["upon delight"]), dictionary)


_DICTIONARY = load_bundled_dictionary()
_DICTIONARY_WORDS = sorted(w for w in _DICTIONARY.entries if w.isalpha())
# Dictionary words, unknown words scanned as "?" per vowel group, and unknown
# words and numbers with no vowel, which scan as nothing.
_METER_TOKENS = st.one_of(st.sampled_from(_DICTIONARY_WORDS),
                          st.sampled_from(["glorfindel", "quoxa", "zeeb", "aeiou"]),
                          st.sampled_from(["zzz", "brr", "tsk", "1914"]))
_METER_LINES = st.lists(st.lists(_METER_TOKENS, min_size=1, max_size=8), min_size=1, max_size=6)


@given(_METER_LINES)
def test_inline_line_credit_equals_alignment_score(lines):
    dictionary = _DICTIONARY
    poem = parse_structure("\n".join(map(" ".join, lines)))
    digits = [meter._stress_digits(tokens, dictionary) for tokens in poem.tokens]
    scorable = [d for d in digits if len(d) - d.count("?") >= 2]
    for line, d in zip(poem.lines, digits):
        if d in scorable:
            assert iambic_score(parse_structure(line), dictionary).iambic_score == alignment_score(d)
    if not scorable:
        with pytest.raises(UnscannableError):
            iambic_score(poem, dictionary)
        return
    verdict = iambic_score(poem, dictionary)
    assert verdict.iambic_score == reduce(add, map(alignment_score, scorable), 0.0) / len(scorable)
    assert verdict.scanned_lines == len(scorable)
    assert verdict.syllables_per_line == tuple(map(len, digits))
