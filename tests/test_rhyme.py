from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from poemetrics.arpabet import PronouncingDictionary
from poemetrics.lexstats import tokenize
from poemetrics.rhyme import (
    RhymeAnnotation,
    RhymeStats,
    annotate_rhymes,
    corpus_rhyme_stats,
    end_word,
    lines_rhyme,
)
from poemetrics.structure import parse_structure

from conftest import LIMERICK, QUATRAINS, fold_and_merge, make_corpus


def test_end_word_extraction():
    assert end_word("hearts ablaze,") == "ablaze"
    assert end_word("who can they be?") == "be"
    assert end_word("the well-known") == "known"
    assert end_word("o'er the praise'") == "praise"
    assert end_word("1944 --") is None
    assert end_word("") is None


def test_end_word_skips_bare_apostrophes():
    assert end_word("a word ''") == "word"


@pytest.mark.parametrize("line, word", [
    ("so na\u00efve", "na\u00efve"),  # a non-ASCII letter stays in the word
    ("in 1914", None),  # a number ends the line, so no word does
    ("the world\u2019s", "world's"),  # a curly apostrophe reads as straight
])
def test_end_word_on_llm_text(line, word):
    assert end_word(line) == word


# Letters, digits, apostrophes straight and curly, and separators.
END_WORD_ALPHABET = "ab Z\u00e9\u00df\u0436 07_'\u2019\u02bc-.,!\t"


@given(st.text(alphabet=END_WORD_ALPHABET, max_size=40))
def test_end_word_is_the_last_token_unless_all_digits(line):
    tokens = tokenize(line)
    expected = tokens[-1] if tokens and not tokens[-1].isdigit() else None
    assert end_word(line) == expected


# Lines of rhyming, non-rhyming, unknown and numeric end words.
_LINE = st.lists(
    st.sampled_from(["day", "way", "night", "light", "sea", "zzyzzx", "na\u00efve",
                     "world\u2019s", "1914", "--", "'", "well-known"]),
    min_size=1, max_size=4,
).map(" ".join)


@given(st.lists(_LINE, min_size=1, max_size=9).map("\n".join))
def test_annotation_end_words_are_the_line_end_words(dictionary, text):
    poem = parse_structure(text)
    assert annotate_rhymes(poem, dictionary).end_words == tuple(map(end_word, poem.lines))


class _CountingLookups:
    """A dictionary's lookups, counted per word, behind a rhyme memo of its own."""

    def __init__(self, dictionary):
        self.dictionary, self.rhyme_part_memo, self.looked_up = dictionary, {}, Counter()

    def lookup(self, word):
        self.looked_up[word.lower()] += 1
        return self.dictionary.lookup(word)


# Lines whose end words repeat, rhyme, or are unknown.
_OOV_LINE = st.lists(
    st.one_of(st.sampled_from(["day", "way", "zzyzzx", "na\u00efve", "1914", "--"]),
              st.text(alphabet="abdeyz\u00e9", min_size=1, max_size=4)),
    min_size=1, max_size=3,
).map(" ".join)


@given(st.lists(_OOV_LINE, min_size=1, max_size=9).map("\n".join))
def test_oov_end_words_come_from_one_lookup_per_end_word(dictionary, text):
    counting = _CountingLookups(dictionary)
    annotation = annotate_rhymes(parse_structure(text), counting)
    words = annotation.end_words
    assert list(annotation.oov_end_words) == sorted(
        {w for w in words if w and not dictionary.lookup(w)})
    assert max(counting.looked_up.values(), default=0) <= 1


def test_corpus_rhyme_stats_looks_each_end_word_up_once(dictionary):
    looked_up = Counter()

    class Counting(PronouncingDictionary):
        def lookup(self, word):
            looked_up[word] += 1
            return super().lookup(word)

    # Unknown and known end words, each ending lines of several poems.
    texts = ["the day\nof florbix\nin qzz", "florbix away\nthe day", "qzz\nflorbix\nday",
             "a florbix\nzyxwvut\nthe qzz\nzyxwvut"]
    counting = Counting(dictionary.entries, dictionary.source_sha256)
    stats = corpus_rhyme_stats(make_corpus(texts), counting)
    assert set(looked_up) == {"day", "florbix", "qzz", "away", "zyxwvut"}
    assert max(looked_up.values()) == 1
    assert stats == corpus_rhyme_stats(make_corpus(texts), dictionary)


def test_lines_rhyme_examples(dictionary):
    assert lines_rhyme("woes", "blows", dictionary)
    assert not lines_rhyme("lens", "begins", dictionary)
    assert lines_rhyme("day", "day", dictionary)


def test_oov_words_never_rhyme(dictionary):
    assert not lines_rhyme("zzzxqy", "day", dictionary)
    assert not lines_rhyme("day", None, dictionary)


def test_rhyme_via_any_variant_pair(dictionary):
    # "read" (R IY1 D) rhymes with "reed" through its second variant
    assert lines_rhyme("read", "reed", dictionary)
    assert lines_rhyme("read", "red", dictionary)


def test_limerick_annotation(dictionary):
    ann = annotate_rhymes(parse_structure(LIMERICK), dictionary)
    assert ann.end_words == ("ablaze", "haze", "brave", "gave", "praise")
    found = {(m.scheme, m.lines) for m in ann.schemes}
    assert ("AA", (0, 1)) in found
    assert ("AA", (2, 3)) in found
    assert ("ABBA", (1, 2, 3, 4)) in found
    assert ann.rhymed_fraction == 1.0
    assert all(ann.rhymed_line_flags)


def test_social_commentary_first_quatrain(dictionary):
    first_stanza = "\n".join(QUATRAINS.split("\n")[:4])
    ann = annotate_rhymes(parse_structure(first_stanza), dictionary)
    assert [m.scheme for m in ann.schemes] == ["AA"]
    assert ann.schemes[0].lines == (2, 3)
    assert ann.rhymed_fraction == 0.5


def test_two_nonrhyming_lines(dictionary):
    ann = annotate_rhymes(parse_structure("the morning sun\nan evening sky"), dictionary)
    assert ann.schemes == ()
    assert ann.rhymed_fraction == 0.0


def test_abab_window(dictionary):
    poem = parse_structure("the day\nthe night\nthe way\nthe light")
    ann = annotate_rhymes(poem, dictionary)
    assert "ABAB" in ann.scheme_names
    assert all(ann.rhymed_line_flags)


def test_abcb_window(dictionary):
    poem = parse_structure("the sun\nthe night\nthe moon\nthe light")
    ann = annotate_rhymes(poem, dictionary)
    assert ann.scheme_names == {"ABCB"}
    assert ann.rhymed_line_flags == (False, True, False, True)
    assert ann.rhymed_fraction == 0.5


def test_abcb_suppressed_when_abab(dictionary):
    poem = parse_structure("the day\nthe night\nthe way\nthe light")
    ann = annotate_rhymes(poem, dictionary)
    assert "ABCB" not in ann.scheme_names


def test_stanza_breaks_do_not_affect_detection(dictionary):
    flat = annotate_rhymes(parse_structure("a day\na way\na night\na light"), dictionary)
    broken = annotate_rhymes(
        parse_structure("a day\na way\n\na night\na light"), dictionary
    )
    assert flat.schemes == broken.schemes
    assert flat.rhymed_fraction == broken.rhymed_fraction


def test_all_adjacent_rhymes_flags_everything(dictionary):
    poem = parse_structure("the day\nthe way\nthe bay\nthe gray")
    ann = annotate_rhymes(poem, dictionary)
    assert ann.rhymed_fraction == 1.0


def test_flagged_lines_appear_in_scheme_windows(dictionary):
    ann = annotate_rhymes(parse_structure(QUATRAINS), dictionary)
    in_windows = {i for m in ann.schemes for i in m.lines}
    flagged = {i for i, f in enumerate(ann.rhymed_line_flags) if f}
    assert flagged == in_windows


def test_oov_end_words_collected(dictionary):
    ann = annotate_rhymes(parse_structure("the zzyzzx\nthe day"), dictionary)
    assert ann.oov_end_words == ("zzyzzx",)


def test_annotation_serializes_to_json(dictionary):
    import json

    ann = annotate_rhymes(parse_structure("the day\nthe way"), dictionary)
    payload = json.loads(json.dumps(ann.to_json_dict()))
    assert payload["end_words"] == ["day", "way"]
    assert payload["schemes"] == [{"scheme": "AA", "lines": [0, 1]}]
    assert payload["rhymed_fraction"] == 1.0


def test_symmetry_and_reflexivity_on_random_pairs(dictionary):
    rng = random.Random(99)
    words = dictionary.words()
    for _ in range(1000):
        a, b = rng.choice(words), rng.choice(words)
        assert lines_rhyme(a, b, dictionary) == lines_rhyme(b, a, dictionary)
    for word in rng.sample(words, 100):
        assert lines_rhyme(word, word, dictionary)


def test_corpus_stats(dictionary):
    rhymed = "the day\nthe way"
    unrhymed = "the morning\nan evening"
    stats = corpus_rhyme_stats(make_corpus([rhymed, unrhymed]), dictionary)
    assert stats.poems_with_rhyme_pct == 50.0
    assert stats.avg_rhymed_fraction == 0.5
    assert stats.pooled_rhymed_fraction == 0.5


def test_corpus_stats_mean_vs_pooled(dictionary):
    # 2-line fully rhymed poem vs 4-line unrhymed poem: the unweighted mean
    # differs from the pooled line rate.
    rhymed = "the day\nthe way"
    unrhymed = "one morning\nan evening\nsome thunder\nthis lightning"
    stats = corpus_rhyme_stats(make_corpus([rhymed, unrhymed]), dictionary)
    assert stats.avg_rhymed_fraction == 0.5
    assert stats.pooled_rhymed_fraction == pytest.approx(2 / 6)


def test_corpus_stats_permutation_invariant(dictionary):
    texts = [LIMERICK, QUATRAINS, "the day\nthe way", "plain morning\nwords evening"]
    forward = corpus_rhyme_stats(make_corpus(texts), dictionary)
    backward = corpus_rhyme_stats(make_corpus(list(reversed(texts))), dictionary)
    assert forward == backward


def test_fold_rhyme_stats_mean_is_exact():
    # Added left to right in floats this is 0.09999999999999999, and sum() of floats rounds
    # it to 0.1 from Python 3.12 on; the exact mean does not depend on the Python version.
    annotation = RhymeAnnotation(end_words=(None,), rhymed_line_flags=(False,), schemes=(),
                                 rhymed_fraction=0.1, oov_end_words=())
    stats = RhymeStats()
    for _ in range(10):
        stats.add(annotation.counts())
    assert stats.avg_rhymed_fraction == 0.1


@given(st.lists(st.floats(0, 1), min_size=1, max_size=40), st.data())
def test_rhyme_stats_merged_in_any_order_hold_the_exact_mean(fractions, data):
    one, merged = fold_and_merge(RhymeStats, [(f > 0, f, 0, 1) for f in fractions], data)
    assert merged == one
    assert merged.avg_rhymed_fraction == float(sum(map(Fraction, fractions)) / len(fractions))
