from __future__ import annotations

import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from poemetrics.corpus import Corpus, PoemRecord
from poemetrics.lexstats import (
    DEFAULT_TOUCHSTONE_GROUPS,
    PRONOUN_CATEGORIES,
    first_word_logodds,
    fold_pronouns,
    load_stopwords,
    logodds,
    pronoun_profile,
    tokenize,
    touchstone_coverage,
)

from conftest import LIMERICK, make_corpus
from kernel_oracles import tokenize_reference
from logodds_oracle import oracle_first_word_scores, oracle_scores


# --- tokenize --------------------------------------------------------------

def test_tokenize_quoted_line():
    assert tokenize("In May we stand strong, hearts ablaze,") == (
        "in", "may", "we", "stand", "strong", "hearts", "ablaze")


def test_tokenize_keeps_internal_apostrophes():
    assert tokenize("who've") == ("who've",)
    assert tokenize("war's smoky haze") == ("war's", "smoky", "haze")


def test_tokenize_trims_edge_apostrophes():
    assert tokenize("'tis the day'") == ("tis", "the", "day")


def test_tokenize_empty():
    assert tokenize("") == ()


def test_tokenize_digits_and_punctuation():
    assert tokenize("line 42! (yes)") == ("line", "42", "yes")


def test_tokenize_reads_capital_dotted_i_as_i():
    assert tokenize("\u0130stanbul") == ("istanbul",)


def test_tokenize_reads_curly_apostrophes_as_straight():
    assert tokenize("don\u2019t") == ("don't",)
    assert tokenize("don\u02bct") == ("don't",)
    assert tokenize("the world\u2019s") == ("the", "world's")


@given(st.text(alphabet="ab \u00e9\u00df0_'\u2019\u02bc-.", max_size=40))
def test_tokenize_is_unchanged_by_straightening_curly_apostrophes(text):
    assert tokenize(text) == tokenize(text.replace("\u2019", "'").replace("\u02bc", "'"))


def test_tokenize_equals_per_token_lowering_around_every_changing_code_point():
    changing = [chr(i) for i in range(sys.maxunicode + 1)
                if not 0xD800 <= i <= 0xDFFF and chr(i).lower() != chr(i)]
    assert len(changing) > 1000
    for c in changing:
        for text in (c, f"a{c}a", f"A{c}B", f"a'{c}", f"{c}'a"):
            assert tokenize(text) == tokenize_reference(text), text


@pytest.mark.parametrize("text", ["\u0391\u03a3.\u0392", "\u0391\u03a3\u0301\u0392",
                                  "\u0391\u03a3'\u0392", "\u0391\u03a3_\u0392"])
def test_capital_sigma_lowers_as_in_its_own_token(text):
    # Lowered whole, "\u0391\u03a3.\u0392" would give a medial sigma: "\u0392" is past the dot.
    assert tokenize(text) == tokenize_reference(text)


@given(st.text(alphabet="aZ9 .,'_-\u2019\u02bc\u0391\u03a3\u03c3\u03c2\u0392\u0130\u0301\u0307",
               max_size=40))
@example("\u0391\u03a3.\u0392")
def test_tokenize_equals_per_token_reference(text):
    assert tokenize(text) == tokenize_reference(text)


@given(st.text(max_size=200))
@example("\u0130")
def test_tokenize_idempotent_on_joined_output(text):
    once = tokenize(text)
    again = tokenize(" ".join(once))
    assert once == again
    for token in once:
        assert token == token.lower()
        assert not token.startswith("'") and not token.endswith("'")
        assert token.strip() == token and token != ""


# --- pronouns ---------------------------------------------------------------

def test_pronoun_categories_are_disjoint():
    seen = {}
    for category, words in PRONOUN_CATEGORIES.items():
        for word in words:
            assert word not in seen, f"{word} in both {seen.get(word)} and {category}"
            seen[word] = category


def test_limerick_first_plural_rate():
    corpus = make_corpus([LIMERICK])
    profile = pronoun_profile(corpus)
    assert profile.total_tokens == 30
    assert profile.counts["first_plural"] == 5
    assert profile.per_100_words["first_plural"] == pytest.approx(16.67, abs=0.01)


def test_no_pronouns_gives_zero():
    profile = pronoun_profile(make_corpus(["golden morning sun"]))
    assert all(v == 0.0 for v in profile.per_100_words.values())


def test_subject_exclusion():
    records = (
        PoemRecord(id="a", text="we sing", source="human", subject="holiday"),
        PoemRecord(id="b", text="i walk alone", source="human", subject="nature"),
    )
    corpus = Corpus(label="t", records=records)
    profile = pronoun_profile(corpus, exclude_subjects={"holiday"})
    assert profile.counts["first_plural"] == 0
    assert profile.counts["first_singular"] == 1


def test_excluding_every_subject_is_an_error():
    records = (
        PoemRecord(id="a", text="we sing", source="human", subject="holiday"),
    )
    with pytest.raises(ValueError, match="exclusion"):
        pronoun_profile(Corpus(label="t", records=records), exclude_subjects={"holiday"})


def test_per_poem_mean_differs_from_pooled():
    corpus = make_corpus(["we we we we", "the morning light grows golden slowly"])
    pooled = pronoun_profile(corpus)
    per_poem = pronoun_profile(corpus, per_poem=True)
    assert pooled.per_100_words["first_plural"] == pytest.approx(40.0)
    assert per_poem.per_100_words["first_plural"] == pytest.approx(50.0)


# --- weighted log-odds -------------------------------------------------------

DOCS_A = [
    ("the", "river", "sings", "a", "golden", "song"),
    ("a", "golden", "dream", "of", "the", "river"),
    ("whisper", "of", "the", "golden", "dawn"),
]
DOCS_B = [
    ("the", "night", "is", "cold", "and", "dark"),
    ("dark", "night", "of", "the", "storm"),
    ("a", "cold", "wind", "in", "the", "night"),
]


def _corpus_from_docs(docs, label):
    return make_corpus([" ".join(tokens) for tokens in docs], label=label)


def test_logodds_matches_frozen_oracle_values():
    # Values computed with the rational-arithmetic oracle (logodds_oracle).
    results = {
        r.word: r
        for r in logodds(
            _corpus_from_docs(DOCS_A, "a"), _corpus_from_docs(DOCS_B, "b"),
            min_docs=2, remove_stopwords=False,
        )
    }
    assert set(results) == {"a", "cold", "dark", "golden", "night", "of", "river", "the"}
    assert results["golden"].z_score == pytest.approx(0.5242951269751575, abs=1e-12)
    assert results["night"].z_score == pytest.approx(-0.5242951269751575, abs=1e-12)
    assert results["river"].z_score == pytest.approx(0.42338027916072857, abs=1e-12)
    assert results["the"].z_score == 0.0
    assert results["golden"].doc_freq_a == 3
    assert results["golden"].doc_freq_b == 0


def _random_docs(rng, pool, max_docs=8):
    return [
        tuple(rng.choice(pool) for _ in range(rng.randint(3, 14)))
        for _ in range(rng.randint(2, max_docs))
    ]


WORD_POOL = [
    "sun", "moon", "star", "night", "day", "river", "stone", "gold",
    "dream", "song", "wind", "rain", "fire", "light", "dark", "sea",
    "leaf", "bird", "cold", "warm", "silver", "storm", "dawn", "dusk",
]


def test_logodds_matches_oracle_on_random_pairs():
    rng = random.Random(20240901)
    checked = 0
    while checked < 100:
        docs_a = _random_docs(rng, WORD_POOL)
        docs_b = _random_docs(rng, WORD_POOL)
        min_docs = rng.randint(1, 3)
        try:
            expected = oracle_scores(docs_a, docs_b, min_docs)
        except (ValueError, ZeroDivisionError):
            continue
        if len(expected) < 2:
            continue
        results = logodds(
            _corpus_from_docs(docs_a, "a"), _corpus_from_docs(docs_b, "b"),
            min_docs=min_docs, remove_stopwords=False,
        )
        assert {r.word for r in results} == set(expected)
        for r in results:
            delta, variance, z = expected[r.word]
            assert abs(r.delta - delta) <= 1e-9
            assert abs(r.variance - variance) <= 1e-9
            assert abs(r.z_score - z) <= 1e-9
        checked += 1


def test_logodds_antisymmetry_is_exact():
    rng = random.Random(5150)
    for _ in range(25):
        a = _corpus_from_docs(_random_docs(rng, WORD_POOL), "a")
        b = _corpus_from_docs(_random_docs(rng, WORD_POOL), "b")
        forward = {r.word: r.z_score for r in logodds(a, b, 1, remove_stopwords=False)}
        backward = {r.word: r.z_score for r in logodds(b, a, 1, remove_stopwords=False)}
        assert set(forward) == set(backward)
        for word, z in forward.items():
            assert backward[word] == -z


def test_identical_corpora_give_zero_z():
    a = _corpus_from_docs(DOCS_A, "a")
    b = _corpus_from_docs(DOCS_A, "b")
    for r in logodds(a, b, min_docs=1, remove_stopwords=False):
        assert r.z_score == 0.0
        assert r.delta == 0.0


def test_min_docs_filters_vocabulary():
    a = _corpus_from_docs(DOCS_A, "a")
    b = _corpus_from_docs(DOCS_B, "b")
    words = {r.word for r in logodds(a, b, min_docs=6, remove_stopwords=False)}
    assert words == {"the"}


def test_empty_vocabulary_is_an_error():
    a = make_corpus(["only the and of"], label="a")
    b = make_corpus(["the of and so"], label="b")
    with pytest.raises(ValueError, match="vocabulary"):
        logodds(a, b, min_docs=1, remove_stopwords=True)


def test_stopwords_removed_by_default():
    a = _corpus_from_docs(DOCS_A, "a")
    b = _corpus_from_docs(DOCS_B, "b")
    words = {r.word for r in logodds(a, b, min_docs=1)}
    assert "the" not in words
    assert "golden" in words


def test_per_poem_pronoun_rates_add_left_to_right():
    # Ten poems at 0.1 first-singular per 100 words; sum() of floats rounds
    # their total to 1.0 from Python 3.12 on.
    profile = fold_pronouns([(1000, 1, 0, 0, 0, 0, 0)] * 10, per_poem=True)
    assert profile.per_100_words["first_singular"] == 0.09999999999999999


def test_stopword_list_is_loaded():
    stop = load_stopwords()
    assert {"the", "and", "of", "a"} <= stop
    assert 120 <= len(stop) <= 250


def test_ranking_stable_under_poem_duplication():
    # Stability holds for words present in BOTH corpora: their variances
    # scale uniformly under duplication. Words with a zero count on one
    # side have variance pinned by the fixed prior term and can legitimately
    # cross in rank, so they are excluded here.
    rng = random.Random(77)
    for _ in range(20):
        docs_a = _random_docs(rng, WORD_POOL)
        docs_b = _random_docs(rng, WORD_POOL)
        a = _corpus_from_docs(docs_a, "a")
        b = _corpus_from_docs(docs_b, "b")
        a2 = _corpus_from_docs(docs_a + docs_a, "a2")
        b2 = _corpus_from_docs(docs_b + docs_b, "b2")
        base = logodds(a, b, min_docs=1, remove_stopwords=False)
        in_both = {
            r.word for r in base if r.doc_freq_a >= 1 and r.doc_freq_b >= 1
        }
        doubled = {r.word: r.z_score for r in logodds(a2, b2, min_docs=1,
                                                      remove_stopwords=False)}
        eligible = [r for r in base if r.word in in_both]
        for i, first in enumerate(eligible):
            for second in eligible[i + 1:]:
                if abs(first.z_score - second.z_score) > 1e-6:
                    assert doubled[first.word] > doubled[second.word]


# --- first words -------------------------------------------------------------

def test_first_word_frozen_oracle_values():
    # 12-poem synthetic corpora; values computed with the oracle.
    firsts_a = ["in"] * 5 + ["upon"] * 4 + ["the"] * 3
    firsts_b = ["the"] * 6 + ["a"] * 4 + ["in"] * 2
    a = make_corpus([f"{w} golden morning" for w in firsts_a], label="a")
    b = make_corpus([f"{w} silver evening" for w in firsts_b], label="b")
    results = first_word_logodds(a, b, min_docs=2)
    assert [r.word for r in results] == ["in", "upon", "a", "the"]
    by_word = {r.word: r for r in results}
    assert by_word["in"].z_score == pytest.approx(1.5195293876700362, abs=1e-12)
    assert by_word["upon"].z_score == pytest.approx(0.5549746487399232, abs=1e-12)
    assert by_word["the"].z_score == pytest.approx(-1.5514136613631306, abs=1e-12)
    expected = oracle_first_word_scores(firsts_a, firsts_b, min_docs=2)
    for r in results:
        assert abs(r.z_score - expected[r.word][2]) <= 1e-9


def test_first_word_identical_corpora_zero():
    a = make_corpus(["in the morning", "upon a hill"], label="a")
    b = make_corpus(["in the evening", "upon a stone"], label="b")
    for r in first_word_logodds(a, b, min_docs=1):
        assert r.z_score == 0.0


def test_first_word_retains_stopwords():
    a = make_corpus(["the golden day", "the silver day"], label="a")
    b = make_corpus(["a golden day", "a silver day"], label="b")
    words = {r.word for r in first_word_logodds(a, b, min_docs=1)}
    assert words == {"the", "a"}


# --- touchstones -------------------------------------------------------------

def test_touchstone_prefix_match():
    corpus = make_corpus(["the whispers fade", "a shout rings out"])
    echo_whisper = touchstone_coverage(corpus)[1]
    assert echo_whisper.patterns == ("echo*", "whisper*")
    assert echo_whisper.poems_matched == 1
    assert echo_whisper.pct == 50.0


def test_touchstone_exact_match_does_not_prefix():
    corpus = make_corpus(["graceful dancers turn"])
    results = touchstone_coverage(corpus)
    assert results[0].patterns == ("dance", "dreams", "embrace", "grace")
    assert results[0].poems_matched == 0


def test_touchstone_absent_group_is_zero():
    corpus = make_corpus(["plain words here"])
    results = touchstone_coverage(corpus)
    assert len(results) == len(DEFAULT_TOUCHSTONE_GROUPS)
    assert all(r.pct == 0.0 for r in results)


def test_touchstone_single_poem_full_coverage():
    corpus = make_corpus(["soft whispers in the hall"])
    results = touchstone_coverage(corpus)
    assert results[1].pct == 100.0
