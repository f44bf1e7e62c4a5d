"""The per-token and per-line scoring kernels against their frozen references.

annotate_rhymes tests each line pair of its windows once, and pronoun,
touchstone and word counts read a poem's distinct tokens once; word counts
take every token and drop the stopwords once per fold. Each must give what
the plainer implementation in kernel_oracles gives.
"""

from __future__ import annotations

from hypothesis import example, given, strategies as st

from poemetrics.lexstats import (
    DEFAULT_TOUCHSTONE_GROUPS,
    PRONOUN_CATEGORIES,
    WordCounts,
    load_stopwords,
    pronoun_counts,
    tokenize,
    touchstone_hits,
)
from poemetrics.rhyme import annotate_rhymes
from poemetrics.structure import PoemStructure

from kernel_oracles import (
    annotate_rhymes_reference,
    pronoun_counts_reference,
    touchstone_hits_reference,
    word_counts_reference,
)

# End words in shared rhyme classes, unknown words, and ones that are all digits.
_RHYME_CLASSES = (("day", "way", "say", "away", "delay"), ("night", "light", "delight"),
                  ("sea", "free", "me"), ("fire", "desire"))
_END_WORDS = st.sampled_from((*(w for words in _RHYME_CLASSES for w in words),
                              "zzyzzx", "florbix", "naïve", "world’s", "qzz", "1914", "7"))
# Lines end in a few words drawn per poem, so that windows often rhyme; some lines are
# punctuation only, with no end word.
_LINES = st.lists(_END_WORDS, min_size=1, max_size=3).flatmap(lambda ends: st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("", "the ", "upon a ", "we saw the ")), st.sampled_from(ends),
                  st.sampled_from(("", ",", ".", "!"))).map("".join),
        st.sampled_from(("--", "...", "* * *", "'")),
    ),
    max_size=40,
))


@given(_LINES)
@example(["the day", "the night", "the way,", "delight"])  # ABAB: no other window binds line 3
@example(["day", "sea", "free", "away", "--", "1914", "we saw the fire", "desire!"])
def test_annotate_rhymes_equals_reference(dictionary, lines):
    poem = PoemStructure(lines=tuple(lines), stanza_sizes=(len(lines),) if lines else (),
                         line_count=len(lines))
    try:
        expected = annotate_rhymes_reference(poem, dictionary)
    except ZeroDivisionError:  # a poem of no lines has no rhymed fraction
        expected = ZeroDivisionError
    try:
        found = annotate_rhymes(poem, dictionary)
    except ZeroDivisionError:
        found = ZeroDivisionError
    assert found == expected
    if expected is not ZeroDivisionError:
        assert found.to_json_dict() == expected.to_json_dict()


# Pronouns with and without contractions, touchstone words and prefixes, stopwords, others.
_TOKENS = st.one_of(
    st.sampled_from(("we", "We'll", "we’re", "us", "our", "i", "I'm", "me", "you've",
                     "thou", "she's", "his", "they'd", "it's", "let's", "we''d", "o'er")),
    st.sampled_from(("embrace", "embraced", "grace", "dance", "dreams", "echo", "echoes",
                     "reechoed", "whisper", "whispering", "whisp", "ECHO")),
    st.sampled_from(("the", "and", "of", "a", "is", "not")),
    st.text(alphabet="aeiouwhspé'", min_size=1, max_size=6),
)
_POEM_TOKENS = st.lists(_TOKENS, max_size=30).map(" ".join).map(tokenize)


@given(_POEM_TOKENS)
def test_pronoun_counts_and_touchstone_hits_equal_reference(tokens):
    pronouns = pronoun_counts_reference(tokens, PRONOUN_CATEGORIES)
    touchstones = touchstone_hits_reference(tokens, DEFAULT_TOUCHSTONE_GROUPS)
    assert pronoun_counts(tokens) == pronoun_counts(tokens, set(tokens)) == pronouns
    assert touchstone_hits(tokens) == touchstone_hits(tokens, set(tokens)) == touchstones


@given(poems=st.lists(_POEM_TOKENS, max_size=12), data=st.data())
def test_word_counts_folded_in_processes_equal_reference(poems, data):
    # Each process counts its poems and drops its stopwords once; any merge order.
    stopwords = load_stopwords()
    owners = data.draw(st.lists(st.integers(0, 2), min_size=len(poems), max_size=len(poems)),
                       label="owners")
    folds = []
    for p in range(3):
        counted = WordCounts(stopwords)
        for tokens, owner in zip(poems, owners):
            if owner == p:
                with_set = data.draw(st.booleans(), label="with its set")
                counted.add(tokens, set(tokens) if with_set else None)
        counted.drop_stopwords()
        folds.append(counted)
    merged, *rest = data.draw(st.permutations(folds), label="merge order")
    for other in rest:
        merged.update(other)
    counts, doc_freq, firsts = word_counts_reference(poems, stopwords)
    assert (merged.counts, merged.doc_freq, merged.firsts) == (counts, doc_freq, firsts)
    # Equal key sets as well: no stopword or zero count is left.
    assert (merged.counts.keys(), merged.doc_freq.keys()) == (counts.keys(), doc_freq.keys())
