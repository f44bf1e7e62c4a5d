"""Oracles for analyze's fast path.

analyze scores each poem once and folds every (corpus, style) table row
from those per-poem results, with each end word's rhyme parts and each
token's stress memoized on the run's copy of the dictionary. Each line is
tokenized once, and pronoun, touchstone and log-odds counts come from those
tokens. These tests rebuild the rows and the per-word results with plain
loops over the reference functions, or with the library functions that
tokenize each poem whole, and require exact equality. The duplicate-id
check, which keeps id hashes, must report what a set of the id strings finds.
"""

from __future__ import annotations

import io
import json
import random
import sys
import tempfile
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from poemetrics import cli
from poemetrics.arpabet import load_bundled_dictionary, load_dictionary, rhyme_part, stress_pattern
from poemetrics.cli import main
from poemetrics.corpus import (EXPECTED_FORM_LENGTHS, Corpus, PoemRecord,
                               load_corpus, strip_prefatory)
from poemetrics.lexstats import (
    PRONOUN_CATEGORIES,
    first_word_logodds,
    load_stopwords,
    logodds,
    pronoun_profile,
    tokenize,
    touchstone_coverage,
)
from poemetrics.meter import (
    UnscannableError,
    _stress_digits,
    corpus_meter_stats,
    estimate_syllables,
    iambic_score,
    scan_poem,
)
from poemetrics.rhyme import annotate_rhymes, corpus_rhyme_stats, end_word
from poemetrics.structure import parse_structure, summarize_lengths

from conftest import DATA_DIR, make_corpus

STYLES = ("sonnet", "haiku", "free verse", "ballad", None)
VOWEL_LESS = ("qzz", "xvv", "brr", "tsk", "pfft", "hmm")
PRONOUNS = ("i", "we", "you", "thou", "she", "his", "they", "it", "our", "me",
            "we'll", "I’m", "you're", "it's", "let's", "we''d")
# Touchstone members and prefix matches, and tokens the tokenizer must keep whole.
LEXICAL_PROBES = ("grace", "dance", "dreams", "echoes", "whispering", "embraced",
                  "don’t", "o'er", "naïve", "1914", "café")


def _random_poem(rng: random.Random, words: list[str]) -> str:
    if rng.random() < 0.1:  # unscannable: vowel-less unknown words only
        return "\n".join(
            " ".join(rng.choice(VOWEL_LESS) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))
        )
    rhymes = rng.sample(words, 3)
    stanzas = []
    for _ in range(rng.randint(1, 4)):
        lines = []
        for _ in range(rng.choice((1, 2, 3, 4, 4, 5, 6))):
            body = [rng.choice(words + list(PRONOUNS)) for _ in range(rng.randint(1, 7))]
            end = rng.choice(rhymes) if rng.random() < 0.6 else rng.choice(words)
            lines.append(" ".join([*body, end]).capitalize())
        stanzas.append("\n".join(lines))
    return "\n\n".join(stanzas)


def _write_corpus(path, rng, words, n):
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            record = {"id": f"p{i}", "text": _random_poem(rng, words), "source": "human"}
            style = rng.choice(STYLES)
            if style is not None:
                record["style"] = style
            handle.write(json.dumps(record) + "\n")


def _pronoun_head(token: str) -> str:
    """The word a token counts as among pronouns: the part before its first apostrophe
    when what follows that is m, re, ve, ll, d or s ("we'll" is "we"), else the token."""
    head, _, tail = token.partition("'")
    return head if tail in ("m", "re", "ve", "ll", "d", "s") else token


def _exact_mean(values) -> float:
    """The mean of values, exactly, rounded once to a float."""
    return float(sum(map(Fraction, values)) / len(values))


def _reference_rows(corpus: Corpus, dictionary) -> dict[str, list[dict]]:
    """Every per-group table row of one corpus, rebuilt poem by poem."""
    groups = [("ALL", corpus.records)]
    groups += [(s, [r for r in corpus.records if r.style == s]) for s in corpus.styles()]
    if any(r.style is None for r in corpus.records):
        groups.append(("(none)", [r for r in corpus.records if r.style is None]))
    tables: dict[str, list[dict]] = {n: [] for n in ("lengths", "quatrains", "rhyme", "meter",
                                                     "pronouns")}
    for style, records in groups:
        key = {"source": corpus.label, "style": style}
        s = summarize_lengths([parse_structure(r).line_count for r in records])
        tables["lengths"].append({
            **key, "poems": s.count, "median": s.median, "q1": s.q1, "q3": s.q3,
            "whisker_low": s.whisker_low, "whisker_high": s.whisker_high,
            "outlier_count": len(s.outliers),
        })

        with_quatrain = stanzas = quatrains = 0
        with_rhyme = flagged = lines = 0
        fractions, scores = [], []
        dominant = unscannable = tokens = 0
        pronouns = {c: 0 for c in PRONOUN_CATEGORIES}
        for record in records:
            poem = parse_structure(record)
            hits = sum(1 for size in poem.stanza_sizes if size == 4)
            stanzas += len(poem.stanza_sizes)
            quatrains += hits
            with_quatrain += hits > 0

            annotation = annotate_rhymes(poem, dictionary)
            with_rhyme += bool(annotation.schemes)
            fractions.append(annotation.rhymed_fraction)
            flagged += sum(annotation.rhymed_line_flags)
            lines += len(annotation.rhymed_line_flags)

            try:
                verdict = iambic_score(poem, dictionary)
            except UnscannableError:
                unscannable += 1
            else:
                scores.append(verdict.iambic_score)
                dominant += verdict.dominant

            words = tokenize(record.text)
            tokens += len(words)
            for category, members in PRONOUN_CATEGORIES.items():
                pronouns[category] += sum(1 for w in words if _pronoun_head(w) in members)

        n = len(records)
        tables["quatrains"].append({
            **key, "poems": n, "poems_with_quatrain": with_quatrain,
            "poems_with_quatrain_pct": 100.0 * with_quatrain / n,
            "stanzas": stanzas, "quatrain_stanzas": quatrains,
            "quatrain_stanza_pct": 100.0 * quatrains / stanzas,
        })
        tables["rhyme"].append({
            **key, "poems": n, "poems_with_rhyme_pct": 100.0 * with_rhyme / n,
            "avg_rhymed_fraction": _exact_mean(fractions),
            "pooled_rhymed_fraction": flagged / lines,
        })
        scanned = n - unscannable
        tables["meter"].append({
            **key, "poems": n,
            "pct_dominant_iambic": 100.0 * dominant / scanned if scanned else 0.0,
            "mean_iambic_score": _exact_mean(scores) if scores else 0.0,
            "unscannable_poems": unscannable,
        })
        tables["pronouns"].append({
            **key, "tokens": tokens,
            **{c: 100.0 * k / tokens if tokens else 0.0 for c, k in pronouns.items()},
        })
    return tables


@pytest.mark.parametrize("seed,threads,chunk_poems", [
    pytest.param(1, 1, None, id="1-1"),
    pytest.param(2, 2, None, id="2-2"),
    pytest.param(3, 1, None, id="3-1"),
    # Chunks of 7 poems end inside each 80-poem corpus and its style groups.
    pytest.param(4, 1, 7, id="4-1-chunks-of-7"),
    pytest.param(5, 3, 7, id="5-3-chunks-of-7"),
])
def test_analyze_rows_equal_per_poem_reference(tmp_path, monkeypatch, seed, threads,
                                               chunk_poems):
    if chunk_poems:
        monkeypatch.setattr(cli, "_CHUNK_POEMS", chunk_poems)
    rng = random.Random(seed)
    dictionary = load_bundled_dictionary()
    words = rng.sample(dictionary.words(), 300)
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        _write_corpus(path, rng, words, 80)
    out = tmp_path / "out"
    assert main(["analyze", *map(str, paths), "--out", str(out), "--format", "json",
                 "--threads", str(threads)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))

    expected: dict[str, list[dict]] = {}
    for path in paths:
        corpus = load_corpus(path)
        records = tuple(
            strip_prefatory(r, EXPECTED_FORM_LENGTHS.get(r.style or "")) for r in corpus.records
        )
        for name, rows in _reference_rows(Corpus(corpus.label, records), dictionary).items():
            expected.setdefault(name, []).extend(rows)
    for name, rows in expected.items():
        assert report["tables"][name] == rows, name
    meter_rows = [r for r in expected["meter"] if r["style"] == "ALL"]
    assert all(r["unscannable_poems"] > 0 for r in meter_rows)


def _loaded(path) -> Corpus:
    """A corpus as the CLI sees it, prefatory lines stripped."""
    corpus = load_corpus(path)
    records = tuple(
        strip_prefatory(r, EXPECTED_FORM_LENGTHS.get(r.style or "")) for r in corpus.records
    )
    return Corpus(corpus.label, records)


def _lexical_reference(a: Corpus, b: Corpus, min_docs: int) -> dict[str, list[dict]]:
    """The lexical table rows, from the library functions that tokenize each poem whole."""
    tables: dict[str, list[dict]] = {"pronouns": [], "touchstones": []}
    for corpus in (a, b):
        groups = [("ALL", corpus.records)]
        groups += [(s, [r for r in corpus.records if r.style == s]) for s in corpus.styles()]
        if any(r.style is None for r in corpus.records):
            groups.append(("(none)", [r for r in corpus.records if r.style is None]))
        for style, records in groups:
            profile = pronoun_profile(Corpus(corpus.label, tuple(records)))
            tables["pronouns"].append({
                "source": corpus.label, "style": style, "tokens": profile.total_tokens,
                **{c: profile.per_100_words[c] for c in sorted(PRONOUN_CATEGORIES)},
            })
        tables["touchstones"] += [
            {"source": corpus.label, "group": " ".join(c.patterns),
             "poems_matched": c.poems_matched, "poems": c.poem_count, "pct": c.pct}
            for c in touchstone_coverage(corpus)
        ]
    for name, results in (("logodds", logodds(a, b, min_docs)),
                          ("first_words", first_word_logodds(a, b, min_docs))):
        tables[name] = [
            {"word": r.word, "delta": r.delta, "variance": r.variance, "z": r.z_score,
             "doc_freq_a": r.doc_freq_a, "doc_freq_b": r.doc_freq_b}
            for r in results
        ]
    return tables


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lexical_rows_equal_whole_poem_reference(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    dictionary = load_bundled_dictionary()
    words = rng.sample(dictionary.words(), 300) + list(LEXICAL_PROBES)
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        _write_corpus(path, rng, words, 80)
    expected = _lexical_reference(*map(_loaded, paths), min_docs=3)
    assert all(expected.values())
    assert any(r["poems_matched"] for r in expected["touchstones"])
    runs = {
        "analyze-1": (["analyze", "--compare", "--threads", "1"], expected),
        "analyze-2": (["analyze", "--compare", "--threads", "2"], expected),
        "compare": (["compare"], {n: expected[n] for n in ("logodds", "first_words")}),
        "lexstats": (["lexstats"], {n: expected[n] for n in ("pronouns", "touchstones")}),
        # Chunks of 7 poems end inside each 80-poem corpus and its style groups.
        "analyze-1-chunks-of-7": (["analyze", "--compare", "--threads", "1"], expected),
        "analyze-3-chunks-of-7": (["analyze", "--compare", "--threads", "3"], expected),
    }
    for name, (command, want) in runs.items():
        if name.endswith("chunks-of-7"):
            monkeypatch.setattr(cli, "_CHUNK_POEMS", 7)
        out = tmp_path / name
        assert main([command[0], *map(str, paths), *command[1:], "--out", str(out),
                     "--format", "json", "--min-docs", "3"]) == 0
        tables = json.loads((out / "report.json").read_text(encoding="utf-8"))["tables"]
        for table, rows in want.items():
            assert tables[table] == rows, (name, table)


PROBE_WORDS = (
    "qzz", "florbix", "zyxwvut", "don’t", "world’s", "o’er",
    "naïve", "café", "straße", "déjà", "Day", "WHISPER", "don't",
)


def _reference_parts(dictionary, word):
    parts = set()
    for variant in dictionary.lookup(word):
        try:
            parts.add(rhyme_part(variant))
        except ValueError:
            pass
    return frozenset(parts)


def _reference_stress(dictionary, word):
    variants = dictionary.lookup(word)
    if not variants:
        return "?" * estimate_syllables(word)
    pattern = stress_pattern(variants[0])
    return "x" if len(pattern) == 1 else pattern.replace("2", "1")


def _memo_parts(dictionary, word):
    """What annotate_rhymes memoizes for an end word: its reference parts, None when unknown."""
    return _reference_parts(dictionary, word) if dictionary.lookup(word) else None


def test_memoized_word_work_equals_uncached_reference():
    dictionary = load_bundled_dictionary()
    assert not dictionary.rhyme_part_memo and not dictionary.stress_memo
    words = [*dictionary.words(), *PROBE_WORDS]
    poem = parse_structure("\n".join(words))
    ends = set(filter(None, map(end_word, poem.lines)))
    stress = "".join(_reference_stress(dictionary, w) for w in words)
    annotations = []
    for state in ("cold", "warm"):
        for word in words:
            assert _stress_digits((word,), dictionary) == _reference_stress(dictionary, word), (
                state, word)
        assert _stress_digits(words, dictionary) == stress, state
        annotations.append(annotate_rhymes(poem, dictionary))
        assert dictionary.rhyme_part_memo == {w: _memo_parts(dictionary, w) for w in ends}, state
    assert annotations[0] == annotations[1]
    assert annotations[0].oov_end_words == tuple(sorted(w for w in ends if w not in dictionary))
    assert dictionary.stress_memo == {w: _reference_stress(dictionary, w) for w in words}
    assert len(dictionary.stress_memo) == len(set(words)) > len(dictionary)
    # Equal stress strings are one object, so the memo holds each distinct string once.
    distinct = set(dictionary.stress_memo.values())
    assert len(set(map(id, dictionary.stress_memo.values()))) == len(distinct)
    assert dictionary.stress_strings == {s: s for s in distinct}
    assert not replace(dictionary).stress_strings


def test_memo_filled_by_racing_threads_matches_reference():
    dictionary = load_bundled_dictionary()
    words = [*dictionary.words(), *PROBE_WORDS]
    stress = {w: _reference_stress(dictionary, w) for w in words}

    def check(offset):
        shifted = words[offset:] + words[:offset]
        poem = parse_structure("\n".join(shifted))
        return (all(_stress_digits((w,), dictionary) == stress[w] for w in shifted)
                and annotate_rhymes(poem, dictionary) == annotate_rhymes(poem, replace(dictionary)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(check, 97 * i) for i in range(8)]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    ends = set(filter(None, map(end_word, words)))
    assert dictionary.rhyme_part_memo == {w: _memo_parts(dictionary, w) for w in ends}
    assert dictionary.stress_memo == stress
    assert len(dictionary.stress_memo) == len(set(words)) > len(dictionary)


def test_scoring_leaves_the_given_dictionary_memos_empty(tmp_path, monkeypatch):
    dictionary = load_bundled_dictionary()
    rng = random.Random(7)
    known = rng.sample(dictionary.words(), 50)
    texts = ["\n".join(" ".join(rng.choice(known + ["florbix", "qzz"]) for _ in range(6))
                       for _ in range(4))
             for _ in range(20)]
    corpus = make_corpus(texts)
    corpus_rhyme_stats(corpus, dictionary)
    corpus_meter_stats(corpus, dictionary)
    assert not dictionary.rhyme_part_memo and not dictionary.stress_memo

    loaded = []
    monkeypatch.setattr(cli, "load_dictionary",
                        lambda path: loaded.append(load_dictionary(path)) or loaded[-1])
    paths = [str(DATA_DIR / "fixture_human.jsonl"), str(DATA_DIR / "fixture_gpt.jsonl")]
    for threads in ("1", "2"):
        assert main(["analyze", *paths, "--threads", threads,
                     "--out", str(tmp_path / threads)]) == 0
    assert len(loaded) == 2
    assert all(not d.rhyme_part_memo and not d.stress_memo for d in loaded)


# Dictionary words and nonce words: non-ASCII, mixed case, trailing digits, curly apostrophes.
_MEMO_WORDS = st.one_of(
    st.sampled_from(("whisper", "upon", "day", "the", "shadows", "delight", "murmuring",
                     "don’t", "o’er", "naïve", "café", "qzz")),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzéöñçøİ’'", min_size=1, max_size=9),
).flatmap(lambda w: st.sampled_from((w, w.upper(), w.capitalize())))
_MEMO_TOKENS = st.tuples(_MEMO_WORDS, st.sampled_from(("", "", "7", "1914", "’s"))).map("".join)
_MEMO_POEMS = st.lists(st.lists(_MEMO_TOKENS, min_size=1, max_size=8).map(" ".join),
                       min_size=1, max_size=6).map("\n".join)


@given(st.lists(_MEMO_POEMS, min_size=1, max_size=6))
def test_run_stress_memo_equals_fresh_memo_and_reference(dictionary, texts):
    # The session dictionary is warm with every word earlier examples and tests asked about.
    for text in texts:
        poem = parse_structure(text)
        fresh = replace(dictionary)
        assert scan_poem(poem, dictionary) == scan_poem(poem, fresh)
        annotation = annotate_rhymes(poem, dictionary)
        assert annotation == annotate_rhymes(poem, fresh)
        ends = set(filter(None, annotation.end_words))
        assert fresh.rhyme_part_memo == {w: _memo_parts(dictionary, w) for w in ends}
        for tokens in poem.tokens:
            reference = "".join(_reference_stress(dictionary, w) for w in tokens)
            assert _stress_digits(tokens, dictionary) == reference
        assert fresh.stress_memo == {w: _reference_stress(dictionary, w) for w in fresh.stress_memo}


def test_each_run_scores_with_its_own_dictionary(tmp_path):
    # "florbix" is 10 in one dictionary and ?? in the other; "upon" is 01 in both.
    with_word, without_word = tmp_path / "with.dict", tmp_path / "without.dict"
    with_word.write_text("UPON  AH0 P AA1 N\nFLORBIX  F L AO1 R B IH0 K S\n", encoding="utf-8")
    without_word.write_text("UPON  AH0 P AA1 N\n", encoding="utf-8")
    texts = ["upon florbix", "Florbix upon\nupon florbix"]
    expected = {with_word: (0.5, 0.0), without_word: (0.75, 100.0)}
    corpus = make_corpus(texts)
    for path in (with_word, without_word, with_word):
        stats = corpus_meter_stats(corpus, load_dictionary(path))
        assert (stats.mean_iambic_score, stats.pct_dominant_iambic) == expected[path], path

    corpus_path = tmp_path / "poems.jsonl"
    corpus_path.write_text("".join(json.dumps({"id": f"p{i}", "text": t, "source": "human"}) + "\n"
                                   for i, t in enumerate(texts)), encoding="utf-8")
    for run, path in enumerate((with_word, without_word, with_word)):
        out = tmp_path / f"out-{run}"
        assert main(["meter", str(corpus_path), "--dict", str(path), "--out", str(out),
                     "--format", "json"]) == 0
        row = json.loads((out / "report.json").read_text(encoding="utf-8"))["tables"]["meter"][0]
        assert (row["mean_iambic_score"], row["pct_dominant_iambic"]) == expected[path], path


# The fixture poems, and one that cannot be scanned, for corpora drawn below.
_FOLD_TEXTS = (*(r.text for name in ("fixture_human.jsonl", "fixture_gpt.jsonl")
                 for r in load_corpus(DATA_DIR / name)), "Qzz brr\ntsk pfft")
_FOLD_CORPORA = st.lists(
    st.lists(st.tuples(st.sampled_from(_FOLD_TEXTS), st.sampled_from(STYLES)),
             min_size=1, max_size=12),
    min_size=1, max_size=3,
).map(lambda corpora: [
    Corpus(name=f"c{i}", label=f"c{i}", records=tuple(
        PoemRecord(id=f"c{i}-{j}", text=text, source="human", style=style)
        for j, (text, style) in enumerate(poems)))
    for i, poems in enumerate(corpora)
])


def _spooled_text(spool, chunks, i) -> str:
    """The --per-poem text of corpus i's chunks, from their files in spool, in chunk order."""
    parts = []
    for k, (j, _) in enumerate(chunks):
        if j == i:
            with open(cli._spool_file(spool, k), encoding="utf-8", newline="") as handle:
                parts.append(handle.read())
    return "".join(parts)


@given(corpora=_FOLD_CORPORA, size=st.integers(1, 5), data=st.data())
def test_merged_process_folds_equal_one_fold(dictionary, corpora, size, data):
    # However the chunks are shared among processes, claimed and merged, the merged totals
    # are the in-process fold's, and the chunks' --per-poem lines in chunk order are its.
    families = ("structure", "rhyme", "meter", "lexstats")
    compared = data.draw(st.integers(0, min(2, len(corpora))), label="compared")
    analysis = cli.AnalysisSettings(min_docs=1, alpha_total=None, iambic_threshold=0.75,
                                    heatmap_rows=6, heatmap_cols=20, strip_prefatory=True,
                                    top_k=15)
    with tempfile.TemporaryDirectory() as spool, tempfile.TemporaryDirectory() as shared:
        # In chunks of size poems too, so that its --per-poem lines are spooled across chunks.
        with mock.patch.object(cli, "_CHUNK_POEMS", size):
            (expected, expected_grids, expected_counted), chunks = cli._score_corpora(
                corpora, families, dictionary, analysis, spool, compared, 1)
        assert chunks == cli._chunks(corpora, size)
        expected_text = [_spooled_text(spool, chunks, i) for i in range(len(corpora))]
        processes = data.draw(st.integers(1, 4), label="processes")
        owners = data.draw(st.lists(st.integers(0, processes - 1), min_size=len(chunks),
                                    max_size=len(chunks)), label="owners")
        run = (corpora, families, replace(dictionary), analysis, shared, compared,
               load_stopwords() if compared else frozenset())
        folds = []
        for p in range(processes):
            claims = data.draw(st.permutations([k for k, owner in enumerate(owners)
                                                if owner == p]), label=f"claims of {p}")
            folds.append(cli._fold_chunks(run, chunks, claims))
        folds = data.draw(st.permutations(folds), label="merge order")
        (totals, parts), rest = folds[0], folds[1:]
        for their_totals, their_parts in rest:
            cli._merge_totals(totals, their_totals)
            parts.update(their_parts)
        groups, grids, counted = totals
        # _Group, WordCounts and the stats dataclasses compare field by field, sums by ==.
        assert (groups, counted) == (expected, expected_counted)
        cli._check_input(corpora, chunks, parts)
        assert [_spooled_text(shared, chunks, i) for i in range(len(corpora))] == expected_text
    assert [(g.poems, g.cells) for g in grids] == [(g.poems, g.cells) for g in expected_grids]


@given(st.lists(st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), max_size=6),
                max_size=4),
       st.integers(1, 4))
def test_repeats_is_a_set_of_every_hash(columns, bucket):
    # Buckets of 1 to 4 hashes part even a few hashes among several sets.
    values = [value for column in columns for value in column]
    with mock.patch.object(cli, "_BUCKET_POEMS", bucket):
        found = cli._repeats([array("q", column) for column in columns], len(values))
    assert found == (len(set(values)) < len(values))


@st.composite
def _id_corpora(draw):
    """Up to three corpora of ids p0, p1, ..., in each up to two ids copied to later poems."""
    corpora = []
    for n in draw(st.lists(st.integers(1, 8), min_size=1, max_size=3), label="sizes"):
        ids = [f"p{j}" for j in range(n)]
        for _ in range(draw(st.integers(0, 2 if n > 1 else 0), label="duplicates")):
            first, later = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                                unique=True)))
            ids[later] = ids[first]
        corpora.append(ids)
    return corpora


def _first_duplicate_error(paths, corpora) -> str:
    """The error line for the first repeated id, by a set of the id strings: corpora in
    order, in each the first id already seen; empty when no id repeats."""
    for path, ids in zip(paths, corpora):
        seen = set()
        for poem_id in ids:
            if poem_id in seen:
                return f"error: duplicate poem id {poem_id!r} in corpus {Path(path).stem!r}\n"
            seen.add(poem_id)
    return ""


@settings(max_examples=30, deadline=None)
@given(corpora=_id_corpora(), threads=st.integers(1, 3), bucket=st.integers(1, 3))
def test_duplicate_id_error_equals_a_string_set_reference(corpora, threads, bucket):
    # Chunks of one poem put a duplicate and its first copy in chunks that any process may
    # claim. A constant hash makes every id collide, so each corpus is read again and
    # checked by its id strings.
    with tempfile.TemporaryDirectory() as work:
        paths = []
        for i, ids in enumerate(corpora):
            path = Path(work) / f"c{i}.jsonl"
            path.write_text("".join(json.dumps({"id": poem_id, "text": "one\ntwo", "source": "human"})
                                    + "\n" for poem_id in ids), encoding="utf-8")
            paths.append(str(path))
        expected = _first_duplicate_error(paths, corpora)
        reports = []
        for name, id_hash in (("real", hash), ("constant", lambda poem_id: 0)):
            out = Path(work) / name
            with (mock.patch.object(cli, "_CHUNK_POEMS", 1),
                  mock.patch.object(cli, "_BUCKET_POEMS", bucket),
                  mock.patch.object(cli, "_id_hash", id_hash),
                  redirect_stderr(io.StringIO()) as err):
                code = main(["analyze", *paths, "--per-poem", "--threads", str(threads),
                             "--out", str(out)])
            assert (code, err.getvalue()) == (1 if expected else 0, expected), name
            reports.append({str(f.relative_to(out)): f.read_bytes()
                            for f in sorted(out.rglob("*")) if f.is_file()})
        assert reports[0] == reports[1]
        assert ("report.json" in reports[0]) != bool(expected)
