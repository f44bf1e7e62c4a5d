from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from poemetrics.arpabet import (
    VOWELS,
    is_vowel,
    load_dictionary,
    rhyme_part,
    stress_pattern,
)


def test_parses_simple_entry(tmp_path):
    path = tmp_path / "mini.dict"
    path.write_text(";;; comment\nHAZE  HH EY1 Z\n")
    d = load_dictionary(path)
    assert d.lookup("haze") == (("HH", "EY1", "Z"),)


def test_variant_lines_group_under_base_word(tmp_path):
    path = tmp_path / "mini.dict"
    path.write_text("READ  R EH1 D\nREAD(1)  R IY1 D\n")
    d = load_dictionary(path)
    assert d.lookup("read") == (("R", "EH1", "D"), ("R", "IY1", "D"))


def test_comment_only_file_is_empty(tmp_path):
    path = tmp_path / "mini.dict"
    path.write_text(";;; nothing here\n;;; still nothing\n")
    d = load_dictionary(path)
    assert len(d) == 0
    assert d.lookup("anything") == ()


def test_malformed_lines_skipped_and_counted(tmp_path, caplog):
    path = tmp_path / "mini.dict"
    path.write_text("GOOD  G UH1 D\nBADLINE\nWORSE  Q9 X\n")
    with caplog.at_level("WARNING"):
        d = load_dictionary(path)
    assert d.skipped_lines == 2
    assert "skipped 2" in caplog.text
    assert "good" in d


def test_latin1_bytes_tolerated(tmp_path):
    path = tmp_path / "latin.dict"
    path.write_bytes(b";;; caf\xe9 comment\nHAZE  HH EY1 Z\n")
    assert load_dictionary(path).lookup("haze") == (("HH", "EY1", "Z"),)


def test_leading_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "bom.dict"
    data = "\ufeffDAY  D EY1\nWAY  W EY1\n".encode("utf-8")
    path.write_bytes(data)
    d = load_dictionary(path)
    assert d.words() == ["day", "way"]
    assert d.lookup("day") == (("D", "EY1"),)
    assert d.source_sha256 == hashlib.sha256(data).hexdigest()


def test_bundled_entries(dictionary):
    assert dictionary.lookup("haze") == (("HH", "EY1", "Z"),)
    assert len(dictionary.lookup("read")) == 2
    assert dictionary.source_sha256


def test_lookup_case_insensitive(dictionary):
    assert dictionary.lookup("HAZE") == dictionary.lookup("haze")
    assert "Praise" in dictionary


def test_rhyme_part_examples(dictionary):
    assert rhyme_part(("AH0", "B", "L", "EY1", "Z")) == ("EY1", "Z")
    assert rhyme_part(("P", "R", "EY1", "Z")) == ("EY1", "Z")
    # unstressed variant falls back to the last vowel
    assert rhyme_part(("DH", "AH0")) == ("AH0",)


def test_rhyme_part_vowel_free_is_an_error():
    with pytest.raises(ValueError, match="no syllabic nucleus"):
        rhyme_part(("HH", "M"))


def test_stress_pattern_examples(dictionary):
    assert stress_pattern(dictionary.lookup("upon")[0]) == "01"
    assert stress_pattern(dictionary.lookup("whisper")[0]) == "10"
    assert stress_pattern(("HH", "M")) == ""


def test_syllable_counts(dictionary):
    assert dictionary.syllable_counts("embrace") == (2,)
    assert dictionary.syllable_counts("a") == (1, 1)
    assert dictionary.syllable_counts("echoing") == (3,)
    assert dictionary.syllable_counts("notaword") == ()


def test_rhyme_part_is_suffix_for_all_entries(dictionary):
    for word in dictionary.words():
        for variant in dictionary.lookup(word):
            try:
                part = rhyme_part(variant)
            except ValueError:
                continue
            assert variant[len(variant) - len(part):] == part
            assert is_vowel(part[0])


def test_stress_length_equals_syllable_count(dictionary):
    for word in dictionary.words():
        counts = dictionary.syllable_counts(word)
        patterns = [stress_pattern(v) for v in dictionary.lookup(word)]
        assert tuple(len(p) for p in patterns) == counts


def test_stress_digits_only_on_vowels(dictionary):
    for word in dictionary.words():
        for variant in dictionary.lookup(word):
            for phoneme in variant:
                if phoneme[-1] in "012":
                    assert phoneme.rstrip("012") in VOWELS
                else:
                    assert phoneme not in VOWELS


@given(st.sampled_from(sorted("abcdefghijklmnopqrstuvwxyz")))
def test_missing_single_letters_miss_cleanly(dictionary, letter):
    looked = dictionary.lookup(letter * 7)
    assert looked == ()


def test_random_words_uppercase_lookup_matches(dictionary):
    rng = random.Random(7)
    words = dictionary.words()
    for word in rng.sample(words, 200):
        assert dictionary.lookup(word.upper()) == dictionary.lookup(word)
