from __future__ import annotations

import hashlib
import os
import random
import string
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from poemetrics import arpabet
from poemetrics.arpabet import (
    VOWELS,
    _shared_variant,
    bundled_dictionary_path,
    is_vowel,
    load_dictionary,
    rhyme_part,
    stress_pattern,
)

from kernel_oracles import phone_reference


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


def test_digest_of_the_bundled_dictionary_is_its_sha256(dictionary):
    assert dictionary.source_sha256 == hashlib.sha256(
        bundled_dictionary_path().read_bytes()).hexdigest()


@given(st.binary(max_size=300) | st.text(alphabet="AHBEY012 ;\n\r\ufeff\u00e9", max_size=60)
       .map(str.encode))
def test_digest_of_any_dictionary_file_is_its_sha256(data):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "drawn.dict"
        path.write_bytes(data)
        assert load_dictionary(path).source_sha256 == hashlib.sha256(data).hexdigest()


def test_digest_comes_from_the_builtin_sha256_of_this_python():
    # Python 3.12 merged _sha256 into _sha2; hashlib would map OpenSSL's libcrypto.
    assert arpabet._sha256.__module__ == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")


FALLBACK_DIGEST = """
import hashlib
import sys

sys.modules["_sha2"] = sys.modules["_sha256"] = None  # as a build without them
from poemetrics import arpabet

assert arpabet._sha256 is hashlib.sha256
print(arpabet.load_bundled_dictionary().source_sha256)
"""


def test_digest_without_a_builtin_sha256_falls_back_to_hashlib(dictionary):
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", FALLBACK_DIGEST],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == dictionary.source_sha256 + "\n"


def test_bundled_entries(dictionary):
    assert dictionary.lookup("haze") == (("HH", "EY1", "Z"),)
    assert len(dictionary.lookup("read")) == 2
    assert dictionary.source_sha256


def test_bundled_entries_equal_an_independent_parse_with_one_string_per_phone():
    expected: dict[str, list] = {}
    for line in bundled_dictionary_path().read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith(";;;"):
            key, *phones = line.split()
            expected.setdefault(key.split("(")[0].lower(), []).append(tuple(phones))
    loaded = load_dictionary(bundled_dictionary_path())
    assert loaded.entries == {word: tuple(variants) for word, variants in expected.items()}
    assert loaded.skipped_lines == 0
    phones = [p for variants in loaded.entries.values() for v in variants for p in v]
    assert len({id(p) for p in phones}) == len(set(phones))


def test_a_pickled_or_copied_dictionary_has_its_entries_and_empty_memos():
    import copy
    import pickle

    from poemetrics import meter  # noqa: F401  (sets the stress memo's scoring rule)

    loaded = load_dictionary(bundled_dictionary_path())
    assert loaded.stress_memo["florbix"] == "??" and loaded.stress_memo["day"] == "x"
    for other in (pickle.loads(pickle.dumps(loaded)), copy.copy(loaded), copy.deepcopy(loaded)):
        assert other == loaded and not other.stress_memo and not other.stress_strings
        assert other.stress_memo["day"] == "x" and list(other.stress_memo) == ["day"]
    assert list(loaded.stress_memo) == ["florbix", "day"]


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
        for variant in dictionary.lookup(word):
            assert len(stress_pattern(variant)) == sum(map(is_vowel, variant))


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


def test_memoized_phone_check_agrees_with_the_phone_rule():
    symbols = ["".join(p) for n in (1, 2, 3) for p in product(string.ascii_uppercase, repeat=n)]
    phones = [s + d for s in symbols for d in ("", "0", "1", "2")]
    phones += ["AH3", "ah0", "B1", "ABCD", "", "AH01", "1", "AH 0", "\u0391H0"]
    warm: dict[str, str] = {}
    for phone in phones:
        expected = phone_reference(phone)
        assert (_shared_variant([phone], {}) is not None) is expected, phone
        assert (_shared_variant([phone], warm) is not None) is expected, phone
        assert (phone in warm) is expected
        # Answered from the memo when valid, with the phone object it holds.
        again = _shared_variant([phone], warm)
        assert (again is not None) is expected
        assert again is None or again[0] is warm[phone]
    assert _shared_variant(["AH0", "AH3"], warm) is None


def test_load_skips_each_line_with_a_bad_phone_after_good_ones(tmp_path):
    path = tmp_path / "mini.dict"
    path.write_text("A  AH0\nB  B IY1\nC  S AH3\nD  D IY1\nE  B1 IY1\nF  ABCD\n")
    d = load_dictionary(path)
    assert sorted(d.entries) == ["a", "b", "d"]
    assert d.skipped_lines == 3
