"""ARPAbet pronouncing dictionary: parsing, stress, syllables, rhyming parts.

Reads the plain-text CMU dictionary format: ";;;" comment lines, entries of
the form "WORD  PH ON EMES", alternate pronunciations as "WORD(1)". Vowel
phonemes carry a stress digit (0 none, 1 primary, 2 secondary). A compact
dictionary covering the bundled fixtures ships with the package; the loader
also reads the full published file.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

logger = logging.getLogger(__name__)

VOWELS = frozenset(
    {"AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER",
     "EY", "IH", "IY", "OW", "OY", "UH", "UW"}
)

_PHONE_RE = re.compile(r"^([A-Z]{1,3})([0-2])?$")

Variant = tuple[str, ...]


def base_phone(phoneme: str) -> str:
    """The phoneme symbol with any stress digit removed."""
    return phoneme.rstrip("012")


def is_vowel(phoneme: str) -> bool:
    return base_phone(phoneme) in VOWELS


def stress_digit(phoneme: str) -> str | None:
    """The stress digit of a vowel phoneme, None for consonants."""
    if phoneme and phoneme[-1] in "012":
        return phoneme[-1]
    return None


def _valid_phoneme(phoneme: str) -> bool:
    m = _PHONE_RE.match(phoneme)
    if not m:
        return False
    symbol, digit = m.groups()
    if symbol in VOWELS:
        return digit is not None
    return digit is None


def _valid_phones(phones: list[str], valid: set[str]) -> bool:
    """Whether every phone is well formed (see _valid_phoneme).

    valid holds the phones already found well formed, and gains these when
    they all are, so that a load checks each distinct phone once.
    """
    if valid.issuperset(phones):
        return True
    if all(map(_valid_phoneme, phones)):
        valid.update(phones)
        return True
    return False


@dataclass(frozen=True)
class PronouncingDictionary:
    """Word -> pronunciation variants, keyed case-insensitively.

    The memo tables map each token asked about, known or not, to its rhyme
    parts (None when unknown) and stress string. A scoring run fills those of
    its own dataclasses.replace copy, which shares entries and starts empty.
    Threads may fill them at once without a lock: a race stores equal values.
    """

    entries: dict[str, tuple[Variant, ...]]
    source_sha256: str
    skipped_lines: int = 0
    rhyme_part_memo: dict[str, frozenset[Variant] | None] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    stress_memo: dict[str, str] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def lookup(self, word: str) -> tuple[Variant, ...]:
        """All pronunciation variants for a word; empty tuple if missing."""
        return self.entries.get(word.lower(), ())

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def words(self) -> list[str]:
        return sorted(self.entries)

    def syllable_counts(self, word: str) -> tuple[int, ...]:
        """Vowel-phoneme count per variant; empty tuple for missing words."""
        return tuple(
            sum(1 for p in variant if is_vowel(p)) for variant in self.lookup(word)
        )


_VARIANT_KEY_RE = re.compile(r"^(.*)\((\d+)\)$")


def _decode(data: bytes) -> str:
    # utf-8-sig drops a leading byte order mark, which str.strip keeps.
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return data.decode("latin-1")


def load_dictionary(path: str | Path) -> PronouncingDictionary:
    """Parse a CMU-format dictionary file.

    Malformed lines are skipped and counted; one warning summarizes them.
    """
    path = Path(path)
    data = path.read_bytes()
    text = _decode(data)
    entries: dict[str, list[Variant]] = {}
    skipped = 0
    valid: set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(";;;"):
            continue
        parts = line.split()
        if len(parts) < 2:
            skipped += 1
            continue
        word, phones = parts[0], parts[1:]
        m = _VARIANT_KEY_RE.match(word)
        if m:
            word = m.group(1)
        if not word or not _valid_phones(phones, valid):
            skipped += 1
            continue
        entries.setdefault(word.lower(), []).append(tuple(phones))
    if skipped:
        logger.warning("%s: skipped %d malformed dictionary lines", path, skipped)
    return PronouncingDictionary(
        entries={w: tuple(vs) for w, vs in entries.items()},
        source_sha256=hashlib.sha256(data).hexdigest(),
        skipped_lines=skipped,
    )


def bundled_dictionary_path() -> Path:
    return Path(str(resources.files("poemetrics.data").joinpath("cmudict_subset.dict")))


def load_bundled_dictionary() -> PronouncingDictionary:
    """Load the compact dictionary shipped with the package."""
    return load_dictionary(bundled_dictionary_path())


def rhyme_part(variant: Variant) -> Variant:
    """Phoneme suffix from the last stressed vowel to the end.

    Uses the last vowel with primary or secondary stress; if a variant has
    no stressed vowel, falls back to its last vowel. Raises ValueError for
    vowel-free variants.
    """
    last_vowel = None
    for i in range(len(variant) - 1, -1, -1):
        phoneme = variant[i]
        if is_vowel(phoneme):
            if stress_digit(phoneme) in ("1", "2"):
                return tuple(variant[i:])
            if last_vowel is None:
                last_vowel = i
    if last_vowel is None:
        raise ValueError(f"no syllabic nucleus in {' '.join(variant) or '<empty>'!r}")
    return tuple(variant[last_vowel:])


def stress_pattern(variant: Variant) -> str:
    """One stress digit per vowel, in order; empty for vowel-free variants."""
    return "".join(stress_digit(p) or "0" for p in variant if is_vowel(p))
