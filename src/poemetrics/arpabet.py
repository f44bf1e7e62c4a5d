"""ARPAbet pronouncing dictionary: parsing, stress, syllables, rhyming parts.

Reads the plain-text CMU dictionary format: ";;;" comment lines, entries of
the form "WORD  PH ON EMES", alternate pronunciations as "WORD(1)". Vowel
phonemes carry a stress digit (0 none, 1 primary, 2 secondary). A compact
dictionary covering the bundled fixtures ships with the package; the loader
also reads the full published file.
"""

from __future__ import annotations

import logging
import re
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

# hashlib maps OpenSSL's libcrypto, megabytes of resident memory, to hash one file; the
# interpreter's builtin SHA-256 (_sha2 from Python 3.12, _sha256 before) gives the same digest.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

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


def _shared_variant(phones: list[str], shared: dict[str, str]) -> Variant | None:
    """phones as a variant, or None if one is malformed (see _valid_phoneme).

    shared maps each phone already found well formed to the one string that
    every variant holds for it, and gains these phones when they all are, so
    that a load checks each distinct phone once and keeps one copy of it.
    """
    try:
        return tuple(map(shared.__getitem__, phones))
    except KeyError:
        if not all(map(_valid_phoneme, phones)):
            return None
        return tuple(map(shared.setdefault, phones, phones))


class StressMemo(dict):
    """A dictionary's stress memo: each token asked about, by its stress string.

    Reading a token it lacks stores and returns score(token, dictionary), as the
    one equal string in dictionary.stress_strings, so a token is scored once
    and every later read is one probe. score is meter's stress rule, set when
    poemetrics.meter is imported. The memo refers to its dictionary weakly,
    so a run's copy of the dictionary is freed as soon as the run drops it.
    """

    __slots__ = ("dictionary",)
    score: Callable[[str, PronouncingDictionary], str]

    def __init__(self, dictionary: PronouncingDictionary):
        super().__init__()
        self.dictionary = weakref.ref(dictionary)

    def __missing__(self, token: str) -> str:
        dictionary = self.dictionary()
        stress = self.score(token, dictionary)
        stress = self[token] = dictionary.stress_strings.setdefault(stress, stress)
        return stress


@dataclass(frozen=True)
class PronouncingDictionary:
    """Word -> pronunciation variants, keyed case-insensitively.

    The memo tables map each token asked about, known or not, to its rhyme
    parts (None when unknown) and stress string (StressMemo, which fills
    itself); stress_strings holds one copy of each distinct stress string,
    which every token with that string shares. A scoring run fills those of
    its own dataclasses.replace copy, which shares entries and starts empty;
    so does a pickled copy. Threads may fill them at once without a lock: a
    race stores equal values.
    """

    entries: dict[str, tuple[Variant, ...]]
    source_sha256: str
    skipped_lines: int = 0
    rhyme_part_memo: dict[str, frozenset[Variant] | None] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    stress_memo: StressMemo = field(init=False, repr=False, compare=False)
    stress_strings: dict[str, str] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stress_memo", StressMemo(self))

    def __reduce__(self):
        return type(self), (self.entries, self.source_sha256, self.skipped_lines)

    def lookup(self, word: str) -> tuple[Variant, ...]:
        """All pronunciation variants for a word; empty tuple if missing."""
        return self.entries.get(word.lower(), ())

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def words(self) -> list[str]:
        return sorted(self.entries)


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
    shared: dict[str, str] = {}
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
        variant = _shared_variant(phones, shared) if word else None
        if variant is None:
            skipped += 1
            continue
        entries.setdefault(word.lower(), []).append(variant)
    if skipped:
        logger.warning("%s: skipped %d malformed dictionary lines", path, skipped)
    return PronouncingDictionary(
        entries={w: tuple(vs) for w, vs in entries.items()},
        source_sha256=_sha256(data).hexdigest(),
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
