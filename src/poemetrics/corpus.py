"""Poem/corpus data model and loaders for JSON Lines, CSV, and text directories.

The canonical interchange format is JSON Lines with one object per line and
the fields (id, text, source, style, subject, template, title); the CSV and
directory loaders normalize into the same records. Unknown fields are
ignored. A leading UTF-8 byte order mark is dropped, and line endings are
normalized CRLF -> LF at load time; text is otherwise preserved byte-exactly.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

# Closed style vocabulary for generated poems: eight fixed forms, nine
# unfixed forms, six formal elements (three meters, three stanza forms),
# plus the generic "a poem".
CANONICAL_STYLES = (
    "a poem",
    "ars poetica",
    "aubade",
    "ballad",
    "blank verse",
    "common measure",
    "couplet",
    "ekphrasis",
    "elegy",
    "free verse",
    "ghazal",
    "haiku",
    "limerick",
    "monologue",
    "ode",
    "pantoum",
    "pastoral",
    "prose poem",
    "quatrain",
    "sestina",
    "sonnet",
    "tercet",
    "villanelle",
    "visual poetry",
)

TEMPLATE_NAMES = ("general", "figurative", "specific")

# Conventional lengths for forms with fixed line counts, used when stripping
# prefatory material from over-long poems.
EXPECTED_FORM_LENGTHS = {
    "sonnet": 14,
    "villanelle": 19,
    "sestina": 39,
    "limerick": 5,
}

_MODEL_SOURCE_PREFIX = "model:"
_KNOWN_SOURCES = ("human", "gpt35", "gpt4")


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid poem records."""


def is_generated_source(source: str) -> bool:
    """True for model-generated sources (anything but "human")."""
    return source != "human"


def _validate_source(source: str) -> None:
    if source in _KNOWN_SOURCES:
        return
    if source.startswith(_MODEL_SOURCE_PREFIX) and len(source) > len(_MODEL_SOURCE_PREFIX):
        return
    raise CorpusError(
        f"unknown source {source!r}: expected 'human', 'gpt35', 'gpt4', or 'model:<name>'"
    )


@dataclass(frozen=True)
class PoemRecord:
    """One poem with provenance labels. Immutable after construction."""

    id: str
    text: str
    source: str
    style: str | None = None
    subject: str | None = None
    template: str | None = None
    title: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("poem id must be a non-empty string")
        if not self.text.rstrip():
            raise CorpusError(f"poem {self.id!r}: text is empty")
        _validate_source(self.source)
        if is_generated_source(self.source):
            if self.template is None:
                raise CorpusError(
                    f"poem {self.id!r}: generated source {self.source!r} requires a template"
                )
            if self.style not in CANONICAL_STYLES:
                raise CorpusError(
                    f"poem {self.id!r}: style {self.style!r} is not one of the "
                    f"{len(CANONICAL_STYLES)} canonical generated-poem styles"
                )
        elif self.template is not None:
            raise CorpusError(
                f"poem {self.id!r}: template is only valid for generated sources"
            )
        if self.template is not None and self.template not in TEMPLATE_NAMES:
            raise CorpusError(
                f"poem {self.id!r}: unknown template {self.template!r}"
            )

    def to_json_dict(self) -> dict:
        out = {"id": self.id, "text": self.text, "source": self.source}
        for key in ("style", "subject", "template", "title"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of poems with a display label."""

    label: str
    records: tuple[PoemRecord, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for record in self.records:
            if record.id in seen:
                raise CorpusError(f"duplicate poem id {record.id!r} in corpus {self.label!r}")
            seen.add(record.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def styles(self) -> list[str]:
        """Distinct style labels present, sorted; None is excluded."""
        return sorted({r.style for r in self.records if r.style is not None})


def _normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n")


_FIELDS = ("id", "text", "source", "style", "subject", "template", "title")
_NOT_TEXT = {bool: "true or false", list: "an array", dict: "an object"}


def _not_utf8(path: Path) -> CorpusError:
    """The error for a corpus that is not UTF-8, naming the file and line of its first bad byte."""
    for file in sorted(path.glob("*.txt")) if path.is_dir() else [path]:
        data = file.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            return CorpusError(f"{file}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8")


def _record_from_mapping(
    raw: dict,
    where: str,
    fallback_id: str,
    default_source: str | None,
    default_style: str | None,
) -> PoemRecord:
    values = {"id": fallback_id, "source": default_source, "style": default_style}
    for key in _FIELDS:
        value = raw.get(key)
        if type(value) in _NOT_TEXT:
            raise CorpusError(f"{where}: field {key!r} must be a string or a number, "
                              f"not {_NOT_TEXT[type(value)]}")
        if value is not None and value != "":
            values[key] = str(value)  # as a CSV cell reads: a JSON number becomes its text
    if "text" not in values:
        raise CorpusError(f"{where}: missing required field 'text'")
    if not values["source"]:
        raise CorpusError(f"{where}: missing required field 'source'")
    values["text"] = _normalize_newlines(values["text"])
    try:
        return PoemRecord(**values)
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from exc


def load_corpus(
    path: str | Path,
    format: str | None = None,
    *,
    default_source: str | None = None,
    default_style: str | None = None,
) -> Corpus:
    """Load a corpus from a JSON Lines file, a CSV file, or a directory of .txt files.

    format is one of "json-lines", "csv", "directory-of-text-files"; when
    None it is inferred from the path (directory, .csv suffix, else JSONL).
    Fields are read as strings, as CSV cells are. Malformed records and bytes
    that are not UTF-8 raise CorpusError naming the file and line.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus path does not exist: {path}")
    if format is None:
        if path.is_dir():
            format = "directory-of-text-files"
        elif path.suffix.lower() == ".csv":
            format = "csv"
        else:
            format = "json-lines"

    try:
        if format == "json-lines":
            records = _load_jsonl(path, default_source, default_style)
        elif format == "csv":
            records = _load_csv(path, default_source, default_style)
        elif format == "directory-of-text-files":
            records = _load_directory(path, default_source, default_style)
        else:
            raise CorpusError(f"unknown corpus format {format!r}")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return Corpus(label=path.stem or str(path), records=tuple(records))


def _load_jsonl(path: Path, default_source, default_style) -> list[PoemRecord]:
    records = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(raw, dict):
                raise CorpusError(f"{path}: line {lineno}: record is not a JSON object")
            records.append(
                _record_from_mapping(
                    raw, f"{path}: line {lineno}", f"{path.stem}-{lineno:04d}",
                    default_source, default_style,
                )
            )
    return records


def _load_csv(path: Path, default_source, default_style) -> list[PoemRecord]:
    records = []
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "text" not in reader.fieldnames:
            raise CorpusError(f"{path}: CSV header row with a 'text' column is required")
        for index, row in enumerate(reader, start=1):
            where = f"{path}: row {index}"
            records.append(
                _record_from_mapping(
                    row, where, f"{path.stem}-{index:04d}", default_source, default_style
                )
            )
    return records


def _load_directory(path: Path, default_source, default_style) -> list[PoemRecord]:
    if default_source is None:
        raise CorpusError(
            f"{path}: loading a directory of text files requires a default source"
        )
    records = []
    for file in sorted(path.glob("*.txt")):
        text = _normalize_newlines(file.read_text(encoding="utf-8-sig"))
        try:
            records.append(
                PoemRecord(id=file.stem, text=text, source=default_source, style=default_style)
            )
        except CorpusError as exc:
            raise CorpusError(f"{file}: {exc}") from exc
    return records


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as canonical JSON Lines (UTF-8, one object per line)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for record in corpus.records:
            handle.write(json.dumps(record.to_json_dict(), ensure_ascii=False))
            handle.write("\n")


_MONTHS = (
    "january|february|march|april|may|june|july|august|september|october|november|december"
)
# A "bare date" line: a year, a numeric date, or a month-name date that
# includes at least one number.
_DATE_PATTERNS = (
    re.compile(r"^\d{3,4}$"),
    re.compile(r"^\d{1,2}[./-]\d{1,2}(?:[./-]\d{2,4})?$"),
    re.compile(rf"^(?:{_MONTHS})\.?\s+\d{{1,2}}(?:,?\s+\d{{2,4}})?$", re.IGNORECASE),
    re.compile(rf"^(?:{_MONTHS})\.?,?\s+\d{{2,4}}$", re.IGNORECASE),
    re.compile(rf"^\d{{1,2}}\s+(?:{_MONTHS})\.?(?:,?\s+\d{{2,4}})?$", re.IGNORECASE),
)


def _looks_prefatory(line: str) -> bool:
    stripped = line.strip()
    if stripped.endswith(":"):
        return True
    if stripped.lower().startswith(("for ", "after ")):
        return True
    return any(p.match(stripped) for p in _DATE_PATTERNS)


def strip_prefatory(poem: PoemRecord, expected_lines: int | None = None) -> PoemRecord:
    """Drop leading dedication/date/epigraph-style lines from an over-long poem.

    Only applies when the poem exceeds expected_lines by at most 10 non-blank
    lines. Leading lines are removed while they match a prefatory heuristic
    (a line ending in a colon, a line starting "for " or "after ", or a bare
    date) until the expected length is reached or no heuristic matches.
    Deterministic and idempotent; never removes lines from a poem at or
    under expected_lines.
    """
    if expected_lines is None:
        return poem
    lines = poem.text.split("\n")
    nonblank = sum(1 for l in lines if l.strip())
    if nonblank <= expected_lines or nonblank - expected_lines > 10:
        return poem
    changed = False
    while nonblank > expected_lines:
        # Skip over leading blank lines to the first content line.
        first = 0
        while first < len(lines) and not lines[first].strip():
            first += 1
        if first >= len(lines) or not _looks_prefatory(lines[first]):
            break
        del lines[: first + 1]
        nonblank -= 1
        changed = True
    if not changed:
        return poem
    # Drop any blank lines left stranded at the top.
    while lines and not lines[0].strip():
        del lines[0]
    return replace(poem, text="\n".join(lines))
