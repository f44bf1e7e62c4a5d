"""Poem/corpus data model and loaders for JSON Lines, CSV, and text directories.

The canonical interchange format is JSON Lines with one object per line and
the fields (id, text, source, style, subject, template, title); the CSV and
directory loaders normalize into the same records. Unknown fields are
ignored. A leading UTF-8 byte order mark is dropped, and line endings are
normalized CRLF -> LF at load time; text is otherwise preserved byte-exactly.
open_corpus gives a reader of chunks of a corpus, which for JSON Lines holds
only an index of the record lines; load_corpus reads that reader whole.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, replace
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


@dataclass
class Corpus:
    """An ordered collection of poems with a display label.

    name is the path it was read from, as given. A corpus that open_corpus
    read up to a fault holds its records up to it, and the fault counts as
    one more record, which read raises in that record's place. Ids are not
    checked here (see check_unique_ids).
    """

    label: str
    records: tuple[PoemRecord, ...]
    fault: CorpusError | None = None
    name: str = ""

    def __len__(self) -> int:
        return len(self.records) + (self.fault is not None)

    def __iter__(self):
        return iter(self.records)

    def read(self, span: slice) -> Iterator[PoemRecord]:
        """The records of span, and then the fault if span reaches it."""
        first, stop, _ = span.indices(len(self))
        yield from self.records[first:stop]
        if stop > len(self.records):
            raise self.fault

    def styles(self) -> list[str]:
        """Distinct style labels present, sorted; None is excluded."""
        return sorted({r.style for r in self.records if r.style is not None})


def check_unique_ids(records, label: str) -> None:
    """Raise CorpusError naming the corpus label at the first repeated id of records."""
    seen: set[str] = set()
    for record in records:
        if record.id in seen:
            raise CorpusError(f"duplicate poem id {record.id!r} in corpus {label!r}")
        seen.add(record.id)


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
            # Lines end at LF, CRLF or a lone CR, as _text_lines splits them.
            ends = data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start)
            line = ends - data.count(b"\r\n", 0, exc.start) + 1
            return CorpusError(f"{file}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8")


# The fields whose values recur across records: each is interned, so a distinct value is
# kept once however many records hold it.
_LABELS = frozenset(("source", "style", "subject", "template"))


class _Rows:
    """What the records of one file share: the start of their error locations, such as
    "<path>: line", the stem of their fallback ids, and the default source and style."""

    __slots__ = ("where", "stem", "default_source", "default_style")

    def __init__(self, path: Path, unit: str, default_source, default_style):
        self.where, self.stem = f"{path}: {unit}", path.stem
        self.default_source, self.default_style = default_source, default_style


def _record_from_mapping(raw: dict, n: int, rows: _Rows) -> PoemRecord:
    """The record of row or line n of a file; without an id its id is "<stem>-<n:04d>"."""
    values = {"source": rows.default_source, "style": rows.default_style}
    for key in _FIELDS:
        value = raw.get(key)
        if value is None or value == "":
            continue
        if type(value) is not str:
            if type(value) in _NOT_TEXT:
                raise CorpusError(f"{rows.where} {n}: field {key!r} must be a string or a "
                                  f"number, not {_NOT_TEXT[type(value)]}")
            value = str(value)  # as a CSV cell reads: a JSON number becomes its text
        values[key] = sys.intern(value) if key in _LABELS else value
    if "text" not in values:
        raise CorpusError(f"{rows.where} {n}: missing required field 'text'")
    if not values["source"]:
        raise CorpusError(f"{rows.where} {n}: missing required field 'source'")
    if "id" not in values:
        values["id"] = f"{rows.stem}-{n:04d}"
    values["text"] = _normalize_newlines(values["text"])
    try:
        return PoemRecord(**values)
    except CorpusError as exc:
        raise CorpusError(f"{rows.where} {n}: {exc}") from exc


_FORMATS = ("json-lines", "csv", "directory-of-text-files")


def _format(path: Path, format: str | None) -> str:
    """format, or the format inferred from the path (directory, .csv suffix, else JSONL)."""
    if not path.exists():
        raise CorpusError(f"corpus path does not exist: {path}")
    if format is None:
        if path.is_dir():
            return "directory-of-text-files"
        return "csv" if path.suffix.lower() == ".csv" else "json-lines"
    if format not in _FORMATS:
        raise CorpusError(f"unknown corpus format {format!r}")
    return format


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
    Fields are read as strings, as CSV cells are. This is open_corpus's
    reader read whole, so it raises the CorpusError that reading it raises
    (naming the file and line of a malformed record or a byte that is not
    UTF-8), then one for the first repeated id.
    """
    corpus = open_corpus(path, format, default_source=default_source,
                         default_style=default_style)
    records = tuple(corpus.read(slice(None)))
    check_unique_ids(records, corpus.label)
    return Corpus(corpus.label, records, name=corpus.name)


# A JSON Lines index keeps where every this-many-th record's line starts. The fold reads
# chunks of a multiple of 100 records (cli._CHUNK_POEMS), each starting at one.
_INDEX_BLOCK = 100


class JsonLinesIndex:
    """A JSON Lines corpus read a chunk of records at a time (see open_corpus).

    It holds the record count and, for every _INDEX_BLOCK-th record, where
    its line starts (a byte offset) and that line's number, not the records:
    read parses only the lines of the span asked for. name is the path as
    given.
    """

    def __init__(self, name: str, label: str, path: Path, rows: _Rows):
        self.name, self.label, self.path, self.rows = name, label, path, rows
        self.count, self.starts, self.linenos = _index_jsonl(path)

    def __len__(self) -> int:
        return self.count

    def read(self, span: slice) -> Iterator[PoemRecord]:
        """The records of span, parsed one at a time as they are taken.

        Reading starts at the last indexed record at or before the span's
        first, and passes over the records in between without parsing them.
        """
        first, stop, _ = span.indices(len(self))
        if first >= stop:
            return iter(())
        block, skip = divmod(first, _INDEX_BLOCK)
        return _read_jsonl(self.path, self.rows, self.starts[block], self.linenos[block],
                           skip, stop - first)


def open_corpus(
    path: str | Path,
    format: str | None = None,
    *,
    default_source: str | None = None,
    default_style: str | None = None,
) -> JsonLinesIndex | Corpus:
    """A corpus to read in chunks: len() records, read(span) gives those of a slice.

    A JSON Lines file is indexed here and parsed only by read, so a caller
    holds one chunk of its records at a time. A CSV file or a directory of
    .txt files is loaded whole, up to its first fault. Nothing is raised
    here: read raises each fault in its record's place, and one that spoils
    the whole file in the first, so that a caller reading in order meets the
    faults in input order. An OSError met here becomes a CorpusError with
    its message. format and the defaults are as for load_corpus; ids are
    not checked here.
    """
    name, path = str(path), Path(path)
    label = path.stem or str(path)
    records: list[PoemRecord] = []
    try:
        format = _format(path, format)
        if format == "json-lines":
            return JsonLinesIndex(name, label, path,
                                  _Rows(path, "line", default_source, default_style))
        try:
            records.extend(_LOADERS[format](path, default_source, default_style))
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    except CorpusError as exc:
        return Corpus(label, tuple(records), exc, name)
    except OSError as exc:
        return Corpus(label, tuple(records), CorpusError(str(exc)), name)
    return Corpus(label, tuple(records), name=name)


_BOM = b"\xef\xbb\xbf"
# The ASCII characters that str.strip() removes.
_ASCII_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _text_lines(handle) -> Iterator[bytes]:
    """The lines of a binary file as text mode splits them, at LF, CRLF or a lone CR, each
    with its own line end (a last line may have none)."""
    for line in handle:
        if b"\r" in line:
            yield from line.splitlines(keepends=True)
        else:
            yield line


def _blank(line: bytes) -> bool:
    """Whether the line is blank once decoded, by str.strip(); a line that is not UTF-8 is not."""
    rest = line.lstrip(_ASCII_SPACE)
    if not rest or rest[0] < 0x80:
        return not rest
    try:
        return not rest.decode().strip()
    except UnicodeDecodeError:
        return False


def _index_jsonl(path: Path) -> tuple[int, array, array]:
    """The number of records (non-blank lines) of a JSON Lines file, and the byte offset
    and line number of every _INDEX_BLOCK-th of them, from the first."""
    count, starts, linenos = 0, array("q"), array("q")
    with open(path, "rb") as handle:
        offset = len(_BOM) if handle.read(len(_BOM)) == _BOM else 0
        handle.seek(offset)
        for lineno, line in enumerate(_text_lines(handle), start=1):
            if not _blank(line):
                if not count % _INDEX_BLOCK:
                    starts.append(offset)
                    linenos.append(lineno)
                count += 1
            offset += len(line)
    return count, starts, linenos


def _read_jsonl(path: Path, rows: _Rows, start: int, lineno: int, skip: int,
                count: int) -> Iterator[PoemRecord]:
    """count records of a JSON Lines file, parsed one at a time, after skip records that
    are not parsed, from the line that starts at byte start (past any byte order mark)
    and is numbered lineno.

    Lines are split and numbered as text mode splits them (see _text_lines),
    and blank lines are skipped.
    """
    with open(path, "rb") as handle:
        handle.seek(start)
        for lineno, line in enumerate(_text_lines(handle), start=lineno):
            if _blank(line):
                continue
            if skip:
                skip -= 1
                continue
            if line.endswith((b"\r", b"\r\n")):
                line = line.rstrip(b"\r\n") + b"\n"  # as text mode reads it
            try:
                raw = json.loads(line.decode())
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{rows.where} {lineno}: byte 0x{line[exc.start]:02x} "
                                  "is not UTF-8") from None
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{rows.where} {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(raw, dict):
                raise CorpusError(f"{rows.where} {lineno}: record is not a JSON object")
            yield _record_from_mapping(raw, lineno, rows)
            count -= 1
            if not count:
                return


def _load_csv(path: Path, default_source, default_style) -> Iterator[PoemRecord]:
    rows = _Rows(path, "row", default_source, default_style)
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "text" not in reader.fieldnames:
            raise CorpusError(f"{path}: CSV header row with a 'text' column is required")
        for index, row in enumerate(reader, start=1):
            yield _record_from_mapping(row, index, rows)


def _load_directory(path: Path, default_source, default_style) -> Iterator[PoemRecord]:
    if default_source is None:
        raise CorpusError(
            f"{path}: loading a directory of text files requires a default source"
        )
    for file in sorted(path.glob("*.txt")):
        text = _normalize_newlines(file.read_text(encoding="utf-8-sig"))
        try:
            yield PoemRecord(id=file.stem, text=text, source=default_source, style=default_style)
        except CorpusError as exc:
            raise CorpusError(f"{file}: {exc}") from exc


# The loaders of the formats read whole.
_LOADERS = {"csv": _load_csv, "directory-of-text-files": _load_directory}


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
