from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from poemetrics import corpus as corpus_module
from poemetrics.corpus import (
    CANONICAL_STYLES,
    Corpus,
    CorpusError,
    PoemRecord,
    load_corpus,
    open_corpus,
    save_corpus,
    strip_prefatory,
)

from conftest import DATA_DIR


def test_canonical_style_set_has_24_entries():
    assert len(CANONICAL_STYLES) == 24
    assert "a poem" in CANONICAL_STYLES
    assert "sonnet" in CANONICAL_STYLES


def test_load_jsonl_three_records():
    corpus = load_corpus(DATA_DIR / "corpus_small.jsonl")
    assert len(corpus) == 3
    assert [r.id for r in corpus] == ["p1", "p2", "p3"]
    assert corpus.records[1].style == "limerick"


def test_unknown_jsonl_fields_are_ignored():
    corpus = load_corpus(DATA_DIR / "corpus_small.jsonl")
    assert not hasattr(corpus.records[1], "extra_field")


def test_missing_text_names_the_line():
    with pytest.raises(CorpusError, match=r"line 2.*text"):
        load_corpus(DATA_DIR / "corpus_missing_text.jsonl")


def test_invalid_json_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "x", "source": "human"}\nnot json\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_json_numbers_are_read_as_their_text(tmp_path):
    path = tmp_path / "numbers.jsonl"
    rows = [{"id": 7, "text": 12, "source": "human", "style": 5, "title": 1.5},
            {"id": "b", "text": "y", "source": "human", "style": "5"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert [(r.id, r.text, r.style, r.title) for r in load_corpus(path)] == [
        ("7", "12", "5", "1.5"), ("b", "y", "5", None)]


@pytest.mark.parametrize("value, kind", [
    (["a"], "an array"), ({"a": "b"}, "an object"), (True, "true or false"),
])
@pytest.mark.parametrize("key", ["id", "text", "style"])
def test_json_field_that_is_not_text_names_file_line_and_field(key, value, kind, tmp_path):
    path = tmp_path / "typed.jsonl"
    rows = [{"id": "a", "text": "x", "source": "human"},
            {"id": "b", "text": "y", "source": "human", key: value}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert str(exc.value) == (
        f"{path}: line 2: field {key!r} must be a string or a number, not {kind}")


def test_duplicate_id_is_an_error(tmp_path):
    rows = [{"id": "same", "text": text, "source": "human"} for text in ("x", "y")]
    for name in ("dup.jsonl", "dup.csv"):
        path = tmp_path / name
        if name.endswith(".csv"):
            path.write_text("id,text,source\n" + "".join(",".join(r.values()) + "\n"
                                                         for r in rows))
        else:
            path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(CorpusError) as exc:
            load_corpus(path)
        assert str(exc.value) == "duplicate poem id 'same' in corpus 'dup'"
        # The reader leaves ids to its caller, so that it can report faults in input order.
        assert [r.text for r in open_corpus(path).read(slice(None))] == ["x", "y"]


def test_unknown_source_is_an_error(tmp_path):
    path = tmp_path / "src.jsonl"
    path.write_text(json.dumps({"id": "a", "text": "x", "source": "gpt5000"}) + "\n")
    with pytest.raises(CorpusError, match="unknown source"):
        load_corpus(path)


def test_other_model_source_is_accepted():
    record = PoemRecord(
        id="m1", text="hello world", source="model:llama-3-70b",
        style="sonnet", template="general",
    )
    assert record.source == "model:llama-3-70b"


def test_template_required_iff_generated():
    with pytest.raises(CorpusError, match="requires a template"):
        PoemRecord(id="g", text="x", source="gpt4", style="sonnet")
    with pytest.raises(CorpusError, match="only valid for generated"):
        PoemRecord(id="h", text="x", source="human", template="general")


def test_generated_style_must_be_canonical():
    with pytest.raises(CorpusError, match="canonical"):
        PoemRecord(id="g", text="x", source="gpt4", style="saga", template="general")
    # free-form style labels are fine for human poems
    PoemRecord(id="h", text="x", source="human", style="saga")


def test_empty_text_rejected():
    with pytest.raises(CorpusError, match="empty"):
        PoemRecord(id="e", text="  \n\n  ", source="human")


def test_crlf_normalized_to_lf(tmp_path):
    path = tmp_path / "crlf.jsonl"
    path.write_text(json.dumps({"id": "a", "text": "one\r\ntwo", "source": "human"}) + "\n")
    assert load_corpus(path).records[0].text == "one\ntwo"


def test_csv_loader_with_embedded_newlines():
    corpus = load_corpus(DATA_DIR / "corpus_small.csv")
    assert len(corpus) == 2
    assert corpus.records[0].text == "first line\nsecond line"
    assert corpus.records[1].style is None


# Excel's "CSV UTF-8" export starts the file with a byte order mark.
@pytest.mark.parametrize("name, content", [
    ("bom.csv", 'id,text,source\nb1,"one\ntwo",human\n'),
    ("bom.csv", 'source,id,text\nhuman,b1,"one\ntwo"\n'),
    ("bom.jsonl", '{"id": "b1", "text": "one\\ntwo", "source": "human"}\n'),
])
def test_leading_byte_order_mark_is_dropped(name, content, tmp_path):
    path = tmp_path / name
    path.write_text("\ufeff" + content, encoding="utf-8")
    assert load_corpus(path).records == (PoemRecord(id="b1", text="one\ntwo", source="human"),)


def test_csv_requires_header(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(CorpusError, match="header"):
        load_corpus(path)


def test_directory_loader_defaults_source():
    corpus = load_corpus(DATA_DIR / "poems_dir", default_source="human")
    assert len(corpus) == 2
    assert [r.id for r in corpus] == ["alpha", "beta"]
    assert all(r.source == "human" for r in corpus)


def test_directory_loader_requires_source():
    with pytest.raises(CorpusError, match="default source"):
        load_corpus(DATA_DIR / "poems_dir")


def test_missing_path_is_an_error(tmp_path):
    with pytest.raises(CorpusError, match="does not exist"):
        load_corpus(tmp_path / "nope.jsonl")


def test_round_trip_preserves_text(tmp_path):
    original = load_corpus(DATA_DIR / "corpus_small.jsonl")
    out = tmp_path / "resaved.jsonl"
    save_corpus(original, out)
    reloaded = load_corpus(out)
    assert [r.text for r in reloaded] == [r.text for r in original]
    assert [r.to_json_dict() for r in reloaded] == [r.to_json_dict() for r in original]


# --- strip_prefatory -------------------------------------------------------

SONNET_BODY = "\n".join(f"line {i} of the poem body" for i in range(1, 15))


def _poem(text):
    return PoemRecord(id="p", text=text, source="human", style="sonnet")


def test_strip_removes_dedication_line():
    poem = _poem("for my mother:\n" + SONNET_BODY)
    stripped = strip_prefatory(poem, expected_lines=14)
    assert stripped.text == SONNET_BODY


def test_strip_leaves_poem_at_expected_length():
    poem = _poem(SONNET_BODY)
    assert strip_prefatory(poem, expected_lines=14) is poem


def test_strip_skips_poems_far_over_length():
    long_body = "\n".join(f"line {i}" for i in range(29))
    poem = _poem("for my mother:\n" + long_body)
    # 30 lines vs expected 14 exceeds the 10-line window: unchanged
    assert strip_prefatory(poem, expected_lines=14) is poem


def test_strip_handles_dates_and_colons():
    poem = _poem("1916\nafter the long war:\n" + SONNET_BODY)
    stripped = strip_prefatory(poem, expected_lines=14)
    assert stripped.text == SONNET_BODY


def test_strip_stops_when_no_heuristic_matches():
    poem = _poem("An ordinary opening line\n" + SONNET_BODY)
    assert strip_prefatory(poem, expected_lines=14) is poem


def test_strip_without_expected_lines_is_identity():
    poem = _poem("for my mother:\n" + SONNET_BODY)
    assert strip_prefatory(poem) is poem


@given(
    st.lists(
        st.sampled_from(
            ["for my mother:", "after the storm", "March 1916", "1922",
             "an ordinary line", "another plain line"]
        ),
        min_size=0, max_size=4,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_strip_prefatory_is_idempotent(prefix_lines, extra):
    body = "\n".join(f"body line {i}" for i in range(10 + extra))
    poem = _poem("\n".join([*prefix_lines, body]))
    once = strip_prefatory(poem, expected_lines=10)
    twice = strip_prefatory(once, expected_lines=10)
    assert once.text == twice.text


@given(st.integers(min_value=1, max_value=20))
def test_strip_never_shortens_below_expected(expected):
    poem = _poem("for my mother:\n" + SONNET_BODY)
    stripped = strip_prefatory(poem, expected_lines=expected)
    nonblank = [l for l in stripped.text.split("\n") if l.strip()]
    assert len(nonblank) >= min(expected, 15)


# --- chunk reader ------------------------------------------------------------

# Whitespace-only lines are blank: str.strip() removes all of these, though text mode splits at
# none of them.
_BLANK_CHARS = " \t 　\x0b\x0c\x1c\x85"
_LINE_ENDS = ("\n", "\r\n", "\r")
_RECORD_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(str.strip)
_LINES = st.lists(st.one_of(
    st.tuples(st.booleans(), _RECORD_TEXT, st.sampled_from([None, "ode", "sonnet"])),
    st.text(st.sampled_from(_BLANK_CHARS), max_size=3),
), max_size=12)


def _text_mode_records(path) -> tuple[PoemRecord, ...]:
    """A JSON Lines file's records as reading it in text mode gives them: lines split at LF,
    CRLF and a lone CR, a BOM dropped at the start, blank lines by str.strip()."""
    records = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                raw = json.loads(line)
                records.append(PoemRecord(id=raw.get("id", f"{path.stem}-{lineno:04d}"),
                                          text=raw["text"].replace("\r\n", "\n"),
                                          source="human", style=raw.get("style")))
    return tuple(records)


@given(lines=_LINES, ends=st.lists(st.sampled_from(_LINE_ENDS), min_size=12, max_size=12),
       bom=st.booleans(), final_end=st.booleans(), ascii_only=st.booleans())
# Lone-CR line ends, and a line blank but for U+00A0, which bytes.strip() would keep.
@example(lines=[(False, "one", None), (True, "two", "ode"), "", " \u00a0", (False, "é", None)],
         ends=["\r"] * 12, bom=True, final_end=False, ascii_only=False)
def test_chunk_reads_equal_load_corpus(tmp_path_factory, lines, ends, bom, final_end,
                                       ascii_only):
    path = tmp_path_factory.mktemp("chunks") / "poems.jsonl"
    text = "﻿" if bom else ""
    for n, line in enumerate(lines):
        if isinstance(line, tuple):
            has_id, poem, style = line
            row = {"text": poem, "source": "human", **({"id": f"p{n}"} if has_id else {}),
                   **({"style": style} if style else {})}
            line = json.dumps(row, ensure_ascii=ascii_only)
        text += line + (ends[n] if final_end or n < len(lines) - 1 else "")
    path.write_bytes(text.encode("utf-8"))
    whole = load_corpus(path).records
    assert whole == _text_mode_records(path)
    reader = open_corpus(path)
    assert len(reader) == len(whole)
    for size in range(1, 6):
        read = [r for start in range(0, len(reader), size)
                for r in reader.read(slice(start, start + size))]
        assert tuple(read) == whole, size


def test_chunk_read_names_the_line_of_its_fault(tmp_path):
    path = tmp_path / "bad.jsonl"
    row = json.dumps({"text": "x", "source": "human"})
    path.write_bytes(f"{row}\r\n \r\n{row}\r\nnot json\r\n".encode() + b"caf\xe9\n")
    reader = open_corpus(path)
    assert len(reader) == 4
    assert [r.id for r in reader.read(slice(0, 2))] == ["bad-0001", "bad-0003"]
    with pytest.raises(CorpusError, match=rf"^{path}: line 4: invalid JSON \(Expecting value\)$"):
        list(reader.read(slice(1, 3)))
    with pytest.raises(CorpusError, match=rf"^{path}: line 5: byte 0xe9 is not UTF-8$"):
        list(reader.read(slice(3, 4)))


@given(lines=_LINES, ends=st.lists(st.sampled_from(_LINE_ENDS), min_size=12, max_size=12),
       bom=st.booleans(), block=st.integers(1, 5), data=st.data())
def test_read_of_any_span_equals_the_slice_of_the_loaded_corpus(tmp_path_factory, lines, ends,
                                                                bom, block, data):
    # With a checkpoint every block records, a span starts at one or past it.
    path = tmp_path_factory.mktemp("spans") / "poems.jsonl"
    text = "\ufeff" if bom else ""
    for n, line in enumerate(lines):
        if isinstance(line, tuple):
            line = json.dumps({"text": line[1], "source": "human"})
        text += line + ends[n]
    path.write_bytes(text.encode("utf-8"))
    whole = load_corpus(path).records
    with mock.patch.object(corpus_module, "_INDEX_BLOCK", block):
        reader = open_corpus(path)
        start = data.draw(st.integers(0, len(whole) + 1), label="start")
        stop = data.draw(st.integers(0, len(whole) + 1), label="stop")
        assert len(reader) == len(whole)
        assert len(reader.starts) == -(-len(whole) // block)
        assert tuple(reader.read(slice(start, stop))) == whole[start:stop]


@pytest.mark.parametrize("block", [1, 2, 3, 100])
def test_read_past_a_checkpoint_names_the_line_of_its_fault(block, tmp_path):
    path = tmp_path / "bad.jsonl"
    row = json.dumps({"text": "x", "source": "human"})
    path.write_bytes(b"\xef\xbb\xbf" + f"{row}\r\n\r\n{row}\n{row}\r{row}\r\n \n".encode()
                     + b"{\"text\": \"caf\xe9\"}\r\n" + f"{row}\n".encode())
    with mock.patch.object(corpus_module, "_INDEX_BLOCK", block):
        reader = open_corpus(path)
        assert len(reader) == 6
        assert [r.id for r in reader.read(slice(1, 4))] == ["bad-0003", "bad-0004", "bad-0005"]
        assert [r.id for r in reader.read(slice(5, 6))] == ["bad-0008"]
        for first in range(5):
            with pytest.raises(CorpusError, match=rf"^{path}: line 7: byte 0xe9 is not UTF-8$"):
                list(reader.read(slice(first, 6)))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_not_utf8_names_the_line_at_any_line_end(end, tmp_path):
    path = tmp_path / "rows.csv"
    rows = ["id,text,source", "a,x,human", "b,caf\xe9,human", ""]
    path.write_bytes(end.join(rows).encode("latin-1"))
    with pytest.raises(CorpusError, match=rf"^{path}: line 3: byte 0xe9 is not UTF-8$"):
        load_corpus(path)


def test_open_corpus_raises_a_fault_in_its_records_place(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("id,text,source\na,x,human\nb, ,human\nc,y,human\n")
    reader = open_corpus(path)
    assert len(reader) == 2
    assert [r.id for r in reader.read(slice(0, 1))] == ["a"]
    with pytest.raises(CorpusError, match=r"rows.csv: row 2: poem 'b': text is empty"):
        list(reader.read(slice(0, 2)))
    missing = open_corpus(tmp_path / "missing.jsonl")
    assert len(missing) == 1
    with pytest.raises(CorpusError, match="does not exist"):
        list(missing.read(slice(0, 1)))


def _two_rows(name: str) -> str:
    """Two generated poems with every label, and their titles, alike."""
    rows = [{"id": f"p{n}", "text": f"poem {n}", "source": "gpt4", "style": "sonnet",
             "subject": "love", "template": "general", "title": "Untitled"} for n in (1, 2)]
    if name.endswith(".csv"):
        return "id,text,source,style,subject,template,title\n" + "".join(
            ",".join(row.values()) + "\n" for row in rows)
    return "".join(json.dumps(row) + "\n" for row in rows)


@pytest.mark.parametrize("name", ["labels.jsonl", "labels.csv"])
def test_records_of_one_file_share_their_label_strings(name, tmp_path):
    path = tmp_path / name
    path.write_text(_two_rows(name), encoding="utf-8")
    for a, b in [load_corpus(path).records, list(open_corpus(path).read(slice(None)))]:
        assert a.style == "sonnet"
        for key in ("source", "style", "subject", "template"):
            assert getattr(a, key) is getattr(b, key), key
        assert a.title == b.title and a.title is not b.title


@pytest.mark.parametrize("name", ["labels.jsonl", "labels.csv"])
def test_only_labels_are_shared_across_files(name, tmp_path):
    path = tmp_path / name
    path.write_text(_two_rows(name), encoding="utf-8")
    first, again = load_corpus(path).records[0], load_corpus(path).records[0]
    for key in ("source", "style", "subject", "template"):
        assert getattr(first, key) is getattr(again, key), key
    for key in ("id", "text", "title"):
        assert getattr(first, key) == getattr(again, key)
        assert getattr(first, key) is not getattr(again, key), key


def _bad_input(kind: str, tmp_path):
    """A path, and the format to read it as, that no reader can read."""
    if kind == "missing":
        return tmp_path / "missing.jsonl", None
    if kind == "directory":
        (tmp_path / "poems").mkdir()
        return tmp_path / "poems", "json-lines"
    if kind == "csv-not-utf8":
        path = tmp_path / "rows.csv"
        path.write_bytes(b"id,text,source\na,x,human\nb,caf\xe9,human\n")
        return path, None
    path = tmp_path / "rows.jsonl"
    row = json.dumps({"text": "x", "source": "human"})
    path.write_text(f"{row}\n{row}\nnot json\n{row}\n")
    return path, None


@pytest.mark.parametrize("kind", ["missing", "directory", "csv-not-utf8", "jsonl-invalid"])
def test_both_readers_raise_the_same_fault(kind, tmp_path):
    path, format = _bad_input(kind, tmp_path)
    faults = []
    for read in (lambda: load_corpus(path, format),
                 lambda: list(open_corpus(path, format).read(slice(None)))):
        with pytest.raises(Exception) as exc:
            read()
        faults.append((type(exc.value), str(exc.value)))
    assert faults[0] == faults[1]
    assert faults[0][0] is CorpusError and str(path) in faults[0][1]

