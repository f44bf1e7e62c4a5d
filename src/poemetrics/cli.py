"""Command-line front end: ingestion, analyses, and report emission.

Subcommands: analyze, generate, and structure, rhyme, meter, lexstats and
compare, which are analyze restricted to some table families (compare: the
log-odds tables only). Reports are written under an output directory as
tables/ (CSV or JSON), grids/ (occupancy matrices), plots/ (optional SVG),
annotations/ (optional per-poem rhyme) and a combined report.json. Invalid
input is rejected before any output is written: exit 1 for a corpus problem,
2 for a flag value. Output is deterministic: identical inputs and flags produce
byte-identical reports. Every poem is scored once, by one fold over chunks of
consecutive poems, which reads each chunk of a JSON Lines corpus from its file
as it folds it. --threads N runs that fold in up to N processes, this one
included, which claim chunks and fold them into their own totals; those are
merged here. Every total is a count or an exact sum, merged exactly, so the
bytes depend neither on N nor on the order chunks are folded and merged in.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import tempfile
import threading
from array import array
from collections import Counter, defaultdict, deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import chain, islice, repeat
from operator import add
from pathlib import Path

from . import __version__
from .arpabet import PronouncingDictionary, bundled_dictionary_path, load_dictionary
from .corpus import (CANONICAL_STYLES, TEMPLATE_NAMES, CorpusError, EXPECTED_FORM_LENGTHS,
                     check_unique_ids, open_corpus, strip_prefatory)
from .lexstats import (
    DEFAULT_TOUCHSTONE_GROUPS,
    PRONOUN_CATEGORIES,
    WordCounts,
    fold_first_word_logodds,
    fold_logodds,
    fold_pronouns,
    fold_touchstones,
    load_stopwords,
    pronoun_counts,
    touchstone_hits,
)
from .meter import CorpusMeterStats, scan_poem
from .rhyme import RhymeStats, annotate_rhymes
from .structure import (LengthSummary, OccupancyGrid, QuatrainStats, parse_structure,
                        summarize_length_counts)
from . import svgplot

# Unused here; perfbench/tracing.py wraps these names on this module.
from .corpus import load_corpus  # noqa: F401
from .lexstats import first_word_logodds, logodds, pronoun_profile, touchstone_coverage  # noqa: F401
from .meter import corpus_meter_stats  # noqa: F401
from .rhyme import corpus_rhyme_stats  # noqa: F401
from .structure import length_summary, occupancy_heatmap, quatrain_stats  # noqa: F401

logger = logging.getLogger(__name__)

ALL_STYLES = "ALL"
UNLABELED = "(none)"


@dataclass
class AnalysisSettings:
    """Flags that affect analysis results (recorded in report metadata)."""

    min_docs: int
    alpha_total: float | None
    iambic_threshold: float
    heatmap_rows: int
    heatmap_cols: int
    strip_prefatory: bool
    top_k: int


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return "" if value is None else str(value)


# Table rows encoded by the C encoder in one call; each batch's text is written, then dropped.
_ROW_BATCH = 256


def _json_rows(batches):
    """The pieces of json.dumps(rows, indent=2, sort_keys=True), one per batch of rows.

    batches hold a table's rows, in order, as non-empty lists; a row is a
    non-empty dict of strings to scalars (str, int, float, bool or None).
    json.dumps runs its pure-Python encoder whenever indent is set; here each
    batch is encoded by the C encoder in one call with a raw NUL, which
    encoded JSON never holds, between its items, and the NULs become the
    indented layout. No piece holds a raw newline but the layout's.
    """
    # A row's items end in a scalar, never "}", so "}\0{" parts two rows.
    start, between = "[\n  {\n    ", "\n  },\n  {\n    "
    for batch in batches:
        text = json.dumps(batch, separators=("\0", ": "), sort_keys=True)
        yield start + text[2:-2].replace("}\0{", between).replace("\0", ",\n    ")
        start = between
    yield "\n  }\n]" if start == between else "[]"


@dataclass
class _Group:
    """Running totals of one (corpus, style) group; each poem is added as it is scored."""

    line_counts: Counter[int] = field(default_factory=Counter)
    quatrains: QuatrainStats = field(default_factory=QuatrainStats)
    rhyme: RhymeStats = field(default_factory=RhymeStats)
    meter: CorpusMeterStats = field(default_factory=CorpusMeterStats)
    # The token count, then each pronoun category's (see pronoun_counts).
    pronouns: list[int] = field(default_factory=lambda: [0] * (1 + len(PRONOUN_CATEGORIES)))
    touchstones: list[int] = field(default_factory=lambda: [0] * len(DEFAULT_TOUCHSTONE_GROUPS))

    def merge(self, other: _Group) -> None:
        """Add the totals of other, the same group's totals over other poems, to these."""
        self.line_counts.update(other.line_counts)
        self.quatrains.merge(other.quatrains)
        self.rhyme.merge(other.rhyme)
        self.meter.merge(other.meter)
        self.pronouns = list(map(add, self.pronouns, other.pronouns))
        self.touchstones = list(map(add, self.touchstones, other.touchstones))


# Consecutive poems of one corpus per chunk that a scoring process claims.
_CHUNK_POEMS = 100

# Chunks grow by multiples of _CHUNK_POEMS poems so that a run has about this many at most:
# their 4-byte indices are all written to the claim pipe before any process reads it, so
# they must fit its buffer (64 KiB on Linux, 4 KiB at least).
_MAX_CHUNKS = 1000

# A fold keeps each poem's id as this hash of it, 8 bytes; a name of its own, so that a
# test can make ids collide. Every scoring process is forked from the one that calls
# _score_corpora, so all of them hash a str alike.
_id_hash = hash

# The duplicate check builds a set of this many to twice this many id hashes at a time
# (of all of a smaller corpus's).
_BUCKET_POEMS = 4096


def _chunks(corpora, size: int) -> list[tuple[int, slice]]:
    """Each corpus cut into runs of size consecutive poems, as (corpus index, slice of its
    records), in input order."""
    return [(i, slice(start, start + size)) for i, corpus in enumerate(corpora)
            for start in range(0, len(corpus), size)]


def _read_chunk(corpus, span: slice, strip: bool) -> list:
    """The records of one chunk of corpus, each checked for a reserved style and stripped
    of prefatory lines when strip says so, in input order, so the first fault raised is
    the chunk's first.

    The chunk is parsed whole before it is scored: parsing poem by poem between
    scoring them took longer.
    """
    records = []
    for record in corpus.read(span):
        # These labels name the ALL and unlabeled rows; a style so named would share their key.
        if record.style in (ALL_STYLES, UNLABELED):
            raise CorpusError(f"{corpus.name}: poem {record.id!r}: "
                              f"style {record.style!r} is reserved")
        if strip:
            record = strip_prefatory(record, EXPECTED_FORM_LENGTHS.get(record.style or ""))
        records.append(record)
    return records


def _fold_chunks(run, chunks, claims):
    """One scoring process's fold of the chunks it claims, in claim order: the one place
    where a poem is read and scored.

    run is (corpora, families, dictionary, settings, spool, compared,
    stopwords): corpora are open_corpus readers, settings the AnalysisSettings,
    and spool the directory for --per-poem lines or None. chunks lists (corpus
    index, slice of its records); claims yields chunk indices. Each claimed
    chunk is read by _read_chunk, so a process holds one chunk of records at a
    time; then each poem is parsed and scored once, for the families asked for
    only, and added to its style's group of its corpus, to its corpus's grid
    with structure and, for the first `compared` corpora, to its WordCounts.
    Each non-blank line is tokenized once, on the poem's first read of its
    tokens, and end words, meter, pronouns, touchstones and word counts all
    come from them, the last three also from one set of the poem's distinct
    tokens. Word counts take every token, and their stopwords are dropped
    once, when the fold ends. With a spool, a chunk's --per-poem lines go to
    the file there named by its index (_spool_file).

    Returns the totals, (groups, grids, counted): per corpus its groups by
    style (keyed by record.style, None for unlabeled) and its OccupancyGrid or
    None; and the WordCounts. Also returns, per claimed chunk index, its part:
    an array of its poems' id hashes (_id_hash, not the ids). A chunk with a
    record fault has the CorpusError instead, and the fold then claims every
    chunk left and stops: no process folds a chunk past it, and none before it
    is left unfolded.
    """
    corpora, families, dictionary, settings, spool, compared, stopwords = run
    groups = [defaultdict(_Group) for _ in corpora]
    grids = [OccupancyGrid(settings.heatmap_rows, settings.heatmap_cols)
             if "structure" in families else None for _ in corpora]
    counted = [WordCounts(stopwords) for _ in corpora[:compared]]
    rhymes, meters, lexical = (family in families for family in ("rhyme", "meter", "lexstats"))
    parts = {}
    for k in claims:
        i, span = chunks[k]
        by_style, grid = groups[i], grids[i]
        counting = counted[i] if i < compared else None
        ids = array("q")
        try:
            with (open(_spool_file(spool, k), "w", encoding="utf-8", newline="")
                  if spool else nullcontext()) as out:
                for record in _read_chunk(corpora[i], span, settings.strip_prefatory):
                    ids.append(_id_hash(record.id))
                    poem = parse_structure(record)
                    group = by_style[record.style]
                    group.line_counts[poem.line_count] += 1
                    group.quatrains.add(poem.stanza_sizes)
                    if grid is not None:
                        grid.add(record.text)
                    if counting is not None or lexical:
                        words = tuple(chain.from_iterable(poem.tokens))
                        distinct = set(words)
                    if counting is not None:
                        counting.add(words, distinct)
                    if rhymes:
                        annotation = annotate_rhymes(poem, dictionary)
                        group.rhyme.add(annotation.counts())
                        if out:
                            out.write(json.dumps({**annotation.to_json_dict(), "id": record.id},
                                                 ensure_ascii=False, sort_keys=True) + "\n")
                    if meters:
                        group.meter.add(scan_poem(poem, dictionary, settings.iambic_threshold))
                    if lexical:
                        group.pronouns = list(map(add, group.pronouns,
                                                  pronoun_counts(words, distinct)))
                        group.touchstones = list(map(add, group.touchstones,
                                                     touchstone_hits(words, distinct)))
        except CorpusError as exc:  # a record fault: only reading raises one
            parts[k] = exc
            deque(claims, maxlen=0)  # claim every chunk left: none comes before this one
            break
        parts[k] = ids
    for counts in counted:
        counts.drop_stopwords()
    return (groups, grids, counted), parts


def _spool_file(spool: str, k: int) -> str:
    """The file in spool that holds chunk k's --per-poem lines."""
    return os.path.join(spool, str(k))


def _merge_totals(totals, other) -> None:
    """Add other, another process's _fold_chunks totals, to totals."""
    (groups, grids, counted), (their_groups, their_grids, their_counted) = totals, other
    for by_style, theirs in zip(groups, their_groups):
        for style, group in theirs.items():
            by_style[style].merge(group)
    for grid, theirs in zip(grids, their_grids):
        if grid is not None:
            grid.merge(theirs)
    for mine, theirs in zip(counted, their_counted):
        mine.update(theirs)


def _check_input(corpora, chunks, parts) -> None:
    """Raise the first fault of the input, whichever process met it: corpora in order, and
    in each its first record fault in input order, then "no poems", then its first
    duplicate id.

    parts are every fold's; a chunk may be missing only past a record fault (see
    _fold_chunks), so every chunk before the first one is here. They hold id
    hashes, not ids: only when two of a corpus's hashes are equal (_repeats)
    are its ids read again through its reader, and checked as strings.
    """
    for i, corpus in enumerate(corpora):
        mine = [parts.get(k) for k, (j, _) in enumerate(chunks) if j == i]
        for part in mine:
            if isinstance(part, CorpusError):
                raise part
        if not len(corpus):
            raise CorpusError(f"corpus has no poems: {corpus.name}")
        if not _repeats(mine, len(corpus)):
            continue
        # Named by load_corpus's label, the file's stem: only a file can repeat an id.
        check_unique_ids(corpus.read(slice(None)), Path(corpus.name).stem)


def _repeats(columns, count: int) -> bool:
    """Whether some value occurs twice in columns, arrays of count hashes in all.

    The hashes are parted by their remainder into count // _BUCKET_POEMS
    arrays, one at least, and a set is built of one of those at a time: a set
    of every hash would hold an int object per poem.
    """
    n = max(1, count // _BUCKET_POEMS)
    buckets = [array("q") for _ in range(n)]
    for column in columns:
        for value in column:
            buckets[value % n].append(value)
    return any(len(set(bucket)) < len(bucket) for bucket in buckets)


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a scoring process, shown as that error's cause."""


def _serve(run, chunks, claims, result_fd: int):
    """A forked scoring process: fold the chunks it claims, write (None, _fold_chunks result)
    or (error, its traceback) pickled to result_fd, and exit; never returns."""
    import pickle
    import traceback

    code = 1
    try:
        try:
            result = None, _fold_chunks(run, chunks, claims)
        except Exception as exc:
            result = exc, traceback.format_exc()
        with open(result_fd, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _fork_join(run, chunks, processes):
    """Fold the chunks in `processes` processes, this one and processes - 1 forked.

    At 1 nothing is forked, and pickle and signal are not imported. Every
    chunk index is written to a pipe first; each process claims chunks by
    reading 4-byte indices from it until it is empty, and folds them with
    _fold_chunks. Each worker sends its totals and parts once; this process
    merges the totals, exactly, in the order the workers were forked, and
    returns them with every chunk's part, as _fold_chunks does for all chunks.
    An error in any process, a worker that did not exit normally or a failed
    fork raises here after every worker is ended and reaped.
    """
    read_claims, write_claims = os.pipe()
    os.write(write_claims, b"".join(k.to_bytes(4, "big") for k in range(len(chunks))))
    os.close(write_claims)
    claims = map(int.from_bytes, iter(partial(os.read, read_claims, 4), b""), repeat("big"))
    workers = {}  # pid: the read end of its result pipe
    try:
        if processes > 1:
            import pickle
            import signal

            sys.stdout.flush()
            sys.stderr.flush()
        for _ in range(processes - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if not pid:
                os.close(read_end)
                _serve(run, chunks, claims, write_end)
            os.close(write_end)
            workers[pid] = open(read_end, "rb")
        totals, parts = _fold_chunks(run, chunks, claims)
        for pid, pipe in list(workers.items()):
            try:
                error, result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # cut short: the exit status says why
                error = result = None
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if code or result is None:
                raise ChildProcessError("a scoring process " + (
                    f"was ended by {signal.Signals(-code).name}" if code < 0
                    else f"exited with status {code}"))
            if error is not None:
                raise error from _WorkerTraceback(result)
            _merge_totals(totals, result[0])
            parts.update(result[1])
    finally:
        os.close(read_claims)
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return totals, parts


def _score_corpora(corpora, families, dictionary, settings, spool, compared, processes):
    """Read and check every poem, and score it once into its group, grid and word counts.

    corpora are open_corpus readers, settings the AnalysisSettings and spool
    the directory for --per-poem lines or None. Returns the totals as
    _fold_chunks does, merged over every chunk: per corpus its groups by style
    and its OccupancyGrid (None without structure), and the WordCounts of the
    first `compared` corpora; and the chunks, (corpus index, slice of its
    records) in input order, whose --per-poem lines are in spool's files
    (_spool_file). Poems are scored on a copy of dictionary whose memos start
    empty and are dropped on return. Each corpus is cut into chunks of
    _CHUNK_POEMS poems, or a multiple of that past _MAX_CHUNKS chunks, which
    _fork_join folds in min(processes, chunks) processes, this one included,
    or in this one alone where fork is unavailable. _check_input then raises
    the input's first fault, reading a corpus again only if two of its id
    hashes are equal. The totals merge exactly, so the bytes do not depend on
    processes.
    """
    dictionary = replace(dictionary)
    stopwords = load_stopwords() if compared else frozenset()
    poems = sum(map(len, corpora))
    # A multiple of _CHUNK_POEMS, so that every chunk starts at a JSON Lines index checkpoint.
    chunks = _chunks(corpora, _CHUNK_POEMS * max(1, -(-poems // (_CHUNK_POEMS * _MAX_CHUNKS))))
    processes = min(processes, len(chunks) or 1) if hasattr(os, "fork") else 1
    logger.info("scoring %d poems; chunks: %d, processes: %d", poems, len(chunks), processes)
    run = (corpora, families, dictionary, settings, spool, compared, stopwords)
    totals, parts = _fork_join(run, chunks, processes)
    _check_input(corpora, chunks, parts)
    return totals, chunks


def _group_rows(group: _Group, s: LengthSummary, families: tuple[str, ...]) -> dict[str, dict]:
    """Each family table's row for one (corpus, style) group, from its running totals.

    s is the group's line-count summary. A row's keys, in order, are its
    table's columns after source and style.
    """
    rows = {}
    if "structure" in families:
        rows["lengths"] = {
            "poems": s.count, "median": s.median, "q1": s.q1, "q3": s.q3,
            "whisker_low": s.whisker_low, "whisker_high": s.whisker_high,
            "outlier_count": len(s.outliers),
        }
        q = group.quatrains
        rows["quatrains"] = {
            "poems": q.poem_count, "poems_with_quatrain": q.poems_with_quatrain,
            "poems_with_quatrain_pct": q.poems_with_quatrain_pct,
            "stanzas": q.stanza_count, "quatrain_stanzas": q.quatrain_stanzas,
            "quatrain_stanza_pct": q.quatrain_stanza_pct,
        }
    if "rhyme" in families:
        r = group.rhyme
        rows["rhyme"] = {
            "poems": r.poem_count, "poems_with_rhyme_pct": r.poems_with_rhyme_pct,
            "avg_rhymed_fraction": r.avg_rhymed_fraction,
            "pooled_rhymed_fraction": r.pooled_rhymed_fraction,
        }
    if "meter" in families:
        m = group.meter
        rows["meter"] = {
            "poems": m.poem_count, "pct_dominant_iambic": m.pct_dominant_iambic,
            "mean_iambic_score": m.mean_iambic_score,
            "unscannable_poems": m.unscannable_poems,
        }
    if "lexstats" in families:
        pr = fold_pronouns([group.pronouns])
        rows["pronouns"] = {"tokens": pr.total_tokens,
                            **{c: pr.per_100_words[c] for c in sorted(PRONOUN_CATEGORIES)}}
    return rows


def _fold_tables(corpora, groups, families):
    """The families' per-(corpus, style) tables, rows in order ALL, each style, then unlabeled.

    groups holds each corpus's groups by style; its ALL group is their merge.
    Also returns, per corpus label, each group's line-count summary for the
    boxplots, and with lexstats the touchstones table of each corpus's ALL group.
    """
    tables: dict[str, list[dict]] = {}
    boxplots: dict[str, list[tuple[str, LengthSummary]]] = {}
    for corpus, by_style in zip(corpora, groups):
        everything = _Group()
        for group in by_style.values():
            everything.merge(group)
        summaries = boxplots[corpus.label] = []
        labelled = [(ALL_STYLES, everything)] + [
            (UNLABELED if style is None else style, by_style[style])
            for style in sorted(by_style, key=lambda s: (s is None, s or ""))
        ]
        for style, group in labelled:
            lengths = summarize_length_counts(group.line_counts)
            summaries.append((style, lengths))
            for name, row in _group_rows(group, lengths, families).items():
                tables.setdefault(name, []).append(
                    {"source": corpus.label, "style": style, **row}
                )
        if "lexstats" in families:
            tables.setdefault("touchstones", []).extend(
                {"source": corpus.label, "group": " ".join(c.patterns),
                 "poems_matched": c.poems_matched, "poems": c.poem_count, "pct": c.pct}
                for c in fold_touchstones(everything.touchstones, len(corpus))
            )
    return {name: (list(rows[0]), rows) for name, rows in tables.items()}, boxplots


def _ranked(a: WordCounts, b: WordCounts, s: AnalysisSettings) -> dict[str, list]:
    """Each log-odds table's LogOddsResults of a against b, by z descending, by table name."""
    return {"logodds": fold_logodds(a, b, s.min_docs, s.alpha_total),
            "first_words": fold_first_word_logodds(a, b, s.min_docs, s.alpha_total)}


def _logodds_table(results: list):
    """A log-odds table's columns and a lazy source of its rows, one per result in order."""
    return (["word", "delta", "variance", "z", "doc_freq_a", "doc_freq_b"],
            ({"word": r.word, "delta": r.delta, "variance": r.variance, "z": r.z_score,
              "doc_freq_a": r.doc_freq_a, "doc_freq_b": r.doc_freq_b} for r in results))


def _load_corpora(paths: list[str], args) -> list:
    """Each corpus as open_corpus gives it, relabelled where its label is taken: a JSON
    Lines file is only indexed here, and every fault is raised as the fold meets it."""
    corpora = []
    labels_seen: set[str] = set()
    for raw in paths:
        corpus = open_corpus(raw, default_source=args.source_default,
                             default_style=args.style_default)
        label = corpus.label
        n = 2
        while label in labels_seen:
            label = f"{corpus.label}-{n}"
            n += 1
        labels_seen.add(label)
        corpus.label = label
        corpora.append(corpus)
    return corpora


def _write_annotations(out_dir: Path, corpora, spool: str, chunks) -> None:
    """Join each corpus's chunk files in spool (see _score_corpora), in chunk order, into its
    annotation file."""
    annotations_dir = out_dir / "annotations"
    annotations_dir.mkdir(parents=True, exist_ok=True)
    for i, corpus in enumerate(corpora):
        with open(annotations_dir / f"rhyme_{corpus.label}.jsonl", "w",
                  encoding="utf-8") as handle:
            for k, (j, _) in enumerate(chunks):
                if j == i:
                    with open(_spool_file(spool, k), encoding="utf-8", newline="") as part:
                        handle.write(part.read())


def _write_table(tables: Path, name: str, columns: list[str], rows, fmt: str, report) -> None:
    """Write one table's file under tables, CSV or JSON, and its rows' JSON, at nesting
    level 2, to report, the open report.json.

    rows, any iterable of the table's rows, is read once, _ROW_BATCH rows at a
    time: each batch's rows go to a CSV table file, and its JSON (see
    _json_rows) to a JSON table file as is and to report re-indented, before
    the next batch is read.
    """
    rows = iter(rows)
    with open(tables / f"{name}.{fmt}", "w", encoding="utf-8") as handle:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)

        def batches():
            for batch in iter(lambda: list(islice(rows, _ROW_BATCH)), []):
                if fmt == "csv":
                    writer.writerows([_fmt(row.get(c)) for c in columns] for row in batch)
                yield batch

        for piece in _json_rows(batches()):
            if fmt == "json":
                handle.write(piece)
            report.write(piece.replace("\n", "\n    "))
        if fmt == "json":
            handle.write("\n")


def _write_report(out_dir: Path, fmt: str, tables: dict, grids: dict,
                  dictionary: PronouncingDictionary, settings: AnalysisSettings, corpora) -> None:
    """Write each grid, each table and report.json, which holds every table's JSON rows.

    tables holds each table's columns and rows, an iterable read once.
    report.json is written as it is laid out: its metadata, then each table
    in name order, streamed by _write_table along with the table's own file,
    so no whole table's text is held.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if grids:
        grid_dir = out_dir / "grids"
        grid_dir.mkdir(exist_ok=True)
        for label in sorted(grids):
            grid = grids[label]
            (grid_dir / f"occupancy_{label}.csv").write_text(grid.to_csv(), encoding="utf-8")
            (grid_dir / f"occupancy_{label}.json").write_text(grid.to_json() + "\n", encoding="utf-8")
    metadata = {
        "tool": "poemetrics",
        "version": __version__,
        "dictionary_sha256": dictionary.source_sha256,
        "settings": asdict(settings),
        "corpora": {c.label: len(c) for c in corpora},
    }
    if tables:
        (out_dir / "tables").mkdir(exist_ok=True)
    # json.dumps({"metadata": metadata, "tables": {name: rows, ...}}, indent=2, sort_keys=True)
    with open(out_dir / "report.json", "w", encoding="utf-8") as report:
        report.write('{\n  "metadata": ')
        report.write(json.dumps(metadata, indent=2, sort_keys=True).replace("\n", "\n  "))
        report.write(',\n  "tables": ' + ("{" if tables else "{}"))
        for i, name in enumerate(sorted(tables)):
            report.write(("," if i else "") + "\n    " + json.dumps(name) + ": ")
            _write_table(out_dir / "tables", name, *tables[name], fmt, report)
        report.write("\n  }\n}\n" if tables else "\n}\n")


def _write_plots(out_dir: Path, tables, grids, boxplots, ranked, top_k: int) -> None:
    """Write the SVG plots; the log-odds bars are the top_k of ranked's results (_ranked)."""
    plot_dir = out_dir / "plots"
    plot_dir.mkdir(parents=True, exist_ok=True)
    for label, summaries in boxplots.items():
        (plot_dir / f"lengths_{label}.svg").write_text(
            svgplot.boxplot_svg(summaries, title=f"line counts: {label}"),
            encoding="utf-8",
        )
    if "rhyme" in tables:
        _, rows = tables["rhyme"]
        bars = [
            (f"{r['source']}/{r['style']}", r["poems_with_rhyme_pct"]) for r in rows
        ]
        (plot_dir / "rhyme_pct.svg").write_text(
            svgplot.barchart_svg(bars, title="poems with rhyme (%)"), encoding="utf-8"
        )
    for label in sorted(grids):
        with open(plot_dir / f"occupancy_{label}.svg", "w", encoding="utf-8") as out:
            svgplot.heatmap_svg(grids[label], out, title=f"occupancy: {label}")
    for name, results in ranked.items():
        # Results are sorted by z descending; only z > 0 favors the first corpus.
        top = [r for r in results[:top_k] if r.z_score > 0]
        if top:
            (plot_dir / f"{name}_top{top_k}.svg").write_text(svgplot.barchart_svg(
                [(r.word, r.z_score) for r in top],
                title=f"most distinctive {name.replace('_', ' ')} (z)",
                max_value=top[0].z_score), encoding="utf-8")


def cmd_analyze(args) -> int:
    """Every analysis subcommand: check, load, score and fold, then write.

    Every result is computed before the first file is written, so bad input writes nothing.
    """
    families, compare = args.families, args.compare
    if compare and len(args.corpus) < 2:
        raise CorpusError("--compare requires two corpora")
    dictionary = load_dictionary(args.dict)
    settings = AnalysisSettings(
        min_docs=args.min_docs,
        alpha_total=args.alpha_total,
        iambic_threshold=args.iambic_threshold,
        heatmap_rows=args.heatmap_rows,
        heatmap_cols=args.heatmap_cols,
        strip_prefatory=not args.no_strip_prefatory,
        top_k=args.top_k,
    )
    corpora = _load_corpora(args.corpus, args)
    per_poem = args.per_poem and "rhyme" in families
    out_dir = Path(args.out)
    # The scoring processes spool --per-poem lines here; it is removed however the run ends.
    with tempfile.TemporaryDirectory() if per_poem else nullcontext() as spool:
        (groups, grids, counted), chunks = _score_corpora(
            corpora, families, dictionary, settings, spool, 2 if compare else 0, args.threads)
        tables, boxplots = _fold_tables(corpora, groups, families)
        ranked = _ranked(*counted, settings) if compare else {}
        counted.clear()  # the word counts are not needed past here
        tables.update((name, _logodds_table(results)) for name, results in ranked.items())
        if per_poem:
            _write_annotations(out_dir, corpora, spool, chunks)
    grids = {c.label: grid for c, grid in zip(corpora, grids) if grid is not None}
    _write_report(out_dir, args.format, tables, grids, dictionary, settings, corpora)
    if args.emit_plots:
        _write_plots(out_dir, tables, grids, boxplots, ranked, settings.top_k)
    print(f"report written to {args.out}")
    return 0


def cmd_generate(args) -> int:
    # Imported here, so that the analysis commands never load the generation client.
    from .generate import (AuthenticationError, ChatCompletionsClient, DEFAULT_STYLES,
                           DEFAULT_SUBJECTS, DEFAULT_TEMPLATES, GenerationJob, build_grid,
                           check_specs, run_job)

    styles = tuple(args.styles) if args.styles else DEFAULT_STYLES
    subjects = tuple(args.subjects) if args.subjects else DEFAULT_SUBJECTS
    templates = tuple(args.templates) if args.templates else DEFAULT_TEMPLATES
    specs = build_grid(styles=styles, subjects=subjects, templates=templates)
    try:
        check_specs(args.model, specs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        for spec in specs:
            print(spec.rendered)
        return 0
    if not args.out:
        print("error: --out is required unless --dry-run", file=sys.stderr)
        return 2
    if not args.endpoint.lower().startswith(("http://", "https://")):
        print(f"error: --endpoint must be an http:// or https:// URL, got {args.endpoint!r}",
              file=sys.stderr)
        return 2
    api_key = os.environ.get(args.api_key_env, "")
    if not api_key:
        print(f"error: environment variable {args.api_key_env} is not set", file=sys.stderr)
        return 1
    client = ChatCompletionsClient(args.endpoint, api_key, timeout=args.timeout)
    job = GenerationJob(
        model=args.model,
        specs=specs,
        output_path=Path(args.out),
        temperature=args.temperature,
        max_output_tokens=args.max_output_tokens,
        max_retries=args.max_retries,
        rate_limit_per_sec=args.rate_limit,
        concurrency=args.concurrency,
        resume=not args.no_resume,
    )
    try:
        corpus = run_job(job, client)
    except AuthenticationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(corpus)} poems in {args.out}")
    return 0


def _bounded(kind: type, low: float, high: float = math.inf, *, above: bool = False):
    """argparse type: a finite kind (int or float) at least low, or greater than low when
    above, and at most high; any other value, NaN included, is a usage error."""
    if high < math.inf and not above:
        bound = f"from {low} to {high}"
    else:
        bound = f"{'greater than' if above else 'at least'} {low}"
        if high < math.inf:
            bound += f" and at most {high}"
        elif kind is float:
            bound += " and finite"

    def parse(text: str):
        value = kind(text)
        if not ((low < value if above else low <= value) and value <= high and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'" names the type by it
    return parse


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dict", default=str(bundled_dictionary_path()),
                        help="pronouncing dictionary file (CMU format)")
    parser.add_argument("--out", default="poemetrics-out", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table file format")
    parser.add_argument("--threads", type=_bounded(int, 1), default=1,
                        help="processes scoring poems, this one included (default 1); "
                             "reports are byte-identical at every count")
    parser.add_argument("--emit-plots", action="store_true",
                        help="also write simple SVG plots")
    parser.add_argument("--min-docs", type=_bounded(int, 0), default=10,
                        help="minimum poems a word must appear in for log-odds")
    parser.add_argument("--alpha-total", type=_bounded(float, 0, above=True), default=None,
                        help="total Dirichlet prior mass (default 0.01 * vocabulary size)")
    parser.add_argument("--iambic-threshold", type=_bounded(float, 0, 1), default=0.75,
                        help="iambic dominance threshold")
    parser.add_argument("--heatmap-rows", type=_bounded(int, 1), default=60)
    parser.add_argument("--heatmap-cols", type=_bounded(int, 1), default=80)
    parser.add_argument("--top-k", type=_bounded(int, 0), default=15,
                        help="top words kept in plots")
    parser.add_argument("--source-default", default=None,
                        help="source label for records that lack one (required for text directories)")
    parser.add_argument("--style-default", default=None,
                        help="style label for records that lack one")
    parser.add_argument("--no-strip-prefatory", action="store_true",
                        help="do not strip prefatory lines from over-long fixed-form poems")
    parser.add_argument("--per-poem", action="store_true",
                        help="also write per-poem rhyme annotations (JSON Lines)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poemetrics",
        description="Structural, prosodic, and lexical analysis of poetry corpora.",
    )
    parser.add_argument("--version", action="version", version=f"poemetrics {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    logging_flags = argparse.ArgumentParser(add_help=False)
    logging_flags.add_argument("-v", dest="log_level", action="store_const", const="INFO",
                               help="log progress (same as --log-level INFO)")
    logging_flags.add_argument("--log-level", default="WARNING",
                               choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                               help="logging threshold (default WARNING)")

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[logging_flags], **kwargs)

    # `compare` reports no table family, only the log-odds tables.
    for name, help_text, families in (
        ("analyze", "run all analyses", ("structure", "rhyme", "meter", "lexstats")),
        ("structure", "line/stanza statistics and occupancy grids", ("structure",)),
        ("rhyme", "end-rhyme statistics", ("rhyme",)),
        ("meter", "iambic-dominance statistics", ("meter",)),
        ("lexstats", "pronoun and touchstone statistics", ("lexstats",)),
        ("compare", "distinctive-word comparison of two corpora", ()),
    ):
        p = add_parser(name, help=help_text)
        p.add_argument("corpus", nargs=2 if name == "compare" else "+",
                       help="corpus file(s) or directory(ies)")
        if name == "analyze":
            p.add_argument("--compare", action="store_true",
                           help="also compare the first two corpora (log-odds tables)")
        _add_common_flags(p)
        p.set_defaults(func=cmd_analyze, families=families, compare=name == "compare")

    generate = add_parser("generate", help="collect poems over the prompt grid")
    generate.add_argument("--model", required=True, help="model identifier")
    generate.add_argument("--endpoint", default="https://api.openai.com/v1/chat/completions")
    generate.add_argument("--api-key-env", default="OPENAI_API_KEY",
                          help="environment variable holding the API key")
    generate.add_argument("--out", default=None, help="output JSON Lines file")
    generate.add_argument("--styles", nargs="+", default=None, choices=CANONICAL_STYLES)
    generate.add_argument("--subjects", nargs="+", default=None)
    generate.add_argument("--templates", nargs="+", default=None, choices=TEMPLATE_NAMES)
    generate.add_argument("--temperature", type=_bounded(float, 0), default=1.0)
    generate.add_argument("--max-output-tokens", type=_bounded(int, 1), default=1024)
    generate.add_argument("--max-retries", type=_bounded(int, 0), default=3)
    # The clocks that wait out a request start or a socket timeout hold at most
    # threading.TIMEOUT_MAX seconds.
    generate.add_argument("--rate-limit", type=_bounded(float, 1 / threading.TIMEOUT_MAX),
                          default=None, help="max requests per second")
    generate.add_argument("--concurrency", type=_bounded(int, 1), default=4)
    generate.add_argument("--timeout", type=_bounded(float, 0, threading.TIMEOUT_MAX, above=True),
                          default=120.0,
                          help="socket timeout in seconds for each request")
    generate.add_argument("--dry-run", action="store_true",
                          help="print rendered prompts without calling the endpoint")
    generate.add_argument("--no-resume", action="store_true",
                          help="overwrite the output file instead of resuming")
    generate.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # At WARNING this prints just as logging's last-resort handler did.
    logging.basicConfig(level=args.log_level, format="%(message)s")
    try:
        return args.func(args)
    except (CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
