"""Command-line front end: ingestion, analyses, and report emission.

Subcommands: analyze, generate, and structure, rhyme, meter, lexstats and
compare, which are analyze restricted to some table families (compare: the
log-odds tables only). Reports are written under an output directory as
tables/ (CSV or JSON), grids/ (occupancy matrices), plots/ (optional SVG),
annotations/ (optional per-poem rhyme) and a combined report.json. Invalid
input is rejected before any output is written: exit 1 for a corpus problem,
2 for a flag value. Output is deterministic: identical inputs and flags produce
byte-identical reports. --threads N scores the poems in up to N forked worker
processes; their numbers are folded here in input order, the same additions in
the same order as scoring in process, so the bytes do not depend on N.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from operator import add
from pathlib import Path

from . import __version__
from .arpabet import PronouncingDictionary, bundled_dictionary_path, load_dictionary
from .corpus import (
    Corpus,
    CorpusError,
    EXPECTED_FORM_LENGTHS,
    load_corpus,
    strip_prefatory,
)
from .generate import (
    AuthenticationError,
    ChatCompletionsClient,
    DEFAULT_STYLES,
    DEFAULT_SUBJECTS,
    DEFAULT_TEMPLATES,
    GenerationJob,
    build_grid,
    check_specs,
    run_job,
)
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


def _write_table(out_dir: Path, name: str, columns: list[str], rows: list[dict], text: str,
                 fmt: str) -> None:
    """Write one table as CSV, or as text, its rows' _json_text."""
    tables = out_dir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        (tables / f"{name}.csv").write_text(buf.getvalue(), encoding="utf-8")
    else:
        (tables / f"{name}.json").write_text(text + "\n", encoding="utf-8")


class _JSONText(str):
    """Text that _json_text gave at nesting level 0, placed as is in a later _json_text."""


# The types whose values the C encoder writes as the indenting encoder does.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_chunks(obj, level: int = 0):
    """The pieces of json.dumps(obj, indent=2, sort_keys=True), for JSON data with string keys.

    json.dumps runs its pure-Python encoder whenever indent is set. Here each
    object or list of scalars, and each list of non-empty objects of scalars
    (table rows), is encoded by the C encoder in one call with a raw NUL, which
    encoded JSON never holds, between its items, and the NULs become the
    indented layout; other containers are laid out item by item. level is
    obj's nesting depth, two spaces of indent each; a _JSONText is re-indented
    to it.
    """
    pad = "\n" + "  " * level
    inner = pad + "  "
    if isinstance(obj, _JSONText):
        yield obj.replace("\n", pad)
    elif not isinstance(obj, (dict, list, tuple)):
        yield json.dumps(obj)
    elif not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    elif _SCALARS.issuperset(map(type, obj.values() if isinstance(obj, dict) else obj)):
        text = json.dumps(obj, separators=("\0", ": "), sort_keys=True)
        yield text[0] + inner + text[1:-1].replace("\0", "," + inner) + pad + text[-1]
    elif isinstance(obj, dict):
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "{") + inner + json.dumps(key) + ": "
            yield from _json_chunks(value, level + 1)
        yield pad + "}"
    elif ({dict}.issuperset(map(type, obj)) and all(obj)
            and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, obj))))):
        # A row's items end in a scalar, never "}", so "}\0{" parts two rows.
        text = json.dumps(obj, separators=("\0", ": "), sort_keys=True)
        key = inner + "  "
        yield "[" + inner + "{" + key
        yield text[2:-2].replace("}\0{", inner + "}," + inner + "{" + key).replace("\0", "," + key)
        yield inner + "}" + pad + "]"
    else:
        for i, value in enumerate(obj):
            yield ("," if i else "[") + inner
            yield from _json_chunks(value, level + 1)
        yield pad + "]"


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), from _json_chunks."""
    return "".join(_json_chunks(obj))


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


# Contiguous poems of one corpus per worker task under --threads N > 1.
_CHUNK_POEMS = 400

# The run a scoring worker process serves; set by _start_worker, in workers only.
_worker_run: tuple = ()


def _score_poems(records, families, dictionary, threshold, per_poem, counted):
    """Score each record once, in input order, computing only the families asked for.

    Yields per poem its line count, stanza sizes, rhyme counts, --per-poem line,
    meter scan, pronoun counts and touchstone hits; a family not asked for
    yields None. Each non-blank line is tokenized once, on the poem's first read
    of its tokens, and end words, meter, pronouns, touchstones and word counts
    all come from them. Each poem's tokens are added to counted, unless None.
    """
    for record in records:
        poem = parse_structure(record)
        rhyme = line = scan = pronouns = hits = None
        if counted is not None or "lexstats" in families:
            words = tuple(chain.from_iterable(poem.tokens))
        if counted is not None:
            counted.add(words)
        if "rhyme" in families:
            annotation = annotate_rhymes(poem, dictionary)
            rhyme = annotation.counts()
            if per_poem:
                line = json.dumps({**annotation.to_json_dict(), "id": record.id},
                                  ensure_ascii=False, sort_keys=True)
        if "meter" in families:
            scan = scan_poem(poem, dictionary, threshold)
        if "lexstats" in families:
            pronouns, hits = pronoun_counts(words), touchstone_hits(words)
        yield poem.line_count, poem.stanza_sizes, rhyme, line, scan, pronouns, hits


def _fold_poems(scored, grid, records, scores, families) -> None:
    """Add each record's _score_poems numbers to its corpus's ALL group and its style's group.

    scored is the corpus's (ALL group, groups by style, --per-poem lines). Each
    record's text is added to grid, the corpus's OccupancyGrid, unless it is None.
    """
    everything, by_style, lines = scored
    for record, score in zip(records, scores):
        line_count, stanza_sizes, rhyme, line, scan, pronouns, hits = score
        if grid is not None:
            grid.add(record.text)
        for group in (everything, by_style[record.style]):
            group.line_counts[line_count] += 1
            group.quatrains.add(stanza_sizes)
            if rhyme is not None:
                group.rhyme.add(rhyme)
            if "meter" in families:
                group.meter.add(scan)
            if pronouns is not None:
                group.pronouns = list(map(add, group.pronouns, pronouns))
                group.touchstones = list(map(add, group.touchstones, hits))
        if line is not None:
            lines.append(line)


def _start_worker(*run) -> None:
    global _worker_run
    _worker_run = run


def _score_chunk(chunk: tuple[int, int]):
    """A worker's _score_poems list of the chunk (corpus index, first poem), with its WordCounts."""
    i, start = chunk
    corpora, families, dictionary, threshold, per_poem, compared, stopwords = _worker_run
    counted = WordCounts(stopwords) if i < compared else None
    records = corpora[i].records[start:start + _CHUNK_POEMS]
    return list(_score_poems(records, families, dictionary, threshold, per_poem, counted)), counted


def _score_corpora(corpora, families, dictionary, threshold, per_poem, compared, processes,
                   grids):
    """Score every poem once and fold it into its groups and its corpus's grid.

    grids holds one OccupancyGrid or None per corpus; each poem's text is added
    to its corpus's grid as the poem is folded. Returns per corpus its ALL group,
    its groups by style (keyed by record.style, None for unlabeled) and its
    --per-poem lines; and the WordCounts of the first `compared` corpora. Poems
    are scored on a copy of dictionary whose memos start empty and are dropped
    on return. Each corpus is cut into chunks of _CHUNK_POEMS poems; when
    min(processes, chunks) > 1 and fork is available, that many forked workers,
    each with its own inherited copy, score the chunks, and this process folds
    them, records and grids included, in input order, so every float sum is
    added in the same order as in process, and integer word counts merge
    exactly. Otherwise each poem is scored and folded here as it is read.
    """
    dictionary = replace(dictionary)
    stopwords = load_stopwords() if compared else frozenset()
    counted = [WordCounts(stopwords) for _ in corpora[:compared]]
    scored = [(_Group(), defaultdict(_Group), []) for _ in corpora]
    poems = sum(map(len, corpora))
    chunks = [(i, start) for i, corpus in enumerate(corpora)
              for start in range(0, len(corpus), _CHUNK_POEMS)]
    workers = min(processes, len(chunks))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            logger.info("scoring %d poems in %d chunks on %d processes", poems, len(chunks),
                        workers)
            run = (corpora, families, dictionary, threshold, per_poem, compared, stopwords)
            # With fork, run reaches each worker unpickled; only chunks and results travel.
            pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                       _start_worker, run)
            try:
                results = pool.map(_score_chunk, chunks)
                for (i, start), (scores, counts) in zip(chunks, results):
                    records = corpora[i].records[start:start + _CHUNK_POEMS]
                    _fold_poems(scored[i], grids[i], records, scores, families)
                    if counts is not None:
                        counted[i].update(counts)
            finally:
                pool.shutdown(cancel_futures=True)
            return scored, counted
    logger.info("scoring %d poems in process", poems)
    for i, corpus in enumerate(corpora):
        scores = _score_poems(corpus.records, families, dictionary, threshold, per_poem,
                              counted[i] if i < compared else None)
        _fold_poems(scored[i], grids[i], corpus.records, scores, families)
    return scored, counted


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


def _fold_tables(corpora, scored, families):
    """The families' per-(corpus, style) tables, rows in order ALL, each style, then unlabeled.

    Also returns, per corpus label, each group's line-count summary for the
    boxplots, and with lexstats the touchstones table of each corpus's ALL group.
    """
    tables: dict[str, list[dict]] = {}
    boxplots: dict[str, list[tuple[str, LengthSummary]]] = {}
    for corpus, (everything, by_style, _) in zip(corpora, scored):
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


def _compare_tables(a: WordCounts, b: WordCounts, s: AnalysisSettings) -> dict:
    cols = ["word", "delta", "variance", "z", "doc_freq_a", "doc_freq_b"]
    def rows_for(results):
        return [
            {"word": r.word, "delta": r.delta, "variance": r.variance,
             "z": r.z_score, "doc_freq_a": r.doc_freq_a, "doc_freq_b": r.doc_freq_b}
            for r in results
        ]
    return {
        "logodds": (cols, rows_for(fold_logodds(a, b, s.min_docs, s.alpha_total))),
        "first_words": (cols, rows_for(fold_first_word_logodds(a, b, s.min_docs,
                                                               s.alpha_total))),
    }


def _load_corpora(paths: list[str], args) -> list[Corpus]:
    corpora = []
    labels_seen: set[str] = set()
    for raw in paths:
        loaded = load_corpus(
            raw, default_source=args.source_default, default_style=args.style_default
        )
        if not loaded.records:
            raise CorpusError(f"corpus has no poems: {raw}")
        for record in loaded.records:
            # These labels name the ALL and unlabeled rows; a style so named would share their key.
            if record.style in (ALL_STYLES, UNLABELED):
                raise CorpusError(f"{raw}: poem {record.id!r}: style {record.style!r} is reserved")
        label = loaded.label
        n = 2
        while label in labels_seen:
            label = f"{loaded.label}-{n}"
            n += 1
        labels_seen.add(label)
        records = loaded.records
        if not args.no_strip_prefatory:
            records = tuple(
                strip_prefatory(r, EXPECTED_FORM_LENGTHS.get(r.style or "")) for r in records
            )
        corpora.append(Corpus(label=label, records=records))
    return corpora


def _write_report(
    out_dir: Path,
    fmt: str,
    tables: dict[str, tuple[list[str], list[dict]]],
    grids: dict[str, object],
    dictionary: PronouncingDictionary,
    settings: AnalysisSettings,
    corpora: list[Corpus],
) -> None:
    """Write each table, each grid and report.json, which holds every table's JSON rows.

    Each table's rows are encoded once, for its JSON table file and report.json alike.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = {name: _JSONText(_json_text(rows)) for name, (_, rows) in sorted(tables.items())}
    for name, text in texts.items():
        columns, rows = tables[name]
        _write_table(out_dir, name, columns, rows, text, fmt)
    if grids:
        grid_dir = out_dir / "grids"
        grid_dir.mkdir(parents=True, exist_ok=True)
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
    report = {"metadata": metadata, "tables": texts}
    with open(out_dir / "report.json", "w", encoding="utf-8") as handle:
        handle.writelines(_json_chunks(report))
        handle.write("\n")


def _write_plots(out_dir: Path, tables, grids, boxplots, top_k: int) -> None:
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
        (plot_dir / f"occupancy_{label}.svg").write_text(
            svgplot.heatmap_svg(grids[label], title=f"occupancy: {label}"), encoding="utf-8"
        )
    for name in ("logodds", "first_words"):
        if name not in tables:
            continue
        _, rows = tables[name]
        # Rows are sorted by z descending; only z > 0 favors the first corpus.
        top = [r for r in rows[:top_k] if r["z"] > 0]
        if not top:
            continue
        scale = top[0]["z"]
        (plot_dir / f"{name}_top{top_k}.svg").write_text(
            svgplot.barchart_svg(
                [(r["word"], r["z"]) for r in top],
                title=f"most distinctive {name.replace('_', ' ')} (z)",
                max_value=scale,
            ),
            encoding="utf-8",
        )


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
    grids = {c.label: OccupancyGrid(settings.heatmap_rows, settings.heatmap_cols)
             for c in corpora} if "structure" in families else {}
    scored, counted = _score_corpora(corpora, families, dictionary, settings.iambic_threshold,
                                     per_poem, 2 if compare else 0, args.threads,
                                     [grids.get(c.label) for c in corpora])
    tables, boxplots = _fold_tables(corpora, scored, families)
    if compare:
        tables.update(_compare_tables(*counted, settings))

    out_dir = Path(args.out)
    if per_poem:
        annotations_dir = out_dir / "annotations"
        annotations_dir.mkdir(parents=True, exist_ok=True)
        for corpus, (_, _, lines) in zip(corpora, scored):
            with open(annotations_dir / f"rhyme_{corpus.label}.jsonl", "w",
                      encoding="utf-8") as handle:
                handle.writelines(line + "\n" for line in lines)
    _write_report(out_dir, args.format, tables, grids, dictionary, settings, corpora)
    if args.emit_plots:
        _write_plots(out_dir, tables, grids, boxplots, settings.top_k)
    print(f"report written to {args.out}")
    return 0


def cmd_generate(args) -> int:
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
    corpus = run_job(job, client)
    print(f"{len(corpus)} poems in {args.out}")
    return 0


def _bounded(kind: type, low: int, high: float = math.inf, *, above: bool = False):
    """argparse type: a finite kind (int or float) at least low, or greater than low when
    above, and at most high; any other value, NaN included, is a usage error."""
    if high < math.inf:
        bound = f"from {low} to {high}"
    else:
        bound = f"{'greater than' if above else 'at least'} {low}"
        bound += " and finite" if kind is float else ""

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
                        help="worker processes for scoring poems (default 1: in this process); "
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
    generate.add_argument("--styles", nargs="+", default=None, choices=DEFAULT_STYLES)
    generate.add_argument("--subjects", nargs="+", default=None)
    generate.add_argument("--templates", nargs="+", default=None,
                          choices=DEFAULT_TEMPLATES)
    generate.add_argument("--temperature", type=_bounded(float, 0), default=1.0)
    generate.add_argument("--max-output-tokens", type=_bounded(int, 1), default=1024)
    generate.add_argument("--max-retries", type=_bounded(int, 0), default=3)
    generate.add_argument("--rate-limit", type=_bounded(float, 0, above=True), default=None,
                          help="max requests per second")
    generate.add_argument("--concurrency", type=_bounded(int, 1), default=4)
    generate.add_argument("--timeout", type=_bounded(float, 0, above=True), default=120.0,
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
    except (CorpusError, ValueError, OSError, AuthenticationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
