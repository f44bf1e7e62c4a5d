from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import logging
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import asdict
from itertools import cycle, islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from poemetrics import __version__, cli, lexstats, meter, rhyme, structure
from poemetrics import corpus as corpus_module
from poemetrics.cli import main
from poemetrics.corpus import EXPECTED_FORM_LENGTHS, load_corpus, strip_prefatory

from conftest import DATA_DIR

HUMAN = str(DATA_DIR / "fixture_human.jsonl")
GPT = str(DATA_DIR / "fixture_gpt.jsonl")

SINGLE_CORPUS_TABLES = {"lengths", "quatrains", "rhyme", "meter", "pronouns", "touchstones"}


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_analyze_writes_six_table_families(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["analyze", HUMAN, GPT, "--out", str(out), "--min-docs", "1"]) == 0
    tables = {p.stem for p in (out / "tables").glob("*.csv")}
    assert tables == SINGLE_CORPUS_TABLES
    report = json.loads((out / "report.json").read_text())
    assert set(report["tables"]) == SINGLE_CORPUS_TABLES
    assert report["metadata"]["dictionary_sha256"]
    assert report["metadata"]["corpora"] == {"fixture_human": 4, "fixture_gpt": 4}
    grids = sorted(p.name for p in (out / "grids").glob("*.csv"))
    assert grids == ["occupancy_fixture_gpt.csv", "occupancy_fixture_human.csv"]


def test_analyze_compare_adds_logodds_tables(tmp_path):
    out = tmp_path / "report"
    assert main([
        "analyze", GPT, HUMAN, "--compare", "--out", str(out), "--min-docs", "1",
    ]) == 0
    tables = {p.stem for p in (out / "tables").glob("*.csv")}
    assert tables == SINGLE_CORPUS_TABLES | {"logodds", "first_words"}
    header = (out / "tables" / "logodds.csv").read_text().splitlines()[0]
    assert header == "word,delta,variance,z,doc_freq_a,doc_freq_b"


def test_corpora_of_one_stem_are_relabelled_in_order(tmp_path):
    # One corpus of each reader type: an indexed JSON Lines file and a CSV file read whole.
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    shutil.copy(HUMAN, tmp_path / "a" / "poems.jsonl")
    with open(tmp_path / "b" / "poems.csv", "w", encoding="utf-8", newline="") as handle:
        fields = ["id", "text", "source", "style", "subject", "template", "title"]
        writer = csv.DictWriter(handle, fields)
        writer.writeheader()
        writer.writerows(r.to_json_dict() for r in load_corpus(GPT))
    out = tmp_path / "report"
    assert main(["analyze", str(tmp_path / "a" / "poems.jsonl"), str(tmp_path / "b" / "poems.csv"),
                 "--compare", "--min-docs", "1", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["metadata"]["corpora"] == {"poems": 4, "poems-2": 4}
    for name in SINGLE_CORPUS_TABLES:
        assert {row["source"] for row in report["tables"][name]} == {"poems", "poems-2"}, name
    assert sorted(p.name for p in (out / "grids").iterdir()) == [
        "occupancy_poems-2.csv", "occupancy_poems-2.json",
        "occupancy_poems.csv", "occupancy_poems.json"]


def test_analyze_is_deterministic_across_thread_counts(tmp_path):
    out1 = tmp_path / "t1"
    out8 = tmp_path / "t8"
    args = ["analyze", HUMAN, GPT, "--compare", "--min-docs", "1", "--emit-plots"]
    assert main([*args, "--out", str(out1), "--threads", "1"]) == 0
    assert main([*args, "--out", str(out8), "--threads", "8"]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out8)


def _styled_corpus(path: Path, size: int, offset: int) -> str:
    """size poems drawn in turn from both fixtures, styled sonnet, ode, unlabeled and haiku."""
    texts = [r.text for p in (HUMAN, GPT) for r in load_corpus(p)]
    styles = ("sonnet", "ode", None, "haiku")
    rows = [{"id": f"{path.stem}-{i}", "text": texts[(offset + i) % len(texts)], "source": "human",
             **({"style": styles[i % 4]} if styles[i % 4] else {})} for i in range(size)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, sizes, flags", [
    ("analyze", (9,), ["--per-poem", "--emit-plots"]),
    ("analyze", (7, 3, 10),
     ["--compare", "--min-docs", "1", "--per-poem", "--emit-plots", "--format", "json"]),
    # Grids only: no word counts and no rhyme lines travel with the chunks.
    ("structure", (7, 3, 10), ["--emit-plots", "--heatmap-rows", "12", "--heatmap-cols", "30"]),
], ids=["one-corpus", "three-corpora", "structure"])
def test_process_pool_is_byte_identical_across_chunk_edges(command, sizes, flags, tmp_path,
                                                           monkeypatch, caplog):
    # Chunks of 2 poems end inside style groups and split each corpus; fork carries the patch.
    # 5 processes claim from one pipe on fewer cores.
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 2)
    caplog.set_level(logging.INFO, logger=cli.__name__)
    corpora = [_styled_corpus(tmp_path / f"c{i}.jsonl", n, 3 * i) for i, n in enumerate(sizes)]
    trees = []
    for threads in (1, 2, 3, 5):
        out = tmp_path / f"t{threads}"
        assert main([command, *corpora, *flags, "--threads", str(threads),
                     "--out", str(out)]) == 0
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1] == trees[2] == trees[3]
    chunks = sum((n + 1) // 2 for n in sizes)
    assert [r.getMessage() for r in caplog.records] == [
        f"scoring {sum(sizes)} poems; chunks: {chunks}, processes: {threads}"
        for threads in (1, 2, 3, 5)
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_each_poem_is_added_to_its_grid_once_in_the_scoring_fold(threads, tmp_path,
                                                                  monkeypatch):
    def no_second_walk(*args):
        raise AssertionError("occupancy_heatmap walks a corpus again")

    # Adds made in forked scoring processes are seen through a file that each appends to.
    log, add = tmp_path / "added.jsonl", structure.OccupancyGrid.add
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counting_add(grid, text):
        os.write(fd, (json.dumps(text) + "\n").encode())
        add(grid, text)

    monkeypatch.setattr(cli, "occupancy_heatmap", no_second_walk)
    monkeypatch.setattr(structure.OccupancyGrid, "add", counting_add)
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 3)
    corpora = [_styled_corpus(tmp_path / f"c{i}.jsonl", n, i) for i, n in enumerate((7, 5))]
    try:
        assert main(["analyze", *corpora, "--threads", str(threads),
                     "--out", str(tmp_path / "o")]) == 0
    finally:
        os.close(fd)
    added = [json.loads(line) for line in log.read_text().splitlines()]
    assert sorted(added) == sorted(strip_prefatory(r, EXPECTED_FORM_LENGTHS.get(r.style or "")).text
                                   for path in corpora for r in load_corpus(path))


@pytest.mark.parametrize("threads", [1, 2])
def test_each_poem_is_added_to_one_group_in_the_scoring_fold(threads, tmp_path, monkeypatch):
    # Each corpus's ALL rows are merged from its style groups, so a poem is added once, to
    # its style's group. Adds made in forked scoring processes are seen through a file.
    log = tmp_path / "added.txt"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def counting(stats_type):
        add = stats_type.add

        def counting_add(stats, item):
            os.write(fd, (stats_type.__name__ + "\n").encode())
            add(stats, item)

        monkeypatch.setattr(stats_type, "add", counting_add)

    counting(structure.QuatrainStats)
    counting(rhyme.RhymeStats)
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 3)
    corpora = [_styled_corpus(tmp_path / f"c{i}.jsonl", n, i) for i, n in enumerate((7, 5))]
    try:
        assert main(["analyze", *corpora, "--threads", str(threads),
                     "--out", str(tmp_path / "o")]) == 0
    finally:
        os.close(fd)
    assert sorted(log.read_text().splitlines()) == ["QuatrainStats"] * 12 + ["RhymeStats"] * 12


def test_worker_error_is_one_error_line_and_leaves_no_process(tmp_path, monkeypatch, capsys):
    annotate = cli.annotate_rhymes

    def fail_on_one_poem(poem, dictionary):
        if poem.lines[0].startswith("Upon the hill"):
            raise ValueError("cannot annotate this poem")
        return annotate(poem, dictionary)

    monkeypatch.setattr(cli, "annotate_rhymes", fail_on_one_poem)
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 1)
    out = tmp_path / "o"
    assert main(["analyze", HUMAN, GPT, "--per-poem", "--threads", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: cannot annotate this poem\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _in_workers(monkeypatch, act) -> None:
    """Make each forked scoring process call act() before it folds its claims."""
    parent, fold = os.getpid(), cli._fold_chunks

    def fold_after_act(*args):
        if os.getpid() != parent:
            act()
        return fold(*args)

    monkeypatch.setattr(cli, "_fold_chunks", fold_after_act)


def test_killed_worker_is_one_error_line_and_leaves_no_process(tmp_path, monkeypatch, capsys):
    _in_workers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 1)
    out = tmp_path / "o"
    assert main(["analyze", HUMAN, GPT, "--per-poem", "--threads", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: a scoring process was ended by SIGKILL\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_fork_is_one_error_line_and_leaks_nothing(tmp_path, monkeypatch, capsys):
    fork, forks = os.fork, []
    failure = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise failure
        return fork()

    def open_fds():
        return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 1)
    out = tmp_path / "o"
    before = open_fds()
    assert main(["analyze", HUMAN, GPT, "--threads", "3", "--out", str(out)]) == 1
    assert open_fds() == before
    assert len(forks) == 2
    assert capsys.readouterr().err == f"error: {failure}\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_error_in_this_process_ends_the_workers(tmp_path, monkeypatch):
    # The workers would outlive the test by far; the failed run must end them.
    _in_workers(monkeypatch, lambda: time.sleep(60))
    monkeypatch.setattr(cli, "annotate_rhymes", lambda poem, dictionary: 1 / 0)
    out = tmp_path / "o"
    started = time.monotonic()
    with pytest.raises(ZeroDivisionError):
        main(["analyze", HUMAN, GPT, "--threads", "2", "--out", str(out)])
    assert time.monotonic() - started < 30
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fault_corpus(path: Path, rows: str) -> str:
    """A corpus of one line per letter of rows: o a poem, j a line that is not JSON, r a poem
    of the reserved style ALL, d a poem with the first poem's id, b a blank line."""
    lines = {"j": lambda n: "not json", "b": lambda n: "   ",
             "o": lambda n: json.dumps({"id": f"p{n}", "text": "one\ntwo", "source": "human"}),
             "r": lambda n: json.dumps({"id": f"p{n}", "text": "x", "source": "human",
                                        "style": "ALL"}),
             "d": lambda n: json.dumps({"id": "p0", "text": "y", "source": "human"})}
    path.write_text("".join(lines[kind](n) + "\n" for n, kind in enumerate(rows)))
    return str(path)


@pytest.mark.parametrize("first, second, error", [
    ("oodoj", "oooor", "{a}: line 5: invalid JSON (Expecting value)"),
    ("ooodo", "oojoo", "duplicate poem id 'p0' in corpus 'a'"),
    ("oooooo", "oorojo", "{b}: poem 'p2': style 'ALL' is reserved"),
    ("ojoor", "oooooj", "{a}: line 2: invalid JSON (Expecting value)"),
    ("oodobr", "j", "{a}: poem 'p5': style 'ALL' is reserved"),
    ("bb", "ojr", "corpus has no poems: {a}"),
    ("oooo", "ooboodj", "{b}: line 7: invalid JSON (Expecting value)"),
], ids=["json-before-duplicate", "duplicate-before-next-corpus", "reserved-before-json",
        "first-json-wins", "reserved-before-duplicate", "empty-before-next-corpus",
        "blank-lines-count"])
def test_first_fault_is_the_error_at_every_thread_count(first, second, error, tmp_path,
                                                        monkeypatch, capsys):
    # Chunks of one poem spread the faults over the processes, which claim them in any order.
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 1)
    paths = {"a": _fault_corpus(tmp_path / "a.jsonl", first),
             "b": _fault_corpus(tmp_path / "b.jsonl", second)}
    out = tmp_path / "o"
    for threads in ("1", "2", "3"):
        assert main(["analyze", paths["a"], paths["b"], "--per-poem", "--threads", threads,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error.format(**paths)}\n", threads
        assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_process_holds_one_chunk_of_records(threads, tmp_path, monkeypatch):
    # Each process logs how many records made by the reader are alive each time it makes one.
    made, log = corpus_module._record_from_mapping, tmp_path / "live.log"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    live = []

    def counted(*args):
        record = made(*args)
        live.append(None)
        weakref.finalize(record, live.pop)
        os.write(fd, f"{os.getpid()} {len(live)}\n".encode())
        return record

    corpora = [_styled_corpus(tmp_path / f"c{i}.jsonl", 20, i) for i in range(2)]
    monkeypatch.setattr(corpus_module, "_record_from_mapping", counted)
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 3)
    try:
        assert main(["analyze", *corpora, "--compare", "--min-docs", "1", "--per-poem",
                     "--threads", threads, "--out", str(tmp_path / "o")]) == 0
    finally:
        os.close(fd)
    counts = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert len(counts) == 40
    assert len({pid for pid, _ in counts}) == int(threads)
    # One chunk, and at most the last record of the chunk before, which the fold's loop
    # variable holds until the next chunk is read.
    assert max(n for _, n in counts) <= 3 + 1


def test_grown_chunks_start_at_index_checkpoints(tmp_path, monkeypatch):
    # Chunks grow by whole _CHUNK_POEMS, so each starts where the JSON Lines index keeps a
    # line start, and no read passes over records before its span.
    assert cli._CHUNK_POEMS == corpus_module._INDEX_BLOCK
    corpora = [_styled_corpus(tmp_path / f"c{i}.jsonl", n, i) for i, n in enumerate((350, 120))]
    argv = ["analyze", *corpora, "--compare", "--min-docs", "1", "--format", "json"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    skips, read = [], corpus_module._read_jsonl

    def reading(path, rows, start, lineno, skip, count):
        skips.append(skip)
        return read(path, rows, start, lineno, skip, count)

    monkeypatch.setattr(corpus_module, "_read_jsonl", reading)
    # 470 poems in at most about 2 chunks: 235 poems each, rounded up to 300.
    monkeypatch.setattr(cli, "_MAX_CHUNKS", 2)
    assert main([*argv, "--out", str(tmp_path / "grown")]) == 0
    assert skips == [0, 0, 0]
    assert _tree_bytes(tmp_path / "grown") == _tree_bytes(tmp_path / "plain")


def _fail_in_this_process(monkeypatch):
    parent, annotate = os.getpid(), cli.annotate_rhymes

    def annotate_here(poem, dictionary):
        if os.getpid() == parent:
            raise ZeroDivisionError("scoring failed")
        return annotate(poem, dictionary)

    monkeypatch.setattr(cli, "annotate_rhymes", annotate_here)


_EAGAIN = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def _fail_to_fork(monkeypatch):
    def no_fork():
        raise _EAGAIN

    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("scenario, error", [
    ("success", None),
    ("record-fault", "line 3: invalid JSON"),
    ("worker-corpus-error", "error: raised in a worker\n"),
    ("worker-killed", "error: a scoring process was ended by SIGKILL\n"),
    ("failed-fork", f"error: {_EAGAIN}\n"),
    ("error-in-this-process", "scoring failed"),
])
def test_no_temporary_file_outlives_the_run(scenario, error, tmp_path, monkeypatch, capsys):
    def raise_corpus_error():
        raise cli.CorpusError("raised in a worker")

    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 1)
    corpus = _styled_corpus(tmp_path / "c.jsonl", 6, 0)
    if scenario == "record-fault":
        lines = Path(corpus).read_text().splitlines(keepends=True)
        Path(corpus).write_text("".join(lines[:2] + ["{\n"] + lines[3:]))
    elif scenario == "worker-corpus-error":
        _in_workers(monkeypatch, raise_corpus_error)
    elif scenario == "worker-killed":
        _in_workers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    elif scenario == "failed-fork":
        _fail_to_fork(monkeypatch)
    elif scenario == "error-in-this-process":
        _fail_in_this_process(monkeypatch)
    out = tmp_path / "o"
    argv = ["analyze", corpus, HUMAN, "--per-poem", "--threads", "3", "--out", str(out)]
    if scenario == "error-in-this-process":
        with pytest.raises(ZeroDivisionError, match=error):
            main(argv)
    else:
        assert main(argv) == (error is not None)
        assert error is None or error in capsys.readouterr().err
    assert out.exists() == (error is None)
    assert list(temp.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verbose_analyze_logs_how_poems_are_scored(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger=cli.__name__)
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 3)
    args = ["analyze", HUMAN, GPT, "-v", "--compare", "--min-docs", "1", "--format", "json"]
    assert main([*args, "--threads", "2", "--out", str(tmp_path / "pool")]) == 0
    # Without fork the poems are scored in this process, with the same bytes.
    monkeypatch.delattr(os, "fork")
    assert main([*args, "--threads", "2", "--out", str(tmp_path / "fallback")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "scoring 8 poems; chunks: 4, processes: 2", "scoring 8 poems; chunks: 4, processes: 1"]
    assert _tree_bytes(tmp_path / "pool") == _tree_bytes(tmp_path / "fallback")
    assert b"scoring" not in (tmp_path / "pool" / "report.json").read_bytes()


def test_one_chunk_is_scored_in_process(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger=cli.__name__)
    assert main(["analyze", HUMAN, "-v", "--threads", "4", "--out", str(tmp_path / "o")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"scoring {len(load_corpus(HUMAN))} poems; chunks: 1, processes: 1"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_analyze_output_does_not_depend_on_the_hash_seed(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    trees = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        run = subprocess.run(
            [sys.executable, "-m", "poemetrics.cli", "analyze", HUMAN, GPT, "--compare",
             "--min-docs", "1", "--emit-plots", "--per-poem", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]


def test_each_nonblank_line_is_tokenized_once(tmp_path, monkeypatch):
    tokenized, tokenize = [], lexstats.tokenize

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    for module in (structure, meter, rhyme, lexstats):
        monkeypatch.setattr(module, "tokenize", counting_tokenize)
    assert main(["structure", HUMAN, "--out", str(tmp_path / "structure")]) == 0
    assert tokenized == []
    assert main(["analyze", HUMAN, GPT, "--compare", "--min-docs", "1", "--per-poem",
                 "--out", str(tmp_path / "analyze")]) == 0
    records = [strip_prefatory(r, EXPECTED_FORM_LENGTHS.get(r.style or ""))
               for path in (HUMAN, GPT) for r in load_corpus(path)]
    assert tokenized == [line for r in records for line in structure.parse_structure(r).lines]


def test_plots_are_well_formed_svg(tmp_path):
    marked = tmp_path / "R&D <x>.jsonl"
    shutil.copy(HUMAN, marked)
    out = tmp_path / "plots"
    assert main(["analyze", str(marked), GPT, "--compare", "--min-docs", "1", "--emit-plots",
                 "--out", str(out)]) == 0
    plots = sorted((out / "plots").glob("*.svg"))
    assert len(plots) == 7
    titles = set()
    texts = {}
    for plot in plots:
        root = ET.parse(plot).getroot()
        texts[plot.name] = [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")]
        titles.update(texts[plot.name])
        assert all(float(e.get("width", 0)) >= 0 for e in root.iter())
    assert "line counts: R&D <x>" in titles
    # A top-k chart's texts are its title, then a word and its z per bar.
    tables = json.loads((out / "report.json").read_text(encoding="utf-8"))["tables"]
    for name in ("logodds", "first_words"):
        z = {row["word"]: row["z"] for row in tables[name]}
        charted = texts[f"{name}_top15.svg"][1::2]
        assert charted and all(z[word] > 0 for word in charted), name


# SHA-256 of every file analyze writes for the fixtures, recorded before the
# per-poem single pass replaced the per-group rescoring. A change that alters
# any of these bytes must say so and update the digests.
GOLDEN_DIGESTS = {
    "annotations/rhyme_fixture_gpt.jsonl":
        "0013d64b0fded4d7f065b16b338434c11adc46f2620e1eb1d7ae2325b9320022",
    "annotations/rhyme_fixture_human.jsonl":
        "c4a908fc43c86d295e804bcc7b260c1ccb7cef5d5bdf110277a6c86c076e02e7",
    "grids/occupancy_fixture_gpt.csv":
        "7d0603fdf3c527d56ef85123e74c1e932acf239a3f75f025f03f13c387bb8a0f",
    "grids/occupancy_fixture_gpt.json":
        "bc2eee70dd809299f17aadc7c3bed0263bf055e546481988beb3d320ca5af7f1",
    "grids/occupancy_fixture_human.csv":
        "caf64aa722531bd66bd8e05cb1b7d425bb864be4d7071106eb849a8aa63b3f78",
    "grids/occupancy_fixture_human.json":
        "b6741ac8ab0a7932c0bbf980ee1b0ae83244ad3f3fd53e9e5d6c57d0911f75cd",
    "plots/first_words_top15.svg":
        "5f0591692b046426c552ea27661bcda3b8efc0976272c6369a66fd92fb32862e",
    "plots/lengths_fixture_gpt.svg":
        "fe2a1b6ef747f2d50afc4c4f2e9e0e698405da51262bd1cad995be051744eeeb",
    "plots/lengths_fixture_human.svg":
        "d4bcfb27add237f89537171a6aa06badd4a06b5f3fbc6dde057556c4a1ac8eb7",
    "plots/logodds_top15.svg":
        "299d722eceb7ed7e043bc1facefa63305027c764842d61fcab3c5ff9adab8017",
    "plots/occupancy_fixture_gpt.svg":
        "adba797fd260fd39395fd7affaca67b74210f94b4addaadc9c72ddb6ba6a9e01",
    "plots/occupancy_fixture_human.svg":
        "f3c8af817e9f513a2e3233ca33770d1015e9bbb2d351b0c643572aa90df65f0f",
    "plots/rhyme_pct.svg":
        "6a336616303bbc8b62cd29205d5984834bae49fb3b7a1a2096eef03c2e646342",
    "report.json":
        "d4cf7df9854307e670091a52c2393612368475bf6c6b623b1b7e949655bfd5be",
    "tables/first_words.csv":
        "f9f8ad43046840e9a6bc8a17a942b008e0c9b13188a699e408dc6b5cbc245599",
    "tables/lengths.csv":
        "83cd78ad07b28c547aea6508aa37dbb964cda42d49bd2a3cce634da17f5a1b66",
    "tables/logodds.csv":
        "24238565d7e34311730a05b856dfde2cd543af85b625bab55564f62b3ad1606f",
    "tables/meter.csv":
        "744e4437d76cd2d70e1a7c57eab6f9bb1cf9f25a324cfeb47bac54b2400a33ea",
    "tables/pronouns.csv":
        "4f752e247d518ec9996fd03fe38be3cbd492c44b5d5cf5a252729328f9bbc8f9",
    "tables/quatrains.csv":
        "d1f8dab7593464d576723fe7b8cab63b5dc9e539dae1d1dd1afec911e1eb58be",
    "tables/rhyme.csv":
        "055940cc1cd709c03fb7e3b8d90b4b3bc238841fd8f5ca53fc4d8a8ade64530d",
    "tables/touchstones.csv":
        "2428e09b305ecaebff5a74d09e30787cb21b3f70e164c0344ee401ab7aee39ae",
}


def test_analyze_output_bytes_match_recorded_digests(tmp_path):
    out = tmp_path / "golden"
    assert main(["analyze", HUMAN, GPT, "--compare", "--min-docs", "1", "--emit-plots",
                 "--per-poem", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in _tree_bytes(out).items()}
    assert digests == GOLDEN_DIGESTS


def _per_corpus(pattern: str) -> set[str]:
    return {pattern.format(label) for label in ("fixture_human", "fixture_gpt")}


LENGTH_PLOTS = _per_corpus("plots/lengths_{}.svg")

# Every file each subcommand writes for the fixtures with plots and --per-poem.
OUTPUT_SETS = {
    "structure": LENGTH_PLOTS | _per_corpus("grids/occupancy_{}.csv")
    | _per_corpus("grids/occupancy_{}.json") | _per_corpus("plots/occupancy_{}.svg")
    | {"report.json", "tables/lengths.csv", "tables/quatrains.csv"},
    "rhyme": LENGTH_PLOTS | _per_corpus("annotations/rhyme_{}.jsonl")
    | {"plots/rhyme_pct.svg", "report.json", "tables/rhyme.csv"},
    "meter": LENGTH_PLOTS | {"report.json", "tables/meter.csv"},
    "lexstats": LENGTH_PLOTS | {"report.json", "tables/pronouns.csv", "tables/touchstones.csv"},
    "compare": LENGTH_PLOTS | {"plots/first_words_top15.svg", "plots/logodds_top15.svg",
                               "report.json", "tables/first_words.csv", "tables/logodds.csv"},
    "analyze": set(GOLDEN_DIGESTS),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_SETS))
def test_subcommand_writes_exactly_its_files(command, tmp_path):
    out = tmp_path / command
    compare = ["--compare"] if command == "analyze" else []
    assert main([command, HUMAN, GPT, *compare, "--min-docs", "1", "--emit-plots",
                 "--per-poem", "--out", str(out)]) == 0
    assert set(_tree_bytes(out)) == OUTPUT_SETS[command]


def test_analyze_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert main(["analyze", GPT, "--out", str(out)]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_rhyme_subcommand_writes_only_rhyme(tmp_path):
    out = tmp_path / "rhyme-only"
    assert main(["rhyme", GPT, "--out", str(out)]) == 0
    assert {p.stem for p in (out / "tables").glob("*.csv")} == {"rhyme"}
    rows = (out / "tables" / "rhyme.csv").read_text().splitlines()
    assert rows[0] == (
        "source,style,poems,poems_with_rhyme_pct,avg_rhymed_fraction,pooled_rhymed_fraction"
    )
    assert any(row.startswith("fixture_gpt,ALL,") for row in rows)


def test_structure_subcommand_writes_grids(tmp_path):
    out = tmp_path / "structure-only"
    assert main(["structure", HUMAN, "--out", str(out),
                 "--heatmap-rows", "20", "--heatmap-cols", "40"]) == 0
    assert {p.stem for p in (out / "tables").glob("*.csv")} == {"lengths", "quatrains"}
    grid_rows = (out / "grids" / "occupancy_fixture_human.csv").read_text().splitlines()
    assert len(grid_rows) == 20
    assert len(grid_rows[0].split(",")) == 40


def test_compare_subcommand(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", GPT, HUMAN, "--out", str(out), "--min-docs", "1"]) == 0
    assert {p.stem for p in (out / "tables").glob("*.csv")} == {"logodds", "first_words"}


def test_json_table_format(tmp_path):
    out = tmp_path / "json-out"
    assert main(["meter", GPT, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads((out / "tables" / "meter.json").read_text())
    assert all("pct_dominant_iambic" in row for row in rows)


def test_emit_plots_writes_svg(tmp_path):
    out = tmp_path / "plots"
    assert main(["analyze", GPT, "--out", str(out), "--emit-plots"]) == 0
    names = {p.name for p in (out / "plots").glob("*.svg")}
    assert "lengths_fixture_gpt.svg" in names
    assert "rhyme_pct.svg" in names
    assert "occupancy_fixture_gpt.svg" in names
    svg = (out / "plots" / "rhyme_pct.svg").read_text()
    assert svg.startswith("<svg ")


def test_per_poem_rhyme_annotations(tmp_path):
    out = tmp_path / "annotated"
    assert main(["rhyme", GPT, "--out", str(out), "--per-poem"]) == 0
    lines = (out / "annotations" / "rhyme_fixture_gpt.jsonl").read_text().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["id"] == "gpt4-0001"
    assert first["rhymed_fraction"] == 1.0


def test_strip_prefatory_default_on(tmp_path):
    # A sonnet-styled record with a leading dedication is trimmed to 14
    # lines by default and left alone with --no-strip-prefatory.
    body = (DATA_DIR / "sonnet18.txt").read_text().rstrip("\n")
    record = {"id": "s", "text": "for the reader:\n" + body, "source": "human",
              "style": "sonnet"}
    corpus_path = tmp_path / "dedicated.jsonl"
    corpus_path.write_text(json.dumps(record) + "\n")

    out_on = tmp_path / "on"
    assert main(["structure", str(corpus_path), "--out", str(out_on)]) == 0
    rows = (out_on / "tables" / "lengths.csv").read_text().splitlines()
    assert any(row.startswith("dedicated,ALL,1,14.000000") for row in rows)

    out_off = tmp_path / "off"
    assert main(["structure", str(corpus_path), "--out", str(out_off),
                 "--no-strip-prefatory"]) == 0
    rows = (out_off / "tables" / "lengths.csv").read_text().splitlines()
    assert any(row.startswith("dedicated,ALL,1,15.000000") for row in rows)


def _lengths_rows(tmp_path, records: list[dict]) -> list[tuple[str, int, float]]:
    """(style, poems, median) of each lengths row of `structure` on one corpus."""
    corpus_path = tmp_path / "styled.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    assert main(["structure", str(corpus_path), "--out", str(out), "--format", "json"]) == 0
    rows = json.loads((out / "report.json").read_text())["tables"]["lengths"]
    return [(row["style"], row["poems"], row["median"]) for row in rows]


def test_group_rows_are_all_then_sorted_styles_then_unlabeled(tmp_path):
    records = [{"id": "a", "text": "one line", "source": "human", "style": "sonnet"},
               {"id": "b", "text": "one line", "source": "human", "style": "ode"},
               {"id": "c", "text": "one line", "source": "human"}]
    assert [row[:2] for row in _lengths_rows(tmp_path, records)] == [
        ("ALL", 3), ("ode", 1), ("sonnet", 1), ("(none)", 1)]


def test_literal_none_style_row_holds_its_own_poems(tmp_path, capsys):
    # A style spelled like the ALL or unlabeled row's label would share that row's key.
    for style in ("ALL", "(none)"):
        records = [{"id": "c", "text": "one line", "source": "human"},
                   {"id": "a", "text": "two\nlines", "source": "human", "style": style}]
        corpus_path = tmp_path / "styled.jsonl"
        corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out"
        assert main(["analyze", str(corpus_path), "--per-poem", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {corpus_path}: poem 'a': style {style!r} is reserved\n")
        assert not out.exists()


def test_json_number_style_joins_its_text_group(tmp_path):
    records = [{"id": "a", "text": "one line", "source": "human", "style": 5},
               {"id": "b", "text": "two\nlines", "source": "human", "style": "5"},
               {"id": "c", "text": "one line", "source": "human", "style": "ode"}]
    assert _lengths_rows(tmp_path, records) == [("ALL", 3, 1.0), ("5", 2, 1.5), ("ode", 1, 1.0)]


def test_json_array_field_fails_before_writing(tmp_path, capsys):
    corpus_path = tmp_path / "listed.jsonl"
    corpus_path.write_text(json.dumps({"id": "a", "text": "x", "source": "human"}) + "\n"
                           + json.dumps({"id": "b", "text": ["a"], "source": "human"}) + "\n")
    out = tmp_path / "out"
    assert main(["structure", str(corpus_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {corpus_path}: line 2: field 'text' must be a string or a number, "
        "not an array\n")
    assert not out.exists()


@pytest.mark.parametrize("name, content, where", [
    ("poems.jsonl", b'{"id": "a", "text": "x", "source": "human"}\n'
                    b'{"id": "b", "text": "caf\xe9", "source": "human"}\n', "poems.jsonl: line 2"),
    ("poems.csv", b'id,text,source\na,x,human\nb,caf\xe9,human\n', "poems.csv: line 3"),
    ("poems/b.txt", b"caf\xe9\n", "poems/b.txt: line 1"),
], ids=["jsonl", "csv", "directory"])
def test_corpus_that_is_not_utf8_names_its_file(name, content, where, tmp_path, capsys):
    (tmp_path / "poems").mkdir()
    (tmp_path / "poems" / "a.txt").write_text("fine\n")
    (tmp_path / name).write_bytes(content)
    out = tmp_path / "out"
    corpus = tmp_path / name.split("/")[0]
    assert main(["structure", str(corpus), "--source-default", "human", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / where}: byte 0xe9 is not UTF-8\n"
    assert not out.exists()


def test_directory_corpus_with_source_default(tmp_path):
    out = tmp_path / "dir-report"
    assert main([
        "structure", str(DATA_DIR / "poems_dir"), "--out", str(out),
        "--source-default", "human",
    ]) == 0
    rows = (out / "tables" / "lengths.csv").read_text().splitlines()
    assert any(row.startswith("poems_dir,ALL,2,") for row in rows)


def test_missing_corpus_argument_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def test_nonexistent_corpus_path_fails_cleanly(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "does not exist" in capsys.readouterr().err


def test_compare_requires_two_corpora(tmp_path, capsys):
    code = main(["analyze", GPT, "--compare", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "two corpora" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["analyze", GPT, "--compare", "--per-poem"], "--compare requires two corpora"),
    (["analyze", HUMAN, GPT, "--compare", "--per-poem", "--min-docs", "1000"],
     "empty vocabulary"),
    (["analyze", "EMPTY"], "corpus has no poems: EMPTY"),
    (["compare", "EMPTY", GPT], "corpus has no poems: EMPTY"),
], ids=["compare-one-corpus", "empty-vocabulary", "analyze-empty", "compare-empty"])
def test_invalid_input_fails_before_writing(argv, message, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "o"
    argv = [str(empty) if arg == "EMPTY" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message.replace("EMPTY", str(empty)) in err
    assert not out.exists()


# The longest wait the clocks hold: a longer --timeout, or a --rate-limit that spaces
# requests further apart, would overflow them.
_CLOCK_MAX = threading.TIMEOUT_MAX


@pytest.mark.parametrize("argv, message", [
    (["analyze", GPT, "--heatmap-rows", "0", "--per-poem"], "must be at least 1, got 0"),
    (["structure", GPT, "--heatmap-cols", "0"], "must be at least 1, got 0"),
    (["analyze", HUMAN, GPT, "--compare", "--emit-plots", "--top-k", "-2"],
     "must be at least 0, got -2"),
    (["generate", "--concurrency", "0"], "must be at least 1, got 0"),
    (["generate", "--max-retries", "-1"], "must be at least 0, got -1"),
    (["generate", "--timeout", "0"], f"must be greater than 0 and at most {_CLOCK_MAX}, got 0.0"),
    (["generate", "--timeout", "inf"], f"must be greater than 0 and at most {_CLOCK_MAX}, got inf"),
    (["generate", "--timeout", "1e10"],
     f"must be greater than 0 and at most {_CLOCK_MAX}, got 10000000000.0"),
    (["generate", "--rate-limit", "0"], f"must be at least {1 / _CLOCK_MAX} and finite, got 0.0"),
    (["generate", "--rate-limit", "-1"], f"must be at least {1 / _CLOCK_MAX} and finite, got -1.0"),
    (["generate", "--rate-limit", "nan"], f"must be at least {1 / _CLOCK_MAX} and finite, got nan"),
    (["generate", "--rate-limit", "1e-12"],
     f"must be at least {1 / _CLOCK_MAX} and finite, got 1e-12"),
    (["analyze", GPT, "--alpha-total", "0"], "must be greater than 0 and finite, got 0.0"),
    (["analyze", GPT, "--alpha-total", "-1"], "must be greater than 0 and finite, got -1.0"),
    (["compare", HUMAN, GPT, "--alpha-total", "nan"], "must be greater than 0 and finite, got nan"),
    (["meter", GPT, "--iambic-threshold", "nan"], "must be from 0 to 1, got nan"),
    (["analyze", GPT, "--iambic-threshold", "1.5"], "must be from 0 to 1, got 1.5"),
    (["analyze", GPT, "--iambic-threshold", "-0.1"], "must be from 0 to 1, got -0.1"),
    (["generate", "--temperature", "nan"], "must be at least 0 and finite, got nan"),
    (["generate", "--temperature", "-1"], "must be at least 0 and finite, got -1.0"),
    (["generate", "--temperature", "inf"], "must be at least 0 and finite, got inf"),
    (["generate", "--max-output-tokens", "0"], "must be at least 1, got 0"),
    (["generate", "--styles", "free-verse"], "invalid choice: 'free-verse'"),
    (["compare", HUMAN, GPT, "--min-docs", "-3"], "must be at least 0, got -3"),
    (["analyze", GPT, "--threads", "0"], "must be at least 1, got 0"),
    (["generate", "--templates", "bogus"], "invalid choice: 'bogus'"),
], ids=["heatmap-rows", "heatmap-cols", "top-k", "concurrency", "max-retries",
        "timeout-zero", "timeout-inf", "timeout-past-clock", "rate-limit-zero",
        "rate-limit-negative", "rate-limit-nan", "rate-limit-past-clock",
        "alpha-total-zero", "alpha-total-negative", "alpha-total-nan", "iambic-threshold-nan",
        "iambic-threshold-above-1", "iambic-threshold-negative", "temperature-nan",
        "temperature-negative", "temperature-inf", "max-output-tokens-zero", "styles-free-verse",
        "min-docs-negative", "threads-zero", "templates-bogus"])
def test_out_of_range_flag_is_a_usage_error(argv, message, tmp_path, capsys, monkeypatch):
    from mock_server import MockChatEndpoint

    monkeypatch.setenv("POEM_TEST_KEY", "k")
    out = tmp_path / "o"
    with MockChatEndpoint() as endpoint:
        if argv[0] == "generate":
            argv = [*argv, "--model", "gpt-4", "--out", str(out / "gen.jsonl"),
                    "--endpoint", endpoint.url, "--api-key-env", "POEM_TEST_KEY",
                    "--styles", "haiku", "--subjects", "nature", "--templates", "general"]
        else:
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert endpoint.requests == []


def test_dry_run_prints_full_grid(capsys):
    assert main(["generate", "--model", "gpt-4", "--dry-run"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2880
    assert all(line.startswith("Write a poem about the subject of ") for line in lines)


def test_dry_run_custom_grid(capsys):
    assert main([
        "generate", "--model", "gpt-4", "--dry-run",
        "--styles", "sonnet", "--subjects", "love", "--templates", "figurative",
    ]) == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        "Write a poem about the subject of love in the following form or style: "
        "sonnet. Do not use the actual word(s) love or sonnet in the poem."
    )


def test_generate_requires_out_path(capsys):
    assert main(["generate", "--model", "gpt-4"]) == 2
    assert "--out" in capsys.readouterr().err


def test_endpoint_without_http_scheme_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "gen.jsonl"
    assert main(["generate", "--model", "gpt-4", "--out", str(out),
                 "--endpoint", "localhost:8080/v1/chat/completions"]) == 2
    assert "--endpoint must be an http:// or https:// URL" in capsys.readouterr().err
    assert not out.exists()


def test_generate_requires_api_key(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("POEM_TEST_KEY", raising=False)
    code = main([
        "generate", "--model", "gpt-4", "--out", str(tmp_path / "c.jsonl"),
        "--api-key-env", "POEM_TEST_KEY",
    ])
    assert code == 1
    assert "POEM_TEST_KEY" in capsys.readouterr().err


def test_generate_against_mock_endpoint(tmp_path, monkeypatch):
    from mock_server import MockChatEndpoint

    monkeypatch.setenv("POEM_TEST_KEY", "k")
    out = tmp_path / "gen.jsonl"
    with MockChatEndpoint() as endpoint:
        code = main([
            "generate", "--model", "gpt-4", "--out", str(out),
            "--endpoint", endpoint.url, "--api-key-env", "POEM_TEST_KEY",
            "--styles", "haiku", "--subjects", "nature", "--templates", "general",
            "--max-retries", "0",
        ])
    assert code == 0
    from poemetrics.corpus import load_corpus

    assert len(load_corpus(out)) == 1


@pytest.mark.parametrize("grid, message", [
    (["--styles", "sonnet", "sonnet", "--subjects", "love"], "share the record id"),
    (["--styles", "sonnet", "--subjects", ""], "blank subject"),
    (["--styles", "sonnet", "--subjects", "Love", "love"], "share the record id"),
], ids=["repeated-key", "blank-subject", "shared-id"])
def test_grid_that_would_corrupt_the_file_is_a_usage_error(grid, message, tmp_path, capsys,
                                                           monkeypatch):
    from mock_server import MockChatEndpoint

    monkeypatch.setenv("POEM_TEST_KEY", "k")
    out = tmp_path / "o" / "gen.jsonl"
    with MockChatEndpoint() as endpoint:
        code = main(["generate", "--model", "gpt-4", "--out", str(out),
                     "--endpoint", endpoint.url, "--api-key-env", "POEM_TEST_KEY",
                     "--templates", "general", *grid])
        assert endpoint.requests == []
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.parent.exists()


def test_rejected_api_key_is_an_error_line(tmp_path, capsys, monkeypatch):
    from mock_server import MockChatEndpoint

    monkeypatch.setenv("POEM_TEST_KEY", "wrong-key")
    with MockChatEndpoint(expect_key="right-key") as endpoint:
        code = main([
            "generate", "--model", "gpt-4", "--out", str(tmp_path / "gen.jsonl"),
            "--endpoint", endpoint.url, "--api-key-env", "POEM_TEST_KEY",
            "--styles", "haiku", "--subjects", "nature", "love", "--templates", "general",
            "--concurrency", "1",
        ])
        assert len(endpoint.requests) == 1  # the second prompt was never sent
    assert code == 1
    assert capsys.readouterr().err == "error: endpoint returned 401\n"


_HAIKU_ROW = json.dumps({"id": "a", "text": "x", "source": "gpt4", "style": "haiku",
                         "subject": "nature", "template": "general", "model": "gpt-4"})
# A row whose subject holds the byte 0xe9, which is not UTF-8 on its own.
_LATIN1_ROW = _HAIKU_ROW.replace("nature", "caf\udce9")


@pytest.mark.parametrize("content, message", [
    (f"{_HAIKU_ROW}\nnot json\n{_HAIKU_ROW.replace('nature', 'love')}\n",
     "line 2: invalid JSON"),
    (f"{_HAIKU_ROW}\n[1, 2]\n", "line 2: record is not a JSON object"),
    (f"{_HAIKU_ROW}\n[1, 2]", "line 2: record is not a JSON object"),
    (f"{_HAIKU_ROW}\n{_LATIN1_ROW}\n", "line 2: byte 0xe9 is not UTF-8"),
], ids=["interior-garbage", "non-object", "unterminated-non-object", "not-utf8"])
def test_bad_resume_row_fails_before_any_request(content, message, tmp_path, capsys,
                                                 monkeypatch):
    from mock_server import MockChatEndpoint

    monkeypatch.setenv("POEM_TEST_KEY", "k")
    out = tmp_path / "gen.jsonl"
    out.write_bytes(content.encode("utf-8", "surrogateescape"))
    with MockChatEndpoint() as endpoint:
        code = main([
            "generate", "--model", "gpt-4", "--out", str(out),
            "--endpoint", endpoint.url, "--api-key-env", "POEM_TEST_KEY",
            "--styles", "haiku", "--subjects", "nature", "love", "rain", "--templates", "general",
        ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: {message}") and err.count("\n") == 1
    assert endpoint.requests == []


def _generate_in_subprocess(out: Path, url: str, *flags: str):
    # A fresh process: pytest's own log handlers would make basicConfig a no-op.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "POEM_TEST_KEY": "k", "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "poemetrics.cli", "generate", "--model", "gpt-4",
         "--out", str(out), "--endpoint", url, "--api-key-env", "POEM_TEST_KEY",
         "--styles", "haiku", "--subjects", "nature", "--templates", "general", *flags],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_verbose_flag_logs_pending_count(tmp_path):
    from mock_server import MockChatEndpoint

    with MockChatEndpoint() as endpoint:
        quiet = _generate_in_subprocess(tmp_path / "quiet.jsonl", endpoint.url)
        verbose = _generate_in_subprocess(tmp_path / "verbose.jsonl", endpoint.url, "-v")
    assert quiet.returncode == verbose.returncode == 0
    assert quiet.stderr == ""
    assert "model gpt-4: 1 specs requested, 0 already complete, 1 pending" in verbose.stderr
    assert verbose.stdout == quiet.stdout.replace("quiet", "verbose")


def _loaded_by_importing_cli(modules: set[str]) -> str:
    """Which of modules a fresh `import poemetrics.cli` loads, as a printed sorted list."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, poemetrics.cli; print(sorted({modules!r} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_no_http_stack():
    # generate imports http.client only when a client is made, and urllib.request never
    # unless a proxy variable is set.
    assert _loaded_by_importing_cli({"requests", "http.client", "urllib.request"}) == "[]\n"


def test_import_loads_no_process_pool():
    # analyze imports pickle only to score with --threads N > 1, and no process pool at all.
    assert _loaded_by_importing_cli(
        {"multiprocessing", "concurrent.futures.process", "pickle"}) == "[]\n"


def test_analysis_in_one_process_loads_no_pickle(tmp_path):
    # Every --threads count folds through _fork_join; only a run that forks loads these.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from poemetrics import cli; code = cli.main(sys.argv[1:]); "
            "print(sorted({'pickle', 'signal'} & set(sys.modules))); sys.exit(code)")
    run = subprocess.run(
        [sys.executable, "-c", code, "analyze", HUMAN, GPT, "--compare", "--min-docs", "1",
         "--per-poem", "--emit-plots", "--threads", "1", "--out", str(tmp_path / "report")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


FOOTPRINT = """
import sys

# OpenSSL's libcrypto (loaded by hashlib) and a thread pool: megabytes that analyze never uses.
HEAVY = {"_hashlib", "ssl", "concurrent.futures"}
import poemetrics
print(sorted(HEAVY & set(sys.modules)))
from poemetrics import cli
code = cli.main(sys.argv[1:])
print(sorted(HEAVY & set(sys.modules)))
sys.exit(code)
"""


def test_analysis_loads_no_openssl_or_thread_pool(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, "analyze", HUMAN, GPT, "--compare", "--min-docs", "1",
         "--per-poem", "--threads", "2", "--out", str(tmp_path / "report")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")


TRACED_ANALYZE = """
import sys
sys.path.insert(0, "perfbench")
import tracing
from poemetrics import cli

tracer = tracing.Tracer("compat")
tracing.install_analyze(tracer)
code = cli.main(sys.argv[2:])
tracer.write(sys.argv[1], {})
sys.exit(code)
"""


def test_benchmark_tracer_still_wraps_analyze(tmp_path):
    # perfbench/tracing.py wraps cli names by getattr; a removed one fails here.
    repo = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    run = subprocess.run(
        [sys.executable, "-c", TRACED_ANALYZE, str(spans),
         "analyze", HUMAN, GPT, "--compare", "--min-docs", "1", "--emit-plots",
         "--per-poem", "--format", "json", "--out", str(tmp_path / "report")],
        cwd=repo, env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    names = json.loads(spans.read_text())["names"]
    assert {"cli.main", "structure.parse_structure", "rhyme.annotate_rhymes"} <= set(names)


BENCHMARK_REPORT = """
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, "perfbench")
import inputs
import run
from poemetrics.cli import main

workload, work = sys.argv[1], Path(sys.argv[2])
corpora, truth = work / "corpora", work / "truth"
corpora.mkdir()
truth.mkdir()
build = {"styled-pair": inputs.styled_pair, "wide-vocab": inputs.wide_vocab}[workload]
build(101, corpora, truth)
spec = run.WORKLOADS[workload]
paths = [str(corpora / f"{label}.jsonl") for label in spec["labels"]]
# With its flags, then with each --threads count given after the work directory.
for i, threads in enumerate([None, *sys.argv[3:]]):
    out = work / f"out-{i}"
    extra = [] if threads is None else ["--threads", threads]
    if main(["analyze", *paths, "--compare", "--out", str(out), *spec["flags"], *extra]):
        sys.exit(1)
    print("sha256", hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
"""

# report.json of each analyze benchmark workload at seed 101, run with its flags.
BENCHMARK_DIGESTS = {
    "styled-pair": "8168b86014772870a2fbbe345199845c654b2e8b06aab744faee5780d5b651a0",
    "wide-vocab": "5b1c4b594d65e3ed150ec89881b935663b69541bb7503542f587f8aaa631146e",
}

# The workloads run --threads 2 and 1; each is also run at the other's count.
OTHER_THREADS = {"styled-pair": "1", "wide-vocab": "2"}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_DIGESTS))
def test_benchmark_report_bytes_match_recorded_digests(workload, tmp_path):
    # perfbench/inputs.py reads the dictionary by a path relative to the repo root.
    repo = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", BENCHMARK_REPORT, workload, str(tmp_path),
         OTHER_THREADS[workload]],
        cwd=repo,
        env={**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    digests = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("sha256 ")]
    assert digests == [BENCHMARK_DIGESTS[workload]] * 2


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(alphabet="a}{][\",:\\\0\n \u00e9\u4e00\U0001f600", max_size=6))
_JSON_KEYS = st.text(alphabet="ab}{\"\0\u00e9", max_size=3)
_JSON_ROWS = st.lists(st.dictionaries(_JSON_KEYS, _JSON_SCALARS, min_size=1, max_size=4),
                      max_size=12)


def _batched(rows: list, sizes: list[int]) -> list[list]:
    """rows cut into consecutive batches of sizes[0], sizes[1], ... rows, sizes repeated."""
    rows, sizes = iter(rows), cycle(sizes)
    return list(iter(lambda: list(islice(rows, next(sizes))), []))


@given(_JSON_ROWS, st.lists(st.integers(1, 4), min_size=1, max_size=4))
@example([{"a": float("nan"), "b": float("inf")}, {"a": -float("inf")}], [1])
@example([], [1])
@example([{"a": i, "b": "}\0{"} for i in range(2 * cli._ROW_BATCH + 1)], [3, 1])
def test_json_rows_equal_indented_json_dumps(rows, sizes):
    expected = json.dumps(rows, indent=2, sort_keys=True)
    for batches in (_batched(rows, sizes), _batched(rows, [cli._ROW_BATCH])):
        assert "".join(cli._json_rows(batches)) == expected


_COLUMNS = ["word", "delta", "variance", "z", "doc_freq_a", "doc_freq_b"]
_SETTINGS = cli.AnalysisSettings(min_docs=10, alpha_total=None, iambic_threshold=0.75,
                                 heatmap_rows=60, heatmap_cols=80, strip_prefatory=True,
                                 top_k=15)
_DICTIONARY = SimpleNamespace(source_sha256="0" * 64)


class _Corpus:
    def __init__(self, label: str, poems: int) -> None:
        self.label, self.poems = label, poems

    def __len__(self) -> int:
        return self.poems


_CORPORA = [_Corpus("gpt", 3), _Corpus("human\u00e9", 2)]


def _logodds_rows(count: int, words: list[str], seed: int) -> list[dict]:
    rng = random.Random(seed)
    floats = [float("nan"), float("inf"), -0.0, 1e-300, 123456789.125]
    return [{"word": f"{words[i % len(words)]}{i}",
             "delta": rng.choice(floats) if i % 7 == 3 else rng.uniform(-5, 5),
             "variance": rng.random(), "z": rng.uniform(-9, 9),
             "doc_freq_a": rng.randrange(1000), "doc_freq_b": rng.randrange(1000)}
            for i in range(count)]


def _csv_reference(columns: list[str], rows: list[dict]) -> str:
    def cell(value):
        return f"{value:.6f}" if isinstance(value, float) else "" if value is None else str(value)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _check_streamed_files(out: Path, fmt: str, metadata: dict, tables: dict) -> None:
    """report.json and each table file of out hold the bytes json.dumps and csv.writer give."""
    report = {"metadata": metadata, "tables": {name: rows for name, (_, rows) in tables.items()}}
    assert ((out / "report.json").read_bytes().decode()
            == json.dumps(report, indent=2, sort_keys=True) + "\n")
    written = {p.name for p in (out / "tables").iterdir()} if tables else set()
    assert written == {f"{name}.{fmt}" for name in tables}
    for name, (columns, rows) in tables.items():
        data = (out / "tables" / f"{name}.{fmt}").read_bytes().decode()
        if fmt == "json":
            assert data == json.dumps(rows, indent=2, sort_keys=True) + "\n"
        else:
            assert data == _csv_reference(columns, rows)


# Words with non-ASCII letters, quotes, backslashes, a comma, a newline and U+2028.
_WORDS = st.lists(st.text(alphabet="a\u00e9\u4e00\U0001f600\"'\\,\n\u2028", min_size=1,
                          max_size=5), min_size=1, max_size=6)
# Row counts on each side of the batch edges.
_ROW_COUNTS = [0, 1, cli._ROW_BATCH - 1, cli._ROW_BATCH, cli._ROW_BATCH + 1,
               2 * cli._ROW_BATCH + 1]
_TABLES = st.dictionaries(st.sampled_from(["first_words", "logodds", "t\u00e9", "z"]),
                          st.tuples(st.sampled_from(_ROW_COUNTS), _WORDS, st.integers(0, 2**32)),
                          max_size=3)


@settings(max_examples=40, deadline=None)
@given(_TABLES, st.sampled_from(["csv", "json"]))
def test_streamed_report_equals_json_dumps_of_its_tables(drawn, fmt):
    tables = {name: (_COLUMNS, _logodds_rows(*spec)) for name, spec in drawn.items()}
    metadata = {"tool": "poemetrics", "version": __version__,
                "dictionary_sha256": _DICTIONARY.source_sha256, "settings": asdict(_SETTINGS),
                "corpora": {c.label: len(c) for c in _CORPORA}}
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        cli._write_report(out, fmt, tables, {}, _DICTIONARY, _SETTINGS, _CORPORA)
        _check_streamed_files(out, fmt, metadata, tables)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_table_given_as_a_one_shot_generator_is_written_whole(fmt, tmp_path):
    # A writer that read a table's rows twice would find a generator empty the second time.
    rows = _logodds_rows(2 * cli._ROW_BATCH + 1, ["heart", "echo\u00e9"], 2)
    for out, source in ((tmp_path / "list", rows), (tmp_path / "once", (r for r in rows))):
        tables = {"logodds": (_COLUMNS, source), "z": (_COLUMNS, [])}
        cli._write_report(out, fmt, tables, {}, _DICTIONARY, _SETTINGS, _CORPORA)
    assert _tree_bytes(tmp_path / "once") == _tree_bytes(tmp_path / "list")


@pytest.mark.parametrize("argv, fmt", [
    (["analyze", HUMAN, GPT, "--compare", "--format", "json"], "json"),
    (["analyze", HUMAN, GPT, "--compare", "--format", "csv"], "csv"),
    (["compare", GPT, HUMAN], "csv"),
    (["meter", GPT, "--format", "json"], "json"),
])
def test_written_report_equals_json_dumps_of_its_tables(argv, fmt, tmp_path, monkeypatch):
    # Batches small enough that the fixtures' tables span several.
    monkeypatch.setattr(cli, "_ROW_BATCH", 3)
    out = tmp_path / "out"
    assert main([*argv, "--min-docs", "1", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_bytes())
    tables = {}
    for name, rows in report["tables"].items():
        columns = list(rows[0])
        if fmt == "csv":  # the header gives the columns' order, which JSON keys sort away
            with open(out / "tables" / f"{name}.csv", encoding="utf-8", newline="") as handle:
                columns = next(csv.reader(handle))
            assert sorted(columns) == sorted(rows[0])
        tables[name] = columns, rows
    assert max(len(rows) for _, rows in tables.values()) > cli._ROW_BATCH
    _check_streamed_files(out, fmt, report["metadata"], tables)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writing_a_report_holds_a_small_share_of_its_bytes(fmt, tmp_path):
    rows = _logodds_rows(20_000, ["heart", "embrace\u00e9", "whisper"], 1)
    tables = {"logodds": (_COLUMNS, rows)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write_report(tmp_path, fmt, tables, {}, _DICTIONARY, _SETTINGS, _CORPORA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
    assert peak - before < written / 4


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_comparing_and_writing_hold_under_500_bytes_per_scored_word(fmt, tmp_path):
    # Every word is in both log-odds tables. The tables are lazy row sources over the ranked
    # results, which the plots read too: no list of row dicts is held.
    rng = random.Random(3)
    words = [f"heart{i}\u00e9" for i in range(20_000)]
    pair = [lexstats.WordCounts(counts=Counter({w: rng.randrange(10, 90) for w in words}),
                                doc_freq=Counter({w: rng.randrange(5, 10) for w in words}),
                                firsts=Counter({w: rng.randrange(5, 10) for w in words}))
            for _ in range(2)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ranked = cli._ranked(*pair, _SETTINGS)
        tables = {name: cli._logodds_table(results) for name, results in ranked.items()}
        cli._write_report(tmp_path, fmt, tables, {}, _DICTIONARY, _SETTINGS, _CORPORA)
        cli._write_plots(tmp_path, tables, {}, {}, ranked, _SETTINGS.top_k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(results) for results in ranked.values()] == [len(words)] * 2
    assert (peak - before) / len(words) < 500
