from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from poemetrics import cli, lexstats, meter, rhyme, structure
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
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 2)
    caplog.set_level(logging.INFO, logger=cli.__name__)
    corpora = [_styled_corpus(tmp_path / f"c{i}.jsonl", n, 3 * i) for i, n in enumerate(sizes)]
    trees = []
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}"
        assert main([command, *corpora, *flags, "--threads", str(threads),
                     "--out", str(out)]) == 0
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1] == trees[2]
    chunks = sum((n + 1) // 2 for n in sizes)
    assert [r.getMessage() for r in caplog.records] == [
        f"scoring {sum(sizes)} poems in process",
        f"scoring {sum(sizes)} poems in {chunks} chunks on 2 processes",
        f"scoring {sum(sizes)} poems in {chunks} chunks on 3 processes",
    ]


@pytest.mark.parametrize("threads", [1, 2])
def test_each_poem_is_added_to_its_grid_once_in_the_scoring_fold(threads, tmp_path,
                                                                  monkeypatch):
    def no_second_walk(*args):
        raise AssertionError("occupancy_heatmap walks a corpus again")

    added, add = [], structure.OccupancyGrid.add

    def counting_add(grid, text):
        added.append(text)
        add(grid, text)

    monkeypatch.setattr(cli, "occupancy_heatmap", no_second_walk)
    monkeypatch.setattr(structure.OccupancyGrid, "add", counting_add)
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 3)
    corpora = [_styled_corpus(tmp_path / f"c{i}.jsonl", n, i) for i, n in enumerate((7, 5))]
    assert main(["analyze", *corpora, "--threads", str(threads),
                 "--out", str(tmp_path / "o")]) == 0
    assert added == [strip_prefatory(r, EXPECTED_FORM_LENGTHS.get(r.style or "")).text
                     for path in corpora for r in load_corpus(path)]


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
    assert multiprocessing.active_children() == []


def test_verbose_analyze_logs_how_poems_are_scored(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger=cli.__name__)
    monkeypatch.setattr(cli, "_CHUNK_POEMS", 3)
    args = ["analyze", HUMAN, GPT, "-v", "--compare", "--min-docs", "1", "--format", "json"]
    assert main([*args, "--threads", "2", "--out", str(tmp_path / "pool")]) == 0
    # Without fork the poems are scored in this process, with the same bytes.
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert main([*args, "--threads", "2", "--out", str(tmp_path / "fallback")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "scoring 8 poems in 4 chunks on 2 processes", "scoring 8 poems in process"]
    assert _tree_bytes(tmp_path / "pool") == _tree_bytes(tmp_path / "fallback")
    assert b"scoring" not in (tmp_path / "pool" / "report.json").read_bytes()


def test_one_chunk_is_scored_in_process(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger=cli.__name__)
    assert main(["analyze", HUMAN, "-v", "--threads", "4", "--out", str(tmp_path / "o")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"scoring {len(load_corpus(HUMAN))} poems in process"]
    assert multiprocessing.active_children() == []


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
        "bb76051bf31fcfd32c1e41b0c0b1e3968593a654616463e24c96736f86d2e069",
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


@pytest.mark.parametrize("argv, message", [
    (["analyze", GPT, "--heatmap-rows", "0", "--per-poem"], "must be at least 1, got 0"),
    (["structure", GPT, "--heatmap-cols", "0"], "must be at least 1, got 0"),
    (["analyze", HUMAN, GPT, "--compare", "--emit-plots", "--top-k", "-2"],
     "must be at least 0, got -2"),
    (["generate", "--concurrency", "0"], "must be at least 1, got 0"),
    (["generate", "--max-retries", "-1"], "must be at least 0, got -1"),
    (["generate", "--timeout", "0"], "must be greater than 0 and finite, got 0.0"),
    (["generate", "--timeout", "inf"], "must be greater than 0 and finite, got inf"),
    (["generate", "--rate-limit", "0"], "must be greater than 0 and finite, got 0.0"),
    (["generate", "--rate-limit", "-1"], "must be greater than 0 and finite, got -1.0"),
    (["generate", "--rate-limit", "nan"], "must be greater than 0 and finite, got nan"),
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
], ids=["heatmap-rows", "heatmap-cols", "top-k", "concurrency", "max-retries",
        "timeout-zero", "timeout-inf", "rate-limit-zero", "rate-limit-negative", "rate-limit-nan",
        "alpha-total-zero", "alpha-total-negative", "alpha-total-nan", "iambic-threshold-nan",
        "iambic-threshold-above-1", "iambic-threshold-negative", "temperature-nan",
        "temperature-negative", "temperature-inf", "max-output-tokens-zero", "styles-free-verse",
        "min-docs-negative", "threads-zero"])
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
    # generate imports urllib.request only when it sends a request.
    assert _loaded_by_importing_cli({"requests", "http.client", "urllib.request"}) == "[]\n"


def test_import_loads_no_process_pool():
    # analyze imports them only to score with --threads N > 1.
    assert _loaded_by_importing_cli({"multiprocessing", "concurrent.futures.process"}) == "[]\n"


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
code = main(["analyze", *paths, "--compare", "--out", str(work / "out"), *spec["flags"]])
print(hashlib.sha256((work / "out" / "report.json").read_bytes()).hexdigest())
sys.exit(code)
"""

# report.json of each analyze benchmark workload at seed 101, run with its flags.
BENCHMARK_DIGESTS = {
    "styled-pair": "6d6f69eae8f67cf4126ace902f4528e3babd9ea035bfa8fbf5985af2f83b483d",
    "wide-vocab": "dcae773f58ec6e7ebace44c007591705e9271b9a0e490fa30e5ca59a1dbf6507",
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_DIGESTS))
def test_benchmark_report_bytes_match_recorded_digests(workload, tmp_path):
    # perfbench/inputs.py reads the dictionary by a path relative to the repo root.
    repo = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", BENCHMARK_REPORT, workload, str(tmp_path)],
        cwd=repo,
        env={**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == BENCHMARK_DIGESTS[workload]


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(alphabet="a}{][\",:\\\0\n \u00e9\u4e00\U0001f600", max_size=6))
_JSON_KEYS = st.text(alphabet="ab}{\"\0\u00e9", max_size=3)
_JSON_ROWS = st.lists(st.dictionaries(_JSON_KEYS, _JSON_SCALARS, max_size=4), max_size=4)
_JSON_VALUES = st.recursive(_JSON_SCALARS | _JSON_ROWS,
                            lambda inner: st.lists(inner, max_size=4)
                            | st.dictionaries(_JSON_KEYS, inner, max_size=4), max_leaves=20)


@given(_JSON_VALUES)
@example({"tables": {"t": [{"a": float("nan"), "b": [], "c": {}}, {"a": -float("inf")}]}})
@example([{}, {"a": 1}])
def test_json_text_equals_indented_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    nested = {"k": cli._JSONText(cli._json_text(obj))}
    assert cli._json_text(nested) == json.dumps({"k": obj}, indent=2, sort_keys=True)
