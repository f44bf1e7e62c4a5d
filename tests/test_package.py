"""The package namespace: each public name is imported from its submodule on first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poemetrics

# The names `import poemetrics` has always exported, by submodule.
EXPORTS = {
    "arpabet": ["PronouncingDictionary", "load_bundled_dictionary", "load_dictionary",
                "rhyme_part", "stress_pattern"],
    "corpus": ["CANONICAL_STYLES", "Corpus", "CorpusError", "PoemRecord", "load_corpus",
               "save_corpus", "strip_prefatory"],
    "generate": ["ChatCompletionsClient", "DEFAULT_SUBJECTS", "GenerationJob", "PromptSpec",
                 "build_grid", "render_prompt", "run_job"],
    "lexstats": ["LogOddsResult", "PronounProfile", "first_word_logodds", "load_stopwords",
                 "logodds", "pronoun_profile", "tokenize", "touchstone_coverage"],
    "meter": ["MeterVerdict", "StressSequence", "UnscannableError", "alignment_score",
              "corpus_meter_stats", "iambic_score", "line_stress"],
    "rhyme": ["RhymeAnnotation", "annotate_rhymes", "corpus_rhyme_stats", "end_word",
              "lines_rhyme"],
    "structure": ["LengthSummary", "OccupancyGrid", "PoemStructure", "length_summary",
                  "occupancy_heatmap", "parse_structure", "quatrain_stats", "summarize_lengths"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"


def test_all_lists_the_exported_names():
    assert len(NAMES) == 47
    assert sorted(poemetrics.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodules_object(module):
    submodule = importlib.import_module("poemetrics." + module)
    assert getattr(poemetrics, module) is submodule
    for name in EXPORTS[module]:
        assert getattr(poemetrics, name) is getattr(submodule, name)


def test_dir_lists_every_name_and_submodule():
    assert set(NAMES) | set(EXPORTS) | {"__version__"} <= set(dir(poemetrics))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as exc:
        poemetrics.nope
    assert str(exc.value) == "module 'poemetrics' has no attribute 'nope'"


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from poemetrics import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def _loaded(code: str, *argv: str) -> list[str]:
    """The poemetrics submodules loaded once code has run in a fresh interpreter."""
    script = code + ("\nimport json, sys"
                     "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('poemetrics.'))))")
    run = subprocess.run([sys.executable, "-c", script, *argv],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _loaded("import poemetrics") == []


def test_loading_the_dictionary_loads_only_arpabet():
    # As the benchmark's setup step does.
    code = "import poemetrics\npoemetrics.load_dictionary(poemetrics.arpabet.bundled_dictionary_path())"
    # poemetrics.data holds no code: it is the resource package the file is read from.
    assert _loaded(code) == ["poemetrics.arpabet", "poemetrics.data"]


def test_analyze_never_loads_the_generation_module(tmp_path):
    code = "import sys\nfrom poemetrics import cli\nassert cli.main(sys.argv[1:]) == 0"
    loaded = _loaded(code, "analyze", str(DATA / "fixture_human.jsonl"),
                     str(DATA / "fixture_gpt.jsonl"), "--compare", "--min-docs", "1",
                     "--threads", "2", "--per-poem", "--emit-plots", "--out", str(tmp_path / "r"))
    assert "poemetrics.svgplot" in loaded
    assert "poemetrics.generate" not in loaded
