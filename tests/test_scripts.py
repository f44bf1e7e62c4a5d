"""The scripts under scripts/, each run as a subprocess the way a user runs it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str, cwd: Path, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_build_dict_subset_reproduces_the_bundled_dictionary(tmp_path):
    bundled = REPO / "src" / "poemetrics" / "data" / "cmudict_subset.dict"
    out = tmp_path / "subset.dict"
    run = _run_script("build_dict_subset.py", str(bundled), "--out", str(out), cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == bundled.read_bytes()


def test_demo_analysis_prints_rhyme_and_meter_per_corpus(tmp_path):
    out = tmp_path / "demo"
    run = _run_script("demo_analysis.py", "--out", str(out), cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    lines = [line.strip() for line in run.stdout.splitlines()]
    for label in ("fixture_human", "fixture_gpt"):
        assert any(line.startswith(f"{label}: ") and "poems rhyme" in line for line in lines)
        assert any(line.startswith(f"{label}: ") and "iambic-dominant" in line for line in lines)
    assert (out / "report.json").is_file()


def test_scale_memory_measures_analyze_on_repeated_corpora(tmp_path):
    temp = tmp_path / "tmp"
    temp.mkdir()
    fixtures = sorted(map(str, (REPO / "tests" / "data").glob("fixture_*.jsonl")))
    run = _run_script("scale_memory.py", *fixtures, "--times", "2", "--",
                      "--compare", "--min-docs", "1", "--per-poem", "--threads", "2",
                      cwd=tmp_path, env={**os.environ, "TMPDIR": str(temp)})
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    # analyze exits 1 on a repeated id, so each copy of a poem has an id of its own.
    assert (result["times"], result["poems"], result["exit"]) == (2, 16, 0)
    assert result["peak_rss_mb"] > 0 and result["wall_s"] > 0
    assert not any(temp.iterdir())  # the copies and the report are removed

