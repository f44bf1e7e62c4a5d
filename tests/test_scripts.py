"""The scripts under scripts/, each run as a subprocess the way a user runs it."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


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
