"""Checks of one run's outputs, and the layer metrics derived from its trace.

The expected values come from the ground-truth sidecars and the input plan,
never from poemetrics: counts are tallied and quantiles computed here, in
exact arithmetic, from the sidecar's line and stanza counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import inputs
import tracing

ANALYZE_TABLES = ("lengths", "quatrains", "rhyme", "meter", "pronouns", "touchstones",
                  "logodds", "first_words")


def check(job: dict) -> dict:
    if job["kind"] == "analyze":
        return check_analyze(job)
    return check_generate(job)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _quantile(values: list[int], p: Fraction) -> Fraction:
    """Linear interpolation between order statistics, exactly."""
    h = (len(values) - 1) * p
    lo, hi = math.floor(h), math.ceil(h)
    return values[lo] + (h - lo) * (values[hi] - values[lo])


def expected_lengths(line_counts: list[int]) -> dict:
    values = sorted(line_counts)
    q1, median, q3 = (_quantile(values, Fraction(k, 4)) for k in (1, 2, 3))
    reach = Fraction(3, 2) * (q3 - q1)
    low = min(v for v in values if v >= q1 - reach)
    high = max(v for v in values if v <= q3 + reach)
    return {"poems": len(values), "median": median, "q1": q1, "q3": q3,
            "whisker_low": low, "whisker_high": high,
            "outlier_count": sum(1 for v in values if v < low or v > high)}


def expected_quatrains(poems: list[dict]) -> dict:
    return {
        "poems": len(poems),
        "stanzas": sum(len(p["stanzas"]) for p in poems),
        "quatrain_stanzas": sum(p["stanzas"].count(4) for p in poems),
        "poems_with_quatrain": sum(1 for p in poems if 4 in p["stanzas"]),
    }


def _groups(truth: dict[str, list[dict]]) -> dict[tuple[str, str], list[dict]]:
    groups: dict[tuple[str, str], list[dict]] = {}
    for label, poems in truth.items():
        groups[(label, "ALL")] = poems
        for poem in poems:
            groups.setdefault((label, poem["style"] or "(none)"), []).append(poem)
    return groups


def _compare(problems: list[str], where: str, row: dict, expected: dict) -> None:
    for key, want in expected.items():
        got = row.get(key)
        if got is None or abs(float(want) - got) > 1e-9 * max(1.0, abs(float(want))):
            problems.append(f"{where}: {key} is {got}, expected {float(want)}")


def check_analyze(job: dict) -> dict:
    out, problems = Path(job["out"]), []
    truth = {label: _read_jsonl(Path(job["truth"]) / f"{label}.jsonl") for label in job["labels"]}
    report_path = out / "report.json"
    if not report_path.exists():
        return {"problems": [f"{report_path} was not written"]}
    data = report_path.read_bytes()
    report = json.loads(data)
    tables = report["tables"]
    missing = [t for t in ANALYZE_TABLES if not tables.get(t)]
    if missing:
        problems.append(f"missing or empty tables: {missing}")
    if report["metadata"]["corpora"] != {k: len(v) for k, v in truth.items()}:
        problems.append(f"corpus sizes {report['metadata']['corpora']} differ from the inputs")
    groups = _groups(truth)
    for table, expect in (("lengths", lambda g: expected_lengths([p["lines"] for p in g])),
                          ("quatrains", expected_quatrains)):
        rows = {(r["source"], r["style"]): r for r in tables.get(table, [])}
        if set(rows) != set(groups):
            problems.append(f"{table}: groups {sorted(set(rows) ^ set(groups))} differ")
        for key in sorted(set(rows) & set(groups)):
            _compare(problems, f"{table} {key}", rows[key], expect(groups[key]))
    for table in ("rhyme", "meter"):
        rows = {(r["source"], r["style"]): r for r in tables.get(table, [])}
        for key, poems in groups.items():
            if rows.get(key, {}).get("poems") != len(poems):
                problems.append(f"{table} {key}: poem count differs from {len(poems)}")
    for table in ANALYZE_TABLES:
        if not (out / "tables" / f"{table}.{job['format']}").exists():
            problems.append(f"tables/{table}.{job['format']} was not written")
    if job["styled"]:
        _check_styled_extras(out, truth, problems)
    verdict = {"problems": problems, "digest": hashlib.sha256(data).hexdigest(),
               "poems": sum(len(v) for v in truth.values())}
    if job.get("spans"):
        verdict["layers"] = analyze_layers(job["spans"], verdict["poems"], out)
    return verdict


def _check_styled_extras(out: Path, truth: dict[str, list[dict]], problems: list[str]) -> None:
    for label, poems in truth.items():
        path = out / "annotations" / f"rhyme_{label}.jsonl"
        rows = _read_jsonl(path) if path.exists() else []
        if [r["id"] for r in rows] != [p["id"] for p in poems]:
            problems.append(f"{path.name}: ids differ from the corpus")
        elif any(len(r["end_words"]) != p["lines"] for r, p in zip(rows, poems)):
            problems.append(f"{path.name}: end-word counts differ from line counts")
    plots = [f"lengths_{label}.svg" for label in truth] + [
        f"occupancy_{label}.svg" for label in truth] + [
        "rhyme_pct.svg", "logodds_top15.svg", "first_words_top15.svg"]
    for name in plots:
        path = out / "plots" / name
        if not path.exists() or not path.read_text("utf-8").startswith("<svg"):
            problems.append(f"plots/{name} is missing or not SVG")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def analyze_layers(spans_path: str, poems: int, out: Path) -> dict:
    spans, counts, extra = tracing.load(spans_path)
    calls, cpu, self_cpu = tracing.span_times(spans)
    lookups = counts["arpabet.lookups"]
    return {
        "corpus.load_s": cpu["corpus.load_corpus"],
        "corpus.strip_s": cpu["corpus.strip_prefatory"],
        "corpus.stripped_records": counts["corpus.stripped_records"],
        "arpabet.load_s": cpu["arpabet.load_dictionary"],
        "arpabet.lookups": lookups,
        "arpabet.lookup_hit_share": _share(counts["arpabet.lookup_hits"], lookups),
        "arpabet.rhyme_part_calls": counts["arpabet.rhyme_part_calls"],
        "arpabet.stress_pattern_calls": counts["arpabet.stress_pattern_calls"],
        "arpabet.distinct_word_share": _share(counts["arpabet.words"], lookups),
        "structure.self_s": tracing.layer_self(self_cpu, "structure"),
        "structure.parse_calls_per_poem": calls["structure.parse_structure"] / poems,
        "structure.occupancy_s": cpu["structure.occupancy_heatmap"],
        "rhyme.self_s": tracing.layer_self(self_cpu, "rhyme"),
        "rhyme.annotate_calls_per_poem": calls["rhyme.annotate_rhymes"] / poems,
        "rhyme.oov_end_share": _share(counts["rhyme.oov_end_words"], counts["rhyme.end_words"]),
        "meter.self_s": tracing.layer_self(self_cpu, "meter"),
        "meter.score_calls_per_poem": calls["meter.iambic_score"] / poems,
        "meter.unscannable": counts["meter.unscannable"],
        "lexstats.self_s": tracing.layer_self(self_cpu, "lexstats"),
        "lexstats.tokenize_s": cpu["lexstats.tokenize"],
        "lexstats.tokenize_calls_per_poem": calls["lexstats.tokenize"] / poems,
        "lexstats.logodds_s": cpu["lexstats.logodds"] + cpu["lexstats.first_word_logodds"],
        "lexstats.vocabulary": counts["lexstats.vocabulary"],
        "svgplot.self_s": tracing.layer_self(self_cpu, "svgplot"),
        "cli.self_s": tracing.layer_self(self_cpu, "cli"),
        "cli.cpu_s": extra["cpu_s"],
        "cli.wall_s": extra["wall_s"],
        "cli.report_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
    }


def prompt_calls(calls) -> dict[str, list[tuple[float, float]]]:
    """complete() calls grouped by prompt, each list in start order."""
    by_prompt: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for prompt, start, end in calls:
        by_prompt[prompt].append((start, end))
    for spans in by_prompt.values():
        spans.sort()
    return by_prompt


def check_generate(job: dict) -> dict:
    problems: list[str] = []
    plan = json.loads(Path(job["grid"]).read_text(encoding="utf-8"))
    grid = [tuple(g) for g in plan["grid"]]
    present = {grid[i][:3] for i in plan["present"]}
    pending = [g for g in grid if g[:3] not in present]
    output = Path(job["output"])
    start_rows = Path(job["start"]).read_text(encoding="utf-8").split("\n")[:-1]
    lines = output.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        problems.append("output does not end with a newline")
    if lines[: len(start_rows)] != start_rows:
        problems.append("rows present before the run were changed")
    rows = []
    for n, line in enumerate(lines[:-1], start=1):
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            problems.append(f"output line {n} is not JSON")
    keys = Counter((r.get("template"), r.get("style"), r.get("subject")) for r in rows)
    grid_keys = {g[:3] for g in grid}
    if set(keys) - grid_keys:
        problems.append(f"{len(set(keys) - grid_keys)} rows are not grid keys")
    if any(keys[k] != 1 for k in present):
        problems.append("rows present before the run are missing or duplicated")
    failures_path = output.with_suffix(output.suffix + ".failures.jsonl")
    listed = set()
    if failures_path.exists():
        listed = {(r["template"], r["style"], r["subject"]) for r in _read_jsonl(failures_path)}
    failed = sum(1 for g in pending if keys[g[:3]] != 1 or g[:3] in listed)
    for r in rows:
        if (r.get("template"), r.get("style"), r.get("subject")) not in present and (
                r.get("text") != inputs.MOCK_REPLY or r.get("source") != "gpt4"):
            problems.append(f"row {r.get('id')} does not hold the endpoint's reply")
            break
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    by_prompt = prompt_calls(result["calls"])
    if set(by_prompt) != {g[3] for g in pending}:
        problems.append("the prompts sent differ from the pending prompts")
    scripted = plan["fail_first"]
    if any(len(by_prompt.get(p, ())) != 1 + len(s) for p, s in scripted.items()):
        problems.append("a throttled prompt was not retried exactly once per scripted failure")
    verdict = {
        "problems": problems,
        "attempted": len(pending),
        "failed": failed,
        "poems": len(pending) - failed,
        "latencies_ms": [1000 * (s[-1][1] - s[0][0]) for s in by_prompt.values()],
    }
    if job.get("spans"):
        verdict["layers"] = generate_layers(job["spans"], verdict["poems"])
    return verdict


def generate_layers(spans_path: str, completed: int) -> dict:
    spans, _, _ = tracing.load(spans_path)
    _, cpu, _ = tracing.span_times(spans)
    entry = min(s[4] for s in spans if s[1] == "generate.run_job")
    completes = [(s[8], s[4], s[5]) for s in spans if s[1] == "generate.complete"]
    by_prompt = prompt_calls(completes)
    n_calls = len(completes)
    backoff = sum(b[0] - a[1] for seq in by_prompt.values() for a, b in zip(seq, seq[1:]))
    return {
        "corpus.load_s": cpu["corpus.load_corpus"],
        "generate.complete_calls": n_calls,
        "generate.retry_share": _share(n_calls - len(by_prompt), n_calls),
        "generate.useful_share": _share(completed, n_calls),
        "generate.backoff_s": backoff,
        "generate.resume_s": min(c[1] for c in completes) - entry,
    }
