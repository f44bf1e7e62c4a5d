"""Benchmark of `poemetrics analyze` and `poemetrics.generate.run_job`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a poemetrics source tree; it imports the package
from ./src and writes only under ./.bench_work. Workloads (see NOTES.md):
styled-pair, wide-vocab, generate-resume.

Every timed operation runs in a fresh process whose peak RSS is read from
os.wait4. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from traced runs alternating with untraced runs that give the tracing
overhead. Human-readable lines, host facts and the report digest come
before it, and a fuller record goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK = Path(".bench_work")
DEADLINE_S = 170.0
MIN_REPS = 2
SETUP_REPS = 7

WORKLOADS = {
    "styled-pair": {"labels": ["gpt35", "gpt4"], "format": "json",
                    "flags": ["--threads", "2", "--emit-plots", "--per-poem", "--format", "json"]},
    "wide-vocab": {"labels": ["human_a", "human_b"], "format": "csv",
                   "flags": ["--threads", "1", "--format", "csv"]},
    "generate-resume": {},
}

END_TO_END = {"poems_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "corpus.load_s": "s", "corpus.strip_s": "s", "corpus.stripped_records": "count",
    "arpabet.load_s": "s", "arpabet.lookups": "count", "arpabet.lookup_hit_share": "share",
    "arpabet.rhyme_part_calls": "count", "arpabet.stress_pattern_calls": "count",
    "arpabet.distinct_word_share": "share",
    "structure.self_s": "s", "structure.parse_calls_per_poem": "count",
    "structure.occupancy_s": "s",
    "rhyme.self_s": "s", "rhyme.annotate_calls_per_poem": "count", "rhyme.oov_end_share": "share",
    "meter.self_s": "s", "meter.score_calls_per_poem": "count", "meter.unscannable": "count",
    "lexstats.self_s": "s", "lexstats.tokenize_s": "s", "lexstats.tokenize_calls_per_poem": "count",
    "lexstats.logodds_s": "s", "lexstats.vocabulary": "count",
    "svgplot.self_s": "s",
    "cli.self_s": "s", "cli.cpu_s": "s", "cli.wall_s": "s", "cli.report_bytes": "bytes",
    "generate.complete_calls": "count", "generate.retry_share": "share",
    "generate.useful_share": "share", "generate.backoff_s": "s", "generate.resume_s": "s",
    "tracing.untraced_poems_per_s": "1/s", "tracing.traced_poems_per_s": "1/s",
    "tracing.overhead_share": "share",
}


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
        self.log = self.dir / "children.log"
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.problems: list[str] = []

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, *args: str, stdin=None, stdout=None) -> subprocess.Popen:
        with open(self.log, "ab") as log:
            return subprocess.Popen([sys.executable, str(CHILD), *args], env=self.env,
                                    stdin=stdin, stdout=stdout or log, stderr=log)

    def run(self, *args: str) -> tuple[int, float]:
        """Run a child to completion; its exit code and peak RSS in MB."""
        proc = self.child(*args)
        deadline = time.perf_counter() + max(self.left(), 1.0)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                self.problems.append(f"child {args[0]} overran the deadline")
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024

    def job(self, name: str, **fields) -> str:
        path = self.dir / f"{name}.job.json"
        path.write_text(json.dumps(fields), encoding="utf-8")
        return str(path)

    def read(self, path: Path) -> dict | None:
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def setup_times(self, with_dict: bool) -> list[float]:
        times = []
        for i in range(SETUP_REPS + 1):
            result = self.dir / f"setup-{i}.json"
            code, _ = self.run("setup", str(int(with_dict)), str(result))
            data = self.read(result)
            if code != 0 or data is None:
                self.problems.append("setup child failed")
                return times
            if i:  # the first import compiles bytecode and is not counted
                times.append(data["setup_s"])
        return times

    def loop(self, one_rep) -> list[dict]:
        """Timed reps until --seconds have passed; traced and untraced alternate with --trace 1."""
        reps = []
        t0 = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - t0 < self.seconds:
            if self.left() < 20:
                self.problems.append("stopped early to keep within the time limit")
                break
            reps.append(one_rep(len(reps), self.trace and len(reps) % 2 == 1))
        return reps

    def check(self, name: str, **fields) -> dict:
        verdict = self.dir / f"{name}.verdict.json"
        code, _ = self.run("check", self.job(f"{name}-check", verdict=str(verdict), **fields))
        data = self.read(verdict) if code == 0 else None
        return data or {"problems": [f"check of {name} failed to run"]}

    # --- analyze workloads -------------------------------------------------

    def analyze_rep(self, i: int, traced: bool, threads_one: bool = False) -> dict:
        spec = WORKLOADS[self.workload]
        out = self.dir / f"out-{i}"
        flags = list(spec["flags"])
        if threads_one:
            flags[flags.index("--threads") + 1] = "1"
        corpora = [str(self.dir / "corpora" / f"{label}.jsonl") for label in spec["labels"]]
        result = self.dir / f"analyze-{i}.json"
        spans = str(self.dir / f"spans-{i}.json") if traced else None
        code, rss = self.run("analyze", self.job(
            f"analyze-{i}", argv=["analyze", *corpora, "--compare", "--out", str(out), *flags],
            trace=traced, run_id=f"analyze-{i}", spans=spans, result=str(result)))
        data = self.read(result) or {}
        return {"name": f"analyze-{i}", "out": str(out), "exit": code, "rc": data.get("rc"),
                "wall_s": data.get("wall_s"), "rss_mb": rss, "traced": traced, "spans": spans}

    def analyze(self) -> dict:
        spec = WORKLOADS[self.workload]
        setup = self.setup_times(with_dict=True)
        reps = self.loop(self.analyze_rep)
        extra = []
        if self.workload == "styled-pair":
            extra.append(self.analyze_rep(len(reps), False, threads_one=True))
        digests, failed = set(), 0
        for rep in reps + extra:
            verdict = self.check(rep["name"], kind="analyze", out=rep["out"],
                                 truth=str(self.dir / "truth"), labels=spec["labels"],
                                 format=spec["format"], styled=self.workload == "styled-pair",
                                 spans=rep["spans"])
            shutil.rmtree(rep["out"], ignore_errors=True)
            rep.update(poems=verdict.get("poems"), layers=verdict.get("layers"))
            problems = list(verdict["problems"])
            if rep["exit"] != 0 or rep["rc"] != 0:
                problems.append(f"exit {rep['exit']}, analyze returned {rep['rc']}")
            if verdict.get("digest"):
                digests.add(verdict["digest"])
            rep["ok"] = not problems
            failed += bool(problems)
            self.problems += [f"{rep['name']}: {p}" for p in problems[:5]]
        if len(digests) > 1:
            self.problems.append("report.json differs between runs of one seed"
                                 + (" or between --threads 1 and 2" if extra else ""))
            failed += 1
        good = [r for r in reps if r["ok"]]
        return {"setup": setup, "reps": reps, "good": good, "attempted": len(reps) + len(extra),
                "failed": failed, "digest": min(digests) if len(digests) == 1 else None,
                "latencies_ms": [1000 * r["wall_s"] for r in good if not r["traced"]]}

    # --- generate-resume ---------------------------------------------------

    def generate_rep(self, i: int, traced: bool) -> dict:
        output = self.dir / f"out-{i}.jsonl"
        shutil.copyfile(self.dir / "start.jsonl", output)
        mock = self.child("mock", str(self.dir / "grid.json"),
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            url = mock.stdout.readline().decode().strip()
            result = self.dir / f"generate-{i}.json"
            spans = str(self.dir / f"spans-{i}.json") if traced else None
            code, rss = self.run("generate", self.job(
                f"generate-{i}", url=url, output=str(output), trace=traced,
                run_id=f"generate-{i}", spans=spans, result=str(result)))
        finally:
            mock.stdin.close()
            try:
                mock.wait(timeout=10)
            except subprocess.TimeoutExpired:
                mock.kill()
                mock.wait()
            mock.stdout.close()
        data = self.read(result) or {}
        return {"name": f"generate-{i}", "output": str(output), "result": str(result),
                "exit": code, "wall_s": data.get("wall_s"), "rss_mb": rss,
                "traced": traced, "spans": spans}

    def generate(self) -> dict:
        setup = self.setup_times(with_dict=False)
        reps = self.loop(self.generate_rep)
        attempted = failed = 0
        latencies: list[float] = []
        for rep in reps:
            verdict = {"problems": [f"generate exited with {rep['exit']}"]}
            if rep["exit"] == 0:
                verdict = self.check(rep["name"], kind="generate", output=rep["output"],
                                     start=str(self.dir / "start.jsonl"),
                                     grid=str(self.dir / "grid.json"), result=rep["result"],
                                     spans=rep["spans"])
            pending = verdict.get("attempted", inputs.PENDING_PROMPTS)
            attempted += pending
            failed += verdict.get("failed", pending)
            rep.update(poems=verdict.get("poems"), layers=verdict.get("layers"))
            rep["ok"] = not verdict["problems"] and verdict.get("failed") == 0
            self.problems += [f"{rep['name']}: {p}" for p in verdict["problems"][:5]]
            if rep["ok"] and not rep["traced"]:
                latencies += verdict["latencies_ms"]
        good = [r for r in reps if r["ok"]]
        return {"setup": setup, "reps": reps, "good": good, "attempted": attempted,
                "failed": failed, "digest": None, "latencies_ms": latencies}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(run: dict) -> dict[str, float]:
    untraced = [r for r in run["good"] if not r["traced"]]
    rates = [r["poems"] / r["wall_s"] for r in untraced]
    lat = run["latencies_ms"]
    return {"poems_per_s": _median(rates), "op_p50_ms": _percentile(lat, 50),
            "op_p99_ms": _percentile(lat, 99),
            "peak_rss_mb": _median([r["rss_mb"] for r in untraced]),
            "setup_s": _median(run["setup"])}


def per_layer(run: dict) -> dict[str, float]:
    traced = [r for r in run["good"] if r["traced"]]
    layers: dict[str, list[float]] = {}
    for rep in traced:
        for key, value in (rep["layers"] or {}).items():
            layers.setdefault(key, []).append(value)
    metrics = {name: _median(layers[name]) if name in layers else 0.0 for name in PER_LAYER}
    untraced = _median([r["poems"] / r["wall_s"] for r in run["good"] if not r["traced"]])
    traced_rate = _median([r["poems"] / r["wall_s"] for r in traced])
    metrics["tracing.untraced_poems_per_s"] = untraced
    metrics["tracing.traced_poems_per_s"] = traced_rate
    metrics["tracing.overhead_share"] = 1 - traced_rate / untraced
    return metrics


def host_facts() -> dict:
    dictionary = Path("src/poemetrics/data/cmudict_subset.dict").read_bytes()
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "dictionary_sha256": hashlib.sha256(dictionary).hexdigest(),
            "loadavg": os.getloadavg()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src/poemetrics/__init__.py").is_file() and Path("tests/mock_server.py").is_file()):
        print("error: run from the root of a poemetrics source tree (src/poemetrics and "
              "tests/mock_server.py are needed)", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(bench.dir, ignore_errors=True)
    bench.dir.mkdir(parents=True)
    facts = host_facts()
    if bench.run("inputs", args.workload, str(args.seed), str(bench.dir))[0] != 0:
        print(f"error: building the inputs failed; see {bench.log}", file=sys.stderr)
        return 1
    run = bench.generate() if args.workload == "generate-resume" else bench.analyze()
    facts["loadavg_end"] = os.getloadavg()
    metrics = per_layer(run) if args.trace else end_to_end(run)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        if math.isnan(value):  # no successful operation to measure
            bench.problems.append(f"{name} could not be measured")
            metrics[name] = 0.0
    correct = not bench.problems and run["failed"] == 0

    print(f"host: {json.dumps(facts)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(run['reps'])} timed runs, "
          f"{len(run['latencies_ms'])} latency samples, {len(run['setup'])} set-ups")
    if run["digest"]:
        print(f"report.json sha256 {run['digest']}")
    for problem in bench.problems:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if args.workload == "generate-resume" and not args.trace:
        print(f"prompts_per_s {metrics['poems_per_s']:.6g} 1/s")
        print(f"prompt_p50_ms {metrics['op_p50_ms']:.6g} ms")
        print(f"prompt_p99_ms {metrics['op_p99_ms']:.6g} ms")
    print(f"failed_share {run['failed'] / max(run['attempted'], 1):.6g} share "
          f"({run['failed']} of {run['attempted']} operations)")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": facts, "digest": run["digest"],
              "problems": bench.problems, "metrics": metrics, "setup_s": run["setup"],
              "reps": [{k: r.get(k) for k in ("name", "wall_s", "rss_mb", "traced", "ok",
                                               "poems", "layers")} for r in run["reps"]]}
    (results / f"{bench.dir.name}.json").write_text(json.dumps(record, indent=1), "utf-8")
    if correct:  # otherwise keep the outputs and children.log for inspection
        shutil.rmtree(bench.dir, ignore_errors=True)

    print(json.dumps({
        "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
