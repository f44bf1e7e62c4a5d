"""One benchmark step in its own process: python3 perfbench/child.py MODE ARGS.

Modes:
  inputs WORKLOAD SEED DIR   write the seeded inputs of a workload
  setup WITH_DICT RESULT     time importing poemetrics (and loading the dictionary)
  analyze JOB                run `poemetrics analyze` once, optionally traced
  generate JOB               run `run_job` once against the mock endpoint
  mock PLAN                  serve the mock endpoint until stdin closes
  check JOB                  check one run's outputs and derive its layer metrics

JOB is a JSON file written by run.py; every mode that has a result writes
it as JSON to the path the job names. The orchestrating process stays small
because each child's peak RSS includes its parent's resident set at spawn.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import inputs


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _dump(path: str, data: dict) -> None:
    Path(path).write_text(json.dumps(data), encoding="utf-8")


def make_inputs(workload: str, seed: int, workdir: Path) -> None:
    if workload == "generate-resume":
        from poemetrics.generate import build_grid

        grid = [(s.template, s.style, s.subject, s.rendered) for s in build_grid()]
        plan = inputs.resume_plan(seed, grid)
        inputs.resume_start_file(grid, plan, "gpt-4", "gpt4", workdir / "start.jsonl")
        _dump(workdir / "grid.json", {"grid": grid, **plan})
        return
    corpus_dir, truth_dir = workdir / "corpora", workdir / "truth"
    corpus_dir.mkdir()
    truth_dir.mkdir()
    build = inputs.styled_pair if workload == "styled-pair" else inputs.wide_vocab
    build(seed, corpus_dir, truth_dir)


def setup(with_dict: bool, result: str) -> None:
    t0 = time.perf_counter()
    import poemetrics

    if with_dict:
        poemetrics.load_dictionary(poemetrics.arpabet.bundled_dictionary_path())
    _dump(result, {"setup_s": time.perf_counter() - t0})


def analyze(job: dict) -> None:
    from poemetrics import cli
    import tracing

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer(job["run_id"])
        tracing.install_analyze(tracer)
    c0, t0 = time.process_time(), time.perf_counter()
    rc = cli.main(job["argv"])
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.write(job["spans"], {"wall_s": wall, "cpu_s": cpu})
    _dump(job["result"], {"rc": rc, "wall_s": wall, "cpu_s": cpu})


class TimedClient:
    """Passes complete() through, recording (prompt, start, end) of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, float, float]] = []

    def complete(self, model, prompt, temperature, max_tokens):
        t0 = time.perf_counter()
        try:
            return self.inner.complete(model, prompt, temperature, max_tokens)
        finally:
            self.calls.append((prompt, t0, time.perf_counter()))


def generate(job: dict) -> None:
    from poemetrics import generate as gen
    import tracing

    client = TimedClient(gen.ChatCompletionsClient(job["url"], "benchmark-key", timeout=30.0))
    run_job = gen.run_job
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer(job["run_id"])
        run_job = tracer.span("generate.run_job", gen.run_job, root=True)
        client.complete = tracer.span("generate.complete", client.complete,
                                      request=lambda args: args[1])
        gen.load_corpus = tracer.span("corpus.load_corpus", gen.load_corpus)
    grid_job = gen.GenerationJob(
        model="gpt-4",
        specs=gen.build_grid(),
        output_path=Path(job["output"]),
        backoff_base=inputs.BACKOFF_BASE_S,
        concurrency=2,
    )
    t0 = time.perf_counter()
    run_job(grid_job, client)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.write(job["spans"], {"wall_s": wall})
    calls = [(prompt, s - t0, e - t0) for prompt, s, e in client.calls]
    _dump(job["result"], {"rc": 0, "wall_s": wall, "calls": calls})


def mock(plan_path: str) -> None:
    sys.path.insert(0, "tests")
    from mock_server import MockChatEndpoint

    fail_first = _load(plan_path)["fail_first"]

    def reply(payload):
        time.sleep(inputs.SERVICE_DELAY_S)
        return inputs.MOCK_REPLY

    with MockChatEndpoint(reply=reply, fail_first=fail_first) as endpoint:
        print(endpoint.url, flush=True)
        sys.stdin.read()


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "inputs":
        make_inputs(argv[1], int(argv[2]), Path(argv[3]))
    elif mode == "setup":
        setup(argv[1] == "1", argv[2])
    elif mode == "analyze":
        analyze(_load(argv[1]))
    elif mode == "generate":
        generate(_load(argv[1]))
    elif mode == "mock":
        mock(argv[1])
    elif mode == "check":
        import checks

        job = _load(argv[1])
        _dump(job["verdict"], checks.check(job))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
