from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from poemetrics.corpus import load_corpus
from poemetrics.generate import (
    AuthenticationError,
    ChatCompletionsClient,
    DEFAULT_STYLES,
    DEFAULT_SUBJECTS,
    GenerationJob,
    build_grid,
    render_prompt,
    run_job,
    source_for_model,
    spec_key,
)

from mock_server import MockChatEndpoint


# --- grid construction -------------------------------------------------------

def test_full_grid_dimensions():
    specs = build_grid()
    assert len(specs) == 2880
    assert len(DEFAULT_STYLES) == 24
    assert len(DEFAULT_SUBJECTS) == 40
    per_style = Counter(s.style for s in specs)
    per_subject = Counter(s.subject for s in specs)
    assert set(per_style.values()) == {120}
    assert set(per_subject.values()) == {72}
    assert len({(s.template, s.style, s.subject) for s in specs}) == 2880


def test_rendered_templates_are_byte_exact():
    general, figurative, specific = build_grid(
        styles=("sonnet",), subjects=("love",),
        templates=("general", "figurative", "specific"),
    )
    base = "Write a poem about the subject of love in the following form or style: sonnet."
    assert general.rendered == base
    assert figurative.rendered == (
        base + " Do not use the actual word(s) love or sonnet in the poem."
    )
    assert specific.rendered == base + " Make the poem about something specific."


def test_grid_order_is_template_style_subject():
    specs = build_grid(
        styles=("sonnet", "haiku"), subjects=("love", "nature"),
        templates=("general", "specific"),
    )
    keys = [(s.template, s.style, s.subject) for s in specs]
    assert keys == [
        ("general", "sonnet", "love"),
        ("general", "sonnet", "nature"),
        ("general", "haiku", "love"),
        ("general", "haiku", "nature"),
        ("specific", "sonnet", "love"),
        ("specific", "sonnet", "nature"),
        ("specific", "haiku", "love"),
        ("specific", "haiku", "nature"),
    ]


def test_empty_grid_inputs_are_errors():
    with pytest.raises(ValueError, match="subjects"):
        build_grid(styles=("sonnet",), subjects=(), templates=("general",))
    with pytest.raises(ValueError, match="styles"):
        build_grid(styles=(), subjects=("love",), templates=("general",))


def test_unknown_template_is_an_error():
    with pytest.raises(ValueError, match="template"):
        render_prompt("casual", "sonnet", "love")


def test_source_for_model():
    assert source_for_model("gpt-4-0613") == "gpt4"
    assert source_for_model("gpt-3.5-turbo") == "gpt35"
    assert source_for_model("claude-x") == "model:claude-x"


# --- run_job ------------------------------------------------------------------

def _job(specs, out, **kwargs) -> GenerationJob:
    defaults = dict(
        model="gpt-4", specs=specs, output_path=Path(out),
        backoff_base=0.0, concurrency=2,
    )
    defaults.update(kwargs)
    return GenerationJob(**defaults)


def _small_grid():
    return build_grid(
        styles=("sonnet",), subjects=("love", "nature", "religion"),
        templates=("general",),
    )


def test_mock_round_trip(tmp_path):
    specs = _small_grid()
    with MockChatEndpoint() as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        corpus = run_job(_job(specs, tmp_path / "out.jsonl"), client)
    assert len(corpus) == 3
    by_subject = {r.subject: r for r in corpus}
    assert set(by_subject) == {"love", "nature", "religion"}
    record = by_subject["love"]
    assert record.source == "gpt4"
    assert record.style == "sonnet"
    assert record.template == "general"
    assert record.text == "The morning light\nupon the hill"


def test_request_payload_shape(tmp_path):
    specs = _small_grid()[:1]
    with MockChatEndpoint() as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        run_job(_job(specs, tmp_path / "out.jsonl", temperature=0.7,
                     max_output_tokens=256), client)
        payload = endpoint.requests[0]
    assert payload["model"] == "gpt-4"
    assert payload["temperature"] == 0.7
    assert payload["max_tokens"] == 256
    assert payload["messages"] == [{"role": "user", "content": specs[0].rendered}]


def test_retries_then_success(tmp_path, caplog):
    specs = _small_grid()
    with MockChatEndpoint(fail_first={"nature": [500, 429]}) as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        with caplog.at_level("WARNING", logger="poemetrics.generate"):
            corpus = run_job(_job(specs, tmp_path / "out.jsonl"), client)
    assert len(corpus) == 3
    retries = [r for r in caplog.records if "retrying" in r.getMessage()]
    assert len(retries) == 2


def test_failure_row_after_exhausted_retries(tmp_path):
    specs = _small_grid()
    out = tmp_path / "out.jsonl"
    with MockChatEndpoint(fail_first={"nature": [500] * 10}) as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        corpus = run_job(_job(specs, out, max_retries=2), client)
    assert len(corpus) == 2
    failures = (out.parent / "out.jsonl.failures.jsonl").read_text()
    assert "nature" in failures


def test_resume_after_partial_run(tmp_path):
    specs = build_grid(
        styles=("sonnet", "haiku"), subjects=("love", "nature", "religion"),
        templates=("general", "specific"),
    )
    out = tmp_path / "out.jsonl"
    half = len(specs) // 2
    with MockChatEndpoint() as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        run_job(_job(specs[:half], out), client)
        assert len(load_corpus(out)) == half
        corpus = run_job(_job(specs, out), client)
        served = len(endpoint.requests)
    assert served == len(specs)  # second run only fetched the missing half
    keys = [(r.template, r.style, r.subject) for r in corpus]
    assert len(keys) == len(specs)
    assert len(set(keys)) == len(specs)


def test_resume_tolerates_torn_final_line(tmp_path):
    specs = _small_grid()
    out = tmp_path / "out.jsonl"
    with MockChatEndpoint() as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        run_job(_job(specs[:2], out), client)
        with open(out, "a", encoding="utf-8") as handle:
            handle.write('{"template": "general", "sty')  # torn write
        corpus = run_job(_job(specs, out), client)
    # torn line ignored; the remaining spec fetched exactly once
    assert len(corpus) == 3


def test_failed_specs_are_retried_on_resume(tmp_path):
    specs = _small_grid()
    out = tmp_path / "out.jsonl"
    with MockChatEndpoint(fail_first={"nature": [500] * 3}) as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        assert len(run_job(_job(specs, out, max_retries=1), client)) == 2
        corpus = run_job(_job(specs, out, max_retries=1), client)
    assert len(corpus) == 3
    failures = out.parent / "out.jsonl.failures.jsonl"
    assert not failures.exists() or "nature" not in failures.read_text()


def test_no_resume_keeps_only_failures_of_this_run(tmp_path):
    out = tmp_path / "out.jsonl"
    failures = out.parent / "out.jsonl.failures.jsonl"
    specs = _small_grid()
    with MockChatEndpoint(fail_first={"love": [500], "nature": [500]}) as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        run_job(_job(specs[:2], out, max_retries=0), client)
        assert "love" in failures.read_text() and "nature" in failures.read_text()
        corpus = run_job(_job(specs[1:], out, max_retries=0, resume=False), client)
    # love was not requested again, so its row stays; nature was, and now has a poem
    assert sorted(r.subject for r in corpus) == ["nature", "religion"]
    rows = [json.loads(line) for line in failures.read_text().splitlines()]
    assert [row["subject"] for row in rows] == ["love"]


def test_no_resume_overwrites(tmp_path):
    specs = _small_grid()
    out = tmp_path / "out.jsonl"
    with MockChatEndpoint() as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        run_job(_job(specs, out), client)
        corpus = run_job(_job(specs, out, resume=False), client)
        assert len(endpoint.requests) == 6
    assert len(corpus) == 3


def test_auth_failure_aborts(tmp_path):
    specs = _small_grid()
    with MockChatEndpoint(expect_key="right-key") as endpoint:
        client = ChatCompletionsClient(endpoint.url, "wrong-key")
        with pytest.raises(AuthenticationError):
            run_job(_job(specs, tmp_path / "out.jsonl"), client)


def test_empty_completion_becomes_failure_row(tmp_path):
    specs = _small_grid()[:1]
    out = tmp_path / "out.jsonl"
    with MockChatEndpoint(reply=lambda payload: "   ") as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        corpus = run_job(_job(specs, out), client)
    assert len(corpus) == 0
    assert "empty completion" in (out.parent / "out.jsonl.failures.jsonl").read_text()


def test_output_loads_via_corpus_loader(tmp_path):
    specs = _small_grid()
    out = tmp_path / "out.jsonl"
    with MockChatEndpoint() as endpoint:
        client = ChatCompletionsClient(endpoint.url, "test-key")
        run_job(_job(specs, out), client)
    corpus = load_corpus(out, "json-lines")
    assert len(corpus) == 3
    assert len({r.id for r in corpus}) == 3


def test_spec_key_uniqueness_over_full_grid():
    specs = build_grid()
    assert len({spec_key(s) for s in specs}) == len(specs)


def test_rate_limiter_spaces_requests():
    import time

    from poemetrics.generate import _RateLimiter

    limiter = _RateLimiter(100.0)  # at most one start per 10ms
    start = time.monotonic()
    for _ in range(4):
        limiter.wait()
    assert time.monotonic() - start >= 0.03

    unlimited = _RateLimiter(None)
    start = time.monotonic()
    for _ in range(100):
        unlimited.wait()
    assert time.monotonic() - start < 0.5
