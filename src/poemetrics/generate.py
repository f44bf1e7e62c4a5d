"""Prompt-grid construction and batched collection of poem completions.

The full grid is the Cartesian product of 3 writing-prompt templates, 24
styles, and 40 subjects (2,880 prompts). Completions are collected from an
OpenAI-compatible chat-completions endpoint and written incrementally as
JSON Lines in the corpus format, so an interrupted run can resume without
duplicating any (source, template, style, subject) key.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .corpus import CANONICAL_STYLES, TEMPLATE_NAMES, Corpus, PoemRecord, load_corpus

logger = logging.getLogger(__name__)

_BASE = "Write a poem about the subject of {subject} in the following form or style: {style}."

PROMPT_TEMPLATES = {
    "general": _BASE,
    "figurative": _BASE + " Do not use the actual word(s) {subject} or {style} in the poem.",
    "specific": _BASE + " Make the poem about something specific.",
}

DEFAULT_TEMPLATES = TEMPLATE_NAMES

DEFAULT_STYLES = CANONICAL_STYLES

# Broad subject tags: nine general topics, eleven occasions, twenty holidays.
DEFAULT_SUBJECTS = (
    "activities",
    "arts & sciences",
    "living",
    "love",
    "mythology & folklore",
    "nature",
    "religion",
    "relationships",
    "social commentaries",
    "anniversary",
    "birth",
    "birthdays",
    "engagement",
    "farewells & good luck",
    "funerals",
    "get well & recovery",
    "graduation",
    "gratitude & apologies",
    "toasts & celebrations",
    "weddings",
    "christmas",
    "cinco de mayo",
    "easter",
    "father's day",
    "halloween",
    "hanukkah",
    "independence day",
    "kwanzaa",
    "labor day",
    "memorial day",
    "mother's day",
    "new year",
    "passover",
    "ramadan",
    "rosh hashanah",
    "september 11th",
    "st. patrick's day",
    "thanksgiving",
    "valentine's day",
    "yom kippur",
)


@dataclass(frozen=True)
class PromptSpec:
    template: str
    style: str
    subject: str
    rendered: str


def render_prompt(template: str, style: str, subject: str) -> str:
    if template not in PROMPT_TEMPLATES:
        raise ValueError(f"unknown template {template!r}")
    return PROMPT_TEMPLATES[template].format(subject=subject, style=style)


def build_grid(
    styles: tuple[str, ...] = DEFAULT_STYLES,
    subjects: tuple[str, ...] = DEFAULT_SUBJECTS,
    templates: tuple[str, ...] = DEFAULT_TEMPLATES,
) -> list[PromptSpec]:
    """Cartesian product of prompts in deterministic (template, style, subject) order."""
    if not styles:
        raise ValueError("styles must be non-empty")
    if not subjects:
        raise ValueError("subjects must be non-empty")
    if not templates:
        raise ValueError("templates must be non-empty")
    return [
        PromptSpec(
            template=template,
            style=style,
            subject=subject,
            rendered=render_prompt(template, style, subject),
        )
        for template in templates
        for style in styles
        for subject in subjects
    ]


def source_for_model(model: str) -> str:
    """Map a model identifier to a corpus source label."""
    normalized = model.lower()
    if normalized.startswith(("gpt-3.5", "gpt3.5", "gpt35")):
        return "gpt35"
    if normalized.startswith(("gpt-4", "gpt4")):
        return "gpt4"
    return f"model:{model}"


_SLUG_RE = re.compile(r"[^a-z0-9]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text.lower()).strip("-")


def spec_key(spec: PromptSpec) -> tuple[str, str, str]:
    return (spec.template, spec.style, spec.subject)


def record_id_for(model: str, spec: PromptSpec) -> str:
    return f"{_slug(model)}_{spec.template}_{_slug(spec.style)}_{_slug(spec.subject)}"


class AuthenticationError(RuntimeError):
    """The endpoint rejected our credentials; the job must abort."""


class TransientRequestError(RuntimeError):
    """Throttling or server-side failure; the request may be retried.

    retry_after is the delay in seconds the server asked for (a Retry-After
    header in delta-seconds form on a 429 or 503), or None.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class RequestFailed(RuntimeError):
    """A non-retryable request failure."""


class ChatCompletionsClient:
    """Minimal client for an OpenAI-compatible chat-completions endpoint, one connection per call.

    The http_proxy, https_proxy and no_proxy environment variables, as they
    are when the client is made, are honored as urllib.request.urlopen
    honors them.
    """

    def __init__(self, endpoint: str, api_key: str, timeout: float = 120.0):
        # Imported here, not at module level, to keep the HTTP stack off the analysis path.
        # Imported before the run's resume scan, not at the first request: a generate-resume
        # run then peaks 0.5 MB lower.
        from http.client import HTTPConnection, HTTPSConnection
        from urllib.parse import urlsplit

        self.endpoint = endpoint
        self.timeout = timeout
        # The User-Agent and Connection headers that urlopen sends.
        self._headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json",
                         "User-Agent": f"Python-urllib/{sys.version_info[0]}.{sys.version_info[1]}",
                         "Connection": "close"}
        url = urlsplit(endpoint)
        scheme, host = url.scheme, url.netloc
        self._target = url.path + (f"?{url.query}" if url.query else "")
        self._tunnel = None
        proxy = _proxy_for(scheme, host)
        if proxy is not None:
            proxy_scheme, host, authorization = proxy
            headers = {"Proxy-Authorization": authorization} if authorization else {}
            if scheme == "https":  # through a CONNECT tunnel, with TLS to the endpoint
                self._tunnel = (url.netloc, headers)
            else:  # the proxy is sent the absolute URL
                scheme, self._target = proxy_scheme, endpoint.partition("#")[0]
                self._headers.update(headers)
        self._connection_type = HTTPSConnection if scheme == "https" else HTTPConnection
        self._host = host

    def complete(self, model: str, prompt: str, temperature: float, max_tokens: int) -> str:
        from http.client import HTTPException

        payload = {
            "model": model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        connection = self._connection_type(self._host, timeout=self.timeout)
        if self._tunnel is not None:
            connection.set_tunnel(self._tunnel[0], headers=self._tunnel[1])
        try:
            connection.request("POST", self._target, json.dumps(payload).encode(), self._headers)
            with connection.getresponse() as response:
                status, headers, body = response.status, response.headers, response.read()
        except (OSError, HTTPException) as exc:
            raise TransientRequestError(f"request failed: {exc}") from exc
        finally:
            connection.close()
        if status in (401, 403):
            raise AuthenticationError(f"endpoint returned {status}")
        if status == 429 or status >= 500:
            header = headers.get("Retry-After", "") if status in (429, 503) else ""
            retry_after = float(header) if header.isascii() and header.isdigit() else None
            raise TransientRequestError(f"endpoint returned {status}", retry_after)
        if status != 200:
            raise RequestFailed(f"endpoint returned {status}: {body.decode(errors='replace')[:200]}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise RequestFailed(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise RequestFailed(f"malformed completion response: content is {type(content).__name__}")
        if not content.strip():
            raise RequestFailed("empty completion text")
        return content


def _proxy_for(scheme: str, host: str) -> tuple[str, str, str | None] | None:
    """The proxy that urlopen sends a request for scheme://host through, as (scheme,
    host[:port], Proxy-Authorization value or None), or None to connect directly.

    urllib.request is imported only when a *_proxy environment variable is set.
    """
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    from urllib.parse import unquote, urlsplit
    from urllib.request import getproxies, proxy_bypass

    proxy = getproxies().get(scheme)
    if not proxy or proxy_bypass(host):
        return None
    # A proxy given without a scheme ("host:3128") is an authority.
    parts = urlsplit(proxy if "//" in proxy else f"//{proxy}")
    authorization = None
    if parts.username and parts.password:
        from base64 import b64encode

        credentials = f"{unquote(parts.username)}:{unquote(parts.password)}"
        authorization = f"Basic {b64encode(credentials.encode()).decode('ascii')}"
    return parts.scheme or scheme, unquote(parts.netloc.rpartition("@")[2]), authorization


@dataclass
class GenerationJob:
    """One batch of prompt specs to collect for a single model."""

    model: str
    specs: list[PromptSpec]
    output_path: Path
    temperature: float = 1.0
    max_output_tokens: int = 1024
    max_retries: int = 3
    backoff_base: float = 0.5
    rate_limit_per_sec: float | None = None
    concurrency: int = 4
    resume: bool = True


# Longest sleep between two attempts at one spec, whatever the backoff or Retry-After.
MAX_BACKOFF_S = 30.0

# Specs finished between two progress lines that run_job logs at INFO.
PROGRESS_EVERY = 100


def _row_key(raw: dict) -> tuple[str, str, str]:
    """spec_key of a sidecar row."""
    return (raw.get("template"), raw.get("style"), raw.get("subject"))


def _completed_keys(path: Path, source: str) -> set[tuple[str, str, str]]:
    """Keys of the source's rows already in the output file, after repairing its tail.

    A run killed mid-write can leave an incomplete final line; it is cut off
    (the spec will be refetched). A complete final row without its newline
    gets one, so the next append starts a line of its own. The rows are then
    read by load_corpus, which raises CorpusError on any other bad row.
    """
    if not path.exists():
        return set()
    with open(path, "r+b") as handle:
        data = handle.read()
        tail = data[data.rfind(b"\n") + 1:]
        if tail.strip():
            try:
                json.loads(tail)  # only tells a torn tail from a complete row
            except ValueError:  # a JSONDecodeError, or a tear inside a UTF-8 sequence
                logger.warning("%s: dropping torn trailing line during resume", path)
                handle.truncate(len(data) - len(tail))
            else:
                handle.write(b"\n")
    return {spec_key(r) for r in load_corpus(path, "json-lines") if r.source == source}


def _prune_failures(
    path: Path, source: str, done: set[tuple[str, str, str]], specs: list[PromptSpec]
) -> None:
    """Drop the source's sidecar rows of specs done or requested, and rows that are not
    JSON objects; delete it once empty. A row without a source counts as the source's.

    A line that is not UTF-8 JSON, such as one torn by a killed run, even inside a UTF-8
    sequence, is dropped with a warning.
    """
    if not path.exists():
        return
    settled = done | {spec_key(s) for s in specs}
    kept = []
    for line in path.read_bytes().splitlines():
        try:
            raw = json.loads(line.decode("utf-8"))
        except ValueError:  # a UnicodeDecodeError or a JSONDecodeError
            logger.warning("%s: dropping torn trailing line during resume", path)
            continue
        if isinstance(raw, dict) and (raw.get("source", source) != source
                                      or _row_key(raw) not in settled):
            kept.append(line + b"\n")
    if kept:
        path.write_bytes(b"".join(kept))
    else:
        path.unlink()


def check_specs(model: str, specs: list[PromptSpec]) -> None:
    """Raise ValueError if a spec has a blank subject or shares its record id with another.

    A repeated key shares its id too. Either fault would write a row that
    every later resume of the file stops on: two rows with one id, or one
    that reads back without its subject.
    """
    first: dict[str, PromptSpec] = {}
    for spec in specs:
        if not spec.subject.strip():
            raise ValueError(f"blank subject in prompt {spec_key(spec)}")
        record_id = record_id_for(model, spec)
        other = first.setdefault(record_id, spec)
        if other is not spec:
            raise ValueError(
                f"prompts {spec_key(other)} and {spec_key(spec)} share the record id {record_id!r}"
            )


class _Prompt:
    """A pending spec's retries so far and the backoff its next transient failure waits."""

    __slots__ = ("spec", "retries", "backoff")

    def __init__(self, spec: PromptSpec, backoff: float):
        self.spec, self.retries, self.backoff = spec, 0, backoff


def run_job(job: GenerationJob, client: ChatCompletionsClient) -> Corpus:
    """Collect all pending specs, appending each one's row as soon as it finishes.

    Rerunning with resume skips specs already present in the output file
    with the model's source.
    Completed, failed and retried counts are logged at INFO every
    PROGRESS_EVERY finished specs short of the last, and once at the end.

    At most job.concurrency requests are in flight, each one attempt at one
    spec. A spec hitting a throttle or server error waits out exponential
    backoff, or the delay a 429 or 503 asked for, capped at MAX_BACKOFF_S,
    without holding a request slot; its warning states the delay. A free slot
    goes first to a retry that is due, then to the next pending spec if the
    shortest request that has returned a completion so far would end before
    every waiting retry left without a slot is due. With job.rate_limit_per_sec,
    request starts, retries included, are spaced at least 1 / rate seconds
    apart; a spec waiting for its turn holds neither a slot nor a thread, and
    a retry that falls due meanwhile still goes first. Specs that still fail
    are recorded in a ".failures.jsonl" sidecar and skipped; the source's
    rows from earlier runs are dropped for specs complete or requested
    again. Any other error, AuthenticationError included, stops the run: the
    requests in flight are awaited and discarded, specs not yet started and
    specs waiting to retry are dropped, and the error propagates. Specs that
    check_specs rejects raise ValueError before the output file is touched.

    concurrent.futures and queue are imported here, as the client imports the
    HTTP stack, so that a process that only analyzes loads none of them.
    """
    from concurrent.futures import Future, ThreadPoolExecutor
    from queue import Empty, SimpleQueue

    check_specs(job.model, job.specs)
    output_path = Path(job.output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    source = source_for_model(job.model)
    done = _completed_keys(output_path, source) if job.resume else set()
    if not job.resume and output_path.exists():
        output_path.unlink()
    output_path.touch(exist_ok=True)
    failures_path = output_path.with_suffix(output_path.suffix + ".failures.jsonl")
    _prune_failures(failures_path, source, done, job.specs)
    pending = [s for s in job.specs if spec_key(s) not in done]
    logger.info(
        "model %s: %d specs requested, %d already complete, %d pending",
        job.model, len(job.specs), len(job.specs) - len(pending), len(pending),
    )

    interval = 1.0 / job.rate_limit_per_sec if job.rate_limit_per_sec else 0.0
    # The earliest time the next request may start: starts are spaced interval apart.
    next_start = 0.0
    # Finished specs by outcome, and retries scheduled.
    progress = {"completed": 0, "failed": 0, "retried": 0}
    unstarted = iter(pending)
    next_spec = next(unstarted, None)
    # Specs waiting out a backoff, as (due time, order of scheduling, prompt): a heap.
    waiting: list[tuple[float, int, _Prompt]] = []
    order = itertools.count()
    # Each finished attempt, put there by its future's callback.
    replies: SimpleQueue[tuple[_Prompt, Future]] = SimpleQueue()
    in_flight = 0
    # The shortest request so far that returned a completion; None until one has.
    shortest: float | None = None

    def log_progress(when: str) -> None:
        logger.info("%s: %d of %d pending specs finished, %d completed, %d failed, %d retries",
                    when, progress["completed"] + progress["failed"], len(pending),
                    progress["completed"], progress["failed"], progress["retried"])

    def finish(path: Path, row: dict, outcome: str) -> None:
        """Append a finished spec's row and count it."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
        progress[outcome] += 1
        finished = progress["completed"] + progress["failed"]
        # The last spec's counts are logged once, by the end-of-run line.
        if finished % PROGRESS_EVERY == 0 and finished < len(pending):
            log_progress("progress")

    def attempt(spec: PromptSpec) -> tuple[str, float] | tuple[Exception, None]:
        """One request, in a worker: the completion and its seconds, or the request's error."""
        start = time.monotonic()
        try:
            text = client.complete(job.model, spec.rendered, job.temperature, job.max_output_tokens)
        except (TransientRequestError, RequestFailed) as exc:
            return exc, None
        return text, time.monotonic() - start

    def settle(prompt: _Prompt, reply: str | Exception) -> None:
        """Write a completion or a failure row, or put a transient failure on the waiting heap."""
        spec = prompt.spec
        if isinstance(reply, str):
            record = PoemRecord(
                id=record_id_for(job.model, spec), text=reply, source=source,
                style=spec.style, subject=spec.subject, template=spec.template,
            )
            finish(output_path, {**record.to_json_dict(), "model": job.model}, "completed")
        elif isinstance(reply, TransientRequestError) and prompt.retries < job.max_retries:
            delay = min(prompt.backoff if reply.retry_after is None else reply.retry_after,
                        MAX_BACKOFF_S)
            prompt.retries += 1
            prompt.backoff *= 2
            progress["retried"] += 1
            logger.warning("retrying %s in %g s after %s (attempt %d)",
                           spec_key(spec), delay, reply, prompt.retries)
            heapq.heappush(waiting, (time.monotonic() + delay, next(order), prompt))
        else:
            finish(failures_path, {
                "source": source,
                "template": spec.template,
                "style": spec.style,
                "subject": spec.subject,
                "error": str(reply),
            }, "failed")
            logger.error("giving up on %s: %s", spec_key(spec), reply)

    def new_spec_fits(now: float, free: int) -> bool:
        """Whether a new spec started now in one of free slots is expected to end before
        every waiting retry that the other free - 1 slots cannot take is due."""
        if len(waiting) < free:
            return True
        return now + (shortest or 0.0) <= heapq.nsmallest(free, waiting)[-1][0]

    executor = ThreadPoolExecutor(job.concurrency, thread_name_prefix="poemetrics-generate")
    try:
        while in_flight or waiting or next_spec is not None:
            now = time.monotonic()
            while in_flight < job.concurrency and now >= next_start:
                if waiting and waiting[0][0] <= now:
                    prompt = heapq.heappop(waiting)[2]
                elif next_spec is not None and new_spec_fits(now, job.concurrency - in_flight):
                    prompt = _Prompt(next_spec, job.backoff_base)
                    next_spec = next(unstarted, None)
                else:
                    break
                future = executor.submit(attempt, prompt.spec)
                future.add_done_callback(lambda f, p=prompt: replies.put((p, f)))
                in_flight += 1
                next_start = max(now, next_start) + interval
            # With every slot busy only a reply can free one, so no start time is waited on.
            # A free slot waits for next_start while a new spec could take it, else for the
            # first due retry but not before next_start. A next_start already past is not
            # waited on: with a new spec that does not fit, this loop would spin.
            timeout = None
            if in_flight < job.concurrency:
                if now < next_start and next_spec is not None:
                    timeout = next_start - now
                elif waiting:
                    timeout = max(waiting[0][0], next_start) - now
            try:
                prompt, future = replies.get(timeout=timeout)
            except Empty:
                continue
            in_flight -= 1
            reply, seconds = future.result()
            if seconds is not None:
                shortest = seconds if shortest is None else min(shortest, seconds)
            settle(prompt, reply)
    finally:  # an error, or an interrupt in this thread, drops every spec not yet written
        executor.shutdown(cancel_futures=True)
        log_progress("run ended")
    return load_corpus(output_path, "json-lines")
