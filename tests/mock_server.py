"""Local scriptable chat-completions endpoint for generation tests."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockChatEndpoint:
    """Serves OpenAI-style chat completions with per-prompt scripted failures.

    fail_first maps a prompt substring to a list of HTTP statuses to emit
    before succeeding. expect_key, when set, rejects other bearer tokens
    with a 401. host and port are where it listens; port 0 picks a free one.
    raw_body, when set, is sent as the body of every 200 response in place of
    a completion. retry_after, when set, is sent as a Retry-After header with
    each scripted 429 and 503.
    paths holds each request's target as sent, an absolute URL when it came
    through as a proxy, and request_headers each request's headers.
    """

    def __init__(self, reply=None, fail_first=None, expect_key=None, *,
                 host="127.0.0.1", port=0, raw_body=None, retry_after=None):
        self.requests: list[dict] = []
        self.paths: list[str] = []
        self.request_headers: list = []
        self.reply = reply or (lambda payload: "The morning light\nupon the hill")
        self.fail_first = {k: list(v) for k, v in (fail_first or {}).items()}
        self.expect_key = expect_key
        self.raw_body = raw_body
        self.retry_after = retry_after
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.requests.append(payload)
                    outer.paths.append(self.path)
                    outer.request_headers.append(self.headers)
                    if outer.expect_key is not None:
                        auth = self.headers.get("Authorization", "")
                        if auth != f"Bearer {outer.expect_key}":
                            self._respond(401, {"error": "invalid api key"})
                            return
                    prompt = payload["messages"][0]["content"]
                    for key, statuses in outer.fail_first.items():
                        if key in prompt and statuses:
                            status = statuses.pop(0)
                            self._respond(status, {"error": f"scripted {status}"})
                            return
                if outer.raw_body is not None:
                    self._respond(200, outer.raw_body)
                    return
                self._respond(
                    200, {"choices": [{"message": {"content": outer.reply(payload)}}]}
                )

            def _respond(self, status, body):
                data = body if isinstance(body, bytes) else json.dumps(body).encode()
                self.send_response(status)
                if status in (429, 503) and outer.retry_after is not None:
                    self.send_header("Retry-After", str(outer.retry_after))
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                try:
                    self.end_headers()
                    self.wfile.write(data)
                except ConnectionError:  # the client stopped waiting, as timeout tests do
                    pass

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer((host, port), Handler)
        # A short poll interval: shutdown() waits for the next poll, once per test.
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False
