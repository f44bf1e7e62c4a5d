#!/usr/bin/env python3
"""Serve a local OpenAI-style chat-completions endpoint with canned poems.

Useful for exercising `poemetrics generate` without network access or an
API key:

    python scripts/mock_chat_server.py --port 8080 &
    OPENAI_API_KEY=dummy poemetrics generate --model gpt-4 \
        --endpoint http://127.0.0.1:8080/v1/chat/completions \
        --styles sonnet haiku --subjects love nature --out mock.jsonl

Responses are deterministic per prompt (seeded by a hash of the prompt) and
assembled from a small stock of lines so the output parses, rhymes
occasionally, and scans. The HTTP side is tests/mock_server.MockChatEndpoint,
the endpoint the generation tests use.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))

from mock_server import MockChatEndpoint  # noqa: E402

STOCK_LINES = [
    "Upon the hill the morning light",
    "A whisper moves along the stream",
    "We gather where the shadows play",
    "The golden leaves begin to fall",
    "An echo calls across the night",
    "Beneath the stars we learn to dream",
    "The river bends and slips away",
    "A distant bell begins to call",
]


def poem_for(prompt: str) -> str:
    rng = random.Random(hashlib.sha256(prompt.encode()).digest())
    lines = [rng.choice(STOCK_LINES) for _ in range(rng.choice([4, 8, 12]))]
    stanzas = [lines[i:i + 4] for i in range(0, len(lines), 4)]
    return "\n\n".join("\n".join(s) for s in stanzas)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    args = parser.parse_args()
    with MockChatEndpoint(reply=lambda payload: poem_for(payload["messages"][0]["content"]),
                          host=args.host, port=args.port) as endpoint:
        print(f"serving mock chat completions on {endpoint.url}", flush=True)
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass


if __name__ == "__main__":
    main()
