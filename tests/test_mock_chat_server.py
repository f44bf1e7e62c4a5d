"""scripts/mock_chat_server.py: canned poems served through MockChatEndpoint."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

from poemetrics.generate import ChatCompletionsClient, build_grid

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mock_chat_server.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("mock_chat_server", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_poem_for_is_deterministic_with_one_to_three_quatrains():
    script = _load_script()
    stanza_counts = set()
    for spec in build_grid():
        poem = script.poem_for(spec.rendered)
        assert poem == script.poem_for(spec.rendered)
        stanzas = poem.split("\n\n")
        assert all(len(s.split("\n")) == 4 for s in stanzas)
        assert all(line in script.STOCK_LINES for s in stanzas for line in s.split("\n"))
        stanza_counts.add(len(stanzas))
    assert stanza_counts == {1, 2, 3}


def test_script_serves_poem_for_each_prompt():
    script = _load_script()
    server = subprocess.Popen(
        [sys.executable, str(SCRIPT), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = server.stdout.readline()
        url = banner.rsplit(" ", 1)[-1].strip()
        assert url.startswith("http://127.0.0.1:") and url.endswith("/v1/chat/completions")
        client = ChatCompletionsClient(url, "dummy", timeout=30.0)
        for prompt in ("a sonnet about love", "a haiku about nature"):
            assert client.complete("gpt-4", prompt, 1.0, 64) == script.poem_for(prompt)
    finally:
        server.terminate()
        server.communicate(timeout=30)
