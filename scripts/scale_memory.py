#!/usr/bin/env python3
"""Measure `poemetrics analyze` on corpora repeated to a larger size.

Writes each JSON Lines corpus TIMES over, every copy of a poem with a fresh
id ("<id>~<copy>"), to a temporary directory, runs `analyze` on the copies
in a child process with any flags given after "--", and prints one JSON
line: the poem count, the child's peak resident set (os.wait4) and its wall
time. The temporary directory, report included, is removed on exit.

This process imports only the standard library and streams the copies, so
that it stays small: on Linux a child's peak RSS counts its parent's
resident set at the moment it is spawned.

Usage:
    python scripts/scale_memory.py A.jsonl B.jsonl --times 100 -- --threads 2 --per-poem
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ANALYZE = "import sys; from poemetrics.cli import main; sys.exit(main(sys.argv[1:]))"


def write_copies(source: Path, target: Path, times: int) -> int:
    """Write times copies of the JSON Lines corpus source to target; return the poem count."""
    poems = 0
    with open(target, "w", encoding="utf-8") as out:
        for copy in range(times):
            with open(source, encoding="utf-8-sig") as lines:
                for line in lines:
                    if not line.strip():
                        continue
                    raw = json.loads(line)
                    if "id" in raw:  # an id-less poem is named by its line, which no copy shares
                        raw["id"] = f"{raw['id']}~{copy}"
                    out.write(json.dumps(raw, ensure_ascii=False) + "\n")
                    poems += 1
    return poems


def measure(corpora: list[Path], times: int, flags: list[str]) -> dict:
    """Run analyze on times copies of corpora; its poems, exit code, peak RSS and wall time."""
    work = Path(tempfile.mkdtemp(prefix="scale-memory-"))
    try:
        copies, poems = [], 0
        for i, corpus in enumerate(corpora):
            # A directory per corpus keeps each file's name, and so its label.
            (work / str(i)).mkdir()
            copies.append(work / str(i) / corpus.name)
            poems += write_copies(corpus, copies[-1], times)
        argv = [sys.executable, "-c", ANALYZE, "analyze", *map(str, copies),
                "--out", str(work / "out"), *flags]
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        started = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(work)
    # ru_maxrss is in KiB on Linux.
    return {"times": times, "poems": poems, "exit": os.waitstatus_to_exitcode(status),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1), "wall_s": round(wall, 3)}


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     usage="%(prog)s CORPUS [CORPUS ...] --times N "
                                           "[-- ANALYZE FLAGS]")
    parser.add_argument("corpora", nargs="+", type=Path, help="JSON Lines corpora")
    parser.add_argument("--times", type=int, required=True,
                        help="copies of each corpus to analyze (at least 1)")
    args = parser.parse_args(argv[:split])
    if args.times < 1:
        parser.error("--times must be at least 1")
    result = measure(args.corpora, args.times, argv[split + 1:])
    print(json.dumps(result))
    return 0 if result["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
