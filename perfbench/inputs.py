"""Seeded benchmark inputs, built from the bundled dictionary file alone.

Nothing here imports poemetrics: the inputs and their ground truth are made
without the code under test. Every function is a pure function of its seed,
so the same seed always gives byte-identical files.

Corpora are JSON Lines in the canonical corpus format. Each corpus has a
ground-truth sidecar (one JSON object per poem: id, source, style, line
count, stanza sizes) that is only read by the benchmark's own checks.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

DICT_PATH = Path("src/poemetrics/data/cmudict_subset.dict")

# Kept in step with the corpus module's closed vocabularies; a mismatch makes
# the program reject the generated corpus, which the benchmark reports.
STYLES = (
    "a poem", "ars poetica", "aubade", "ballad", "blank verse", "common measure",
    "couplet", "ekphrasis", "elegy", "free verse", "ghazal", "haiku", "limerick",
    "monologue", "ode", "pantoum", "pastoral", "prose poem", "quatrain", "sestina",
    "sonnet", "tercet", "villanelle", "visual poetry",
)
TEMPLATES = ("general", "figurative", "specific")
FIXED_FORMS = {"sonnet": 14, "villanelle": 19, "sestina": 39, "limerick": 5}

# Sizes per corpus. Both analyze workloads run about the same time per call.
STYLED_POEMS = 800
WIDE_POEMS = 1200
WIDE_VOCABULARY = 20 * 2177  # ~20x the bundled dictionary's word count

# generate-resume: grid rows already in the output file, and scripted
# throttling. The two failure classes are sized so that the median prompt
# never retries and the 99th percentile always lies among the prompts that
# retry twice.
PENDING_PROMPTS = 1000  # of the 2,880-prompt grid; the rest start present
ONE_FAILURE = 30
TWO_FAILURES = 30
SERVICE_DELAY_S = 0.012
BACKOFF_BASE_S = 0.02
MOCK_REPLY = "The morning light\nupon the hill\n\nwe keep the\nsilver rain"

_MONTHS = ("January", "March", "May", "June", "October", "December")
_CONTRACTIONS = ("don’t", "can’t", "won’t", "world’s", "night’s", "ain’t", "we’ll")
_ONSETS = ("b", "br", "c", "ch", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "l",
           "m", "n", "p", "pr", "qu", "r", "s", "sh", "st", "t", "th", "tr", "v", "w", "z")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "y")
_NON_ASCII = ("é", "ö", "ñ", "å", "ø", "ü", "í", "ç")
_CODAS = ("", "", "", "n", "r", "s", "th", "ng", "ck", "ll")


def dictionary_words(path: Path = DICT_PATH) -> list[str]:
    """Distinct lowercased headwords of a CMU-format file, in file order."""
    seen: dict[str, None] = {}
    for line in path.read_text("utf-8").splitlines():
        if not line.strip() or line.startswith(";;;"):
            continue
        word = line.split()[0].split("(")[0].lower()
        seen.setdefault(word, None)
    return list(seen)


def _rhyme_classes(path: Path = DICT_PATH) -> list[list[str]]:
    """Words grouped by the phonemes from their last stressed vowel on."""
    classes: dict[tuple[str, ...], list[str]] = {}
    for line in path.read_text("utf-8").splitlines():
        parts = line.split()
        if len(parts) < 2 or line.startswith(";;;") or "(" in parts[0]:
            continue
        phones = parts[1:]
        vowels = [i for i, p in enumerate(phones) if p[-1].isdigit()]
        stressed = [i for i in vowels if phones[i][-1] in "12"]
        start = (stressed or vowels or [None])[-1]
        if start is None:
            continue
        classes.setdefault(tuple(phones[start:]), []).append(parts[0].lower())
    return [words for _, words in sorted(classes.items()) if len(words) >= 2]


class _Zipf:
    """Draws words with probability proportional to 1 / rank."""

    def __init__(self, ranked: list[str]):
        self.words = ranked
        self.cum = list(itertools.accumulate(1.0 / r for r in range(1, len(ranked) + 1)))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def _perturbed(ranked: list[str], rng: random.Random, share: float) -> list[str]:
    """The ranking with a share of its positions swapped, so corpora differ."""
    out = list(ranked)
    for _ in range(int(len(out) * share)):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        out[i], out[j] = out[j], out[i]
    return out


def _styled_shape(rng: random.Random, style: str) -> list[int]:
    if style == "sonnet":
        return list(rng.choice([(4, 4, 4, 2), (8, 6), (14,), (4, 4, 3, 3)]))
    if style == "villanelle":
        return [3, 3, 3, 3, 3, 4]
    if style == "sestina":
        return [6, 6, 6, 6, 6, 6, 3]
    if style == "limerick":
        return [5]
    if style == "haiku":
        return [3]
    if style in ("quatrain", "common measure", "ballad", "pantoum"):
        return [4] * rng.randint(2, 5)
    if style in ("couplet", "ghazal"):
        return [2] * rng.randint(3, 8)
    if style == "tercet":
        return [3] * rng.randint(2, 5)
    return [rng.randint(2, 7) for _ in range(rng.randint(1, 5))]


def _prefatory_line(rng: random.Random, words: list[str]) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f"for {rng.choice(words).capitalize()}"
    if kind == 1:
        return f"after {rng.choice(words).capitalize()} {rng.choice(words).capitalize()}"
    if kind == 2:
        return str(rng.randint(1800, 2023))
    return f"{rng.choice(_MONTHS)} {rng.randint(1, 28)}, {rng.randint(1800, 2023)}"


def _rhymed_ends(rng: random.Random, sizes: list[int], classes: list[list[str]]) -> list[str]:
    ends = []
    for size in sizes:
        if size == 4:
            letters = rng.choice(["ABAB", "AABB", "ABCB"])
        else:
            letters = {2: "AA", 3: "ABA"}.get(size, ("AB" * size)[:size])
        pick = {letter: rng.choice(classes) for letter in sorted(set(letters))}
        ends.extend(rng.choice(pick[letters[i]]) for i in range(size))
    return ends


def _line(rng: random.Random, words: list[str], end: str | None) -> str:
    if end is not None:
        words = words[:-1] + [end]
    line = " ".join(words)
    line = line[0].upper() + line[1:]
    return line + rng.choice(("", "", ",", ".", ";"))


def _write(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def _body_lines(rng, zipf, sizes, ends, line_end=None) -> list[str]:
    lines, k = [], 0
    for size in sizes:
        for _ in range(size):
            draw = zipf.draw(rng, rng.randint(4, 9))
            end = ends[k] if ends else (line_end(rng) if line_end else None)
            lines.append(_line(rng, draw, end))
            k += 1
        lines.append("")
    return lines[:-1]


def styled_pair(seed: int, corpus_dir: Path, truth_dir: Path) -> None:
    """A gpt35 and a gpt4 corpus over all styles and templates.

    Every word is from the bundled dictionary. About half the poems rhyme,
    and a fifth of the fixed-form poems open with prefatory lines that the
    program is expected to strip.
    """
    words = dictionary_words()
    classes = _rhyme_classes()
    base = random.Random(f"styled-pair:{seed}")
    ranked = list(words)
    base.shuffle(ranked)
    for label, rhyme_share in (("gpt35", 0.6), ("gpt4", 0.45)):
        rng = random.Random(f"styled-pair:{seed}:{label}")
        zipf = _Zipf(_perturbed(ranked, rng, 0.1))
        records, truth = [], []
        for i in range(STYLED_POEMS):
            style = STYLES[i % len(STYLES)]
            template = TEMPLATES[(i // len(STYLES)) % len(TEMPLATES)]
            sizes = _styled_shape(rng, style)
            ends = _rhymed_ends(rng, sizes, classes) if rng.random() < rhyme_share else None
            lines = _body_lines(rng, zipf, sizes, ends)
            if style in FIXED_FORMS and rng.random() < 0.2:
                preface = [_prefatory_line(rng, words) for _ in range(rng.randint(1, 2))]
                lines = preface + [""] + lines
            poem_id = f"{label}-{i:05d}"
            records.append({"id": poem_id, "text": "\n".join(lines), "source": label,
                            "style": style, "template": template,
                            "subject": f"subject {i % 40}"})
            truth.append({"id": poem_id, "source": label, "style": style,
                          "lines": sum(sizes), "stanzas": sizes})
        _write(corpus_dir / f"{label}.jsonl", records)
        _write(truth_dir / f"{label}.jsonl", truth)


def _nonce_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    seen = set(taken)
    while len(out) < count:
        parts = []
        for _ in range(rng.randint(2, 4)):
            nucleus = rng.choice(_NON_ASCII) if rng.random() < 0.08 else rng.choice(_NUCLEI)
            parts.append(rng.choice(_ONSETS) + nucleus)
        word = "".join(parts) + rng.choice(_CODAS)
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _wide_line_end(rng: random.Random) -> str | None:
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(_CONTRACTIONS)
    if roll < 0.08:
        return str(rng.randint(1066, 2023))
    return None


def wide_vocab(seed: int, corpus_dir: Path, truth_dir: Path) -> None:
    """Two unlabeled human corpora over a vocabulary ~20x the dictionary.

    Words follow a 1/rank draw. The dictionary words sit among the top
    ranks, so frequent tokens are mostly known words while most distinct
    words are nonce words, some with non-ASCII letters. Some lines end in a
    curly-apostrophe contraction or a year.
    """
    words = dictionary_words()
    base = random.Random(f"wide-vocab:{seed}")
    nonce = _nonce_words(base, WIDE_VOCABULARY - len(words), set(words))
    head = list(words) + nonce[: 3 * len(words)]
    base.shuffle(head)
    ranked = head + nonce[3 * len(words):]
    for label in ("human_a", "human_b"):
        rng = random.Random(f"wide-vocab:{seed}:{label}")
        zipf = _Zipf(_perturbed(ranked, rng, 0.05))
        records, truth = [], []
        for i in range(WIDE_POEMS):
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
            lines = _body_lines(rng, zipf, sizes, None, _wide_line_end)
            poem_id = f"{label}-{i:05d}"
            records.append({"id": poem_id, "text": "\n".join(lines), "source": "human"})
            truth.append({"id": poem_id, "source": "human", "style": None,
                          "lines": sum(sizes), "stanzas": sizes})
        _write(corpus_dir / f"{label}.jsonl", records)
        _write(truth_dir / f"{label}.jsonl", truth)


def resume_plan(seed: int, grid: list[tuple[str, str, str, str]]) -> dict:
    """Which grid rows start present, the torn row, and the scripted failures.

    grid holds (template, style, subject, rendered prompt) in grid order.
    Failures are scripted only on figurative and specific prompts: a general
    prompt is a prefix of the other two templates' prompts for the same
    style and subject, and the mock endpoint matches prompts by substring.
    """
    rng = random.Random(f"generate-resume:{seed}")
    order = list(range(len(grid)))
    rng.shuffle(order)
    split = len(grid) - PENDING_PROMPTS
    present, pending = order[:split], order[split:]
    scriptable = [i for i in pending if grid[i][0] != "general"]
    chosen = rng.sample(scriptable, ONE_FAILURE + TWO_FAILURES)
    fail_first = {}
    for n, i in enumerate(chosen):
        first = rng.choice((429, 503))
        fail_first[grid[i][3]] = [first] if n < ONE_FAILURE else [first, rng.choice((429, 503))]
    return {"present": present, "torn": pending[0], "fail_first": fail_first}


def resume_start_file(grid, plan: dict, model: str, source: str, path: Path) -> None:
    """The output file a resumed run starts from: present rows, then a torn row."""
    rows = []
    for i in plan["present"]:
        template, style, subject, _ = grid[i]
        rows.append(json.dumps({"id": f"seeded-{i:04d}", "text": MOCK_REPLY, "source": source,
                                "style": style, "subject": subject, "template": template,
                                "model": model}, ensure_ascii=False))
    template, style, subject, _ = grid[plan["torn"]]
    torn = json.dumps({"id": "torn", "text": MOCK_REPLY, "source": source, "style": style,
                       "subject": subject, "template": template})
    path.write_text("\n".join(rows) + "\n" + torn[: len(torn) // 2], encoding="utf-8")
