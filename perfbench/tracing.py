"""Spans and counts recorded around poemetrics' public functions.

The traced run replaces functions at their call sites (the module attribute
the caller looks up) with wrappers, so the program itself is unchanged. A
span is (id, name, parent id, thread, wall start, wall end, thread-CPU
start, thread-CPU end, run id). Spans stay in memory and are written out
once the run ends; layer metrics are derived from the written file.

Per-word functions (dictionary lookups, rhyme parts, stress patterns) are
counted, not spanned. Counters are kept per thread and summed at the end,
so counts are exact under --threads.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter, thread_time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[tuple[list, Counter, defaultdict]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], Counter(), defaultdict(set))
            self._threads.append(state)
        return state

    def span(self, name, fn, observe=None, root=False, request=None):
        """fn wrapped in a span; observe(counts, sets, args, result, parent name) runs after."""

        def wrapper(*args, **kwargs):
            stack, counts, sets = self._state()
            sid = next(self._ids)
            parent, parent_name = stack[-1] if stack else (self.root, "")
            if root:
                self.root = sid
            stack.append((sid, name))
            w0, c0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = thread_time(), perf_counter()
                stack.pop()
                run = request(args) if request else self.run_id
                self.spans.append((sid, name, parent, threading.get_ident(), w0, w1, c0, c1, run))
            if observe is not None:
                observe(counts, sets, args, result, parent_name)
            return result

        return wrapper

    def unscannable(self, fn):
        """meter.iambic_score, collecting the poems it rejects."""

        def iambic_score(poem, *args, **kwargs):
            try:
                return fn(poem, *args, **kwargs)
            except ValueError:
                self._state()[2]["meter.unscannable"].add(poem.lines)
                raise

        return iambic_score

    def count(self, name, fn):
        def wrapper(*args, **kwargs):
            self._state()[1][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_lookup(self, fn):
        """PronouncingDictionary.lookup, counting calls, hits and distinct words."""

        def lookup(dictionary, word):
            _, counts, sets = self._state()
            result = fn(dictionary, word)
            counts["arpabet.lookups"] += 1
            if result:
                counts["arpabet.lookup_hits"] += 1
            sets["arpabet.words"].add(word.lower())
            return result

        return lookup

    def write(self, path, extra: dict) -> None:
        counts: Counter = Counter()
        sizes: dict[str, set] = defaultdict(set)
        for _, thread_counts, thread_sets in self._threads:
            counts.update(thread_counts)
            for key, values in thread_sets.items():
                sizes[key] |= values
        for key, values in sizes.items():
            counts[key] = len(values)
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "counts": counts, "extra": extra,
                       "spans": [[s[0], index[s[1]], *s[2:]] for s in self.spans]}, handle)


def install_analyze(tracer: Tracer) -> None:
    """Wrap the analysis functions at every call site analyze reaches."""
    from poemetrics import arpabet, cli, lexstats, meter, rhyme, structure, svgplot

    def wrap(module, attr, layer, observe=None, root=False):
        setattr(module, attr, tracer.span(f"{layer}.{attr}", getattr(module, attr),
                                          observe, root))

    def stripped(counts, sets, args, result, parent):
        counts["corpus.stripped_records"] += result is not args[0]

    def end_words(counts, sets, args, result, parent):
        dictionary = args[1]
        for word in result.end_words:
            if word is not None:
                counts["rhyme.end_words"] += 1
                counts["rhyme.oov_end_words"] += word not in dictionary

    def vocabulary(counts, sets, args, result, parent):
        if parent == "lexstats.logodds":
            sets["lexstats.vocabulary"].update(result.tokens)

    wrap(cli, "main", "cli", root=True)
    wrap(cli, "load_corpus", "corpus")
    wrap(cli, "strip_prefatory", "corpus", stripped)
    wrap(cli, "load_dictionary", "arpabet")
    for module in (structure, rhyme, meter, cli):
        wrap(module, "parse_structure", "structure")
    # _write_plots imports length_summary from the structure module when it runs.
    for module in (structure, cli):
        wrap(module, "length_summary", "structure")
    wrap(cli, "quatrain_stats", "structure")
    wrap(cli, "occupancy_heatmap", "structure")
    wrap(cli, "corpus_rhyme_stats", "rhyme")
    for module in (rhyme, cli):
        wrap(module, "annotate_rhymes", "rhyme", end_words)
    wrap(cli, "corpus_meter_stats", "meter")
    meter.iambic_score = tracer.unscannable(meter.iambic_score)
    wrap(meter, "iambic_score", "meter")
    for module in (structure, meter):
        wrap(module, "tokenize", "lexstats")
    wrap(lexstats, "tokenize", "lexstats", vocabulary)
    wrap(cli, "pronoun_profile", "lexstats")
    wrap(cli, "touchstone_coverage", "lexstats")
    wrap(cli, "logodds", "lexstats")
    wrap(cli, "first_word_logodds", "lexstats")
    for attr in ("boxplot_svg", "heatmap_svg", "barchart_svg"):
        wrap(svgplot, attr, "svgplot")
    arpabet.PronouncingDictionary.lookup = tracer.counted_lookup(
        arpabet.PronouncingDictionary.lookup)
    rhyme.rhyme_part = tracer.count("arpabet.rhyme_part_calls", rhyme.rhyme_part)
    meter.stress_pattern = tracer.count("arpabet.stress_pattern_calls", meter.stress_pattern)


def load(path) -> tuple[list[tuple], Counter, dict]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    spans = [(s[0], names[s[1]], *s[2:]) for s in data["spans"]]
    return spans, Counter(data["counts"]), data["extra"]


def span_times(spans: list[tuple]) -> tuple[Counter, Counter, Counter]:
    """Per span name: calls, CPU seconds, and self CPU seconds.

    Self time is a span's thread-CPU time minus that of its children on the
    same thread. CPU time is used because pool threads share one interpreter
    lock: their wall spans overlap and include time spent waiting for it.
    """
    child_cpu: Counter = Counter()
    for sid, name, parent, thread, w0, w1, c0, c1, run in spans:
        child_cpu[(parent, thread)] += c1 - c0
    calls, cpu, self_cpu = Counter(), Counter(), Counter()
    for sid, name, parent, thread, w0, w1, c0, c1, run in spans:
        calls[name] += 1
        cpu[name] += c1 - c0
        self_cpu[name] += (c1 - c0) - child_cpu[(sid, thread)]
    return calls, cpu, self_cpu


def layer_self(self_cpu: Counter, layer: str) -> float:
    return sum(v for name, v in self_cpu.items() if name.split(".")[0] == layer)
