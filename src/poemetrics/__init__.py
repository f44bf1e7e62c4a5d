"""Poetry-corpus analysis: structure, rhyme, meter, and lexical statistics.

Each public name is imported from its submodule the first time it is used
(PEP 562), so a process pays only for the submodules it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "PronouncingDictionary": "arpabet",
    "load_bundled_dictionary": "arpabet",
    "load_dictionary": "arpabet",
    "rhyme_part": "arpabet",
    "stress_pattern": "arpabet",
    "CANONICAL_STYLES": "corpus",
    "Corpus": "corpus",
    "CorpusError": "corpus",
    "PoemRecord": "corpus",
    "load_corpus": "corpus",
    "save_corpus": "corpus",
    "strip_prefatory": "corpus",
    "ChatCompletionsClient": "generate",
    "DEFAULT_SUBJECTS": "generate",
    "GenerationJob": "generate",
    "PromptSpec": "generate",
    "build_grid": "generate",
    "render_prompt": "generate",
    "run_job": "generate",
    "LogOddsResult": "lexstats",
    "PronounProfile": "lexstats",
    "first_word_logodds": "lexstats",
    "load_stopwords": "lexstats",
    "logodds": "lexstats",
    "pronoun_profile": "lexstats",
    "tokenize": "lexstats",
    "touchstone_coverage": "lexstats",
    "MeterVerdict": "meter",
    "StressSequence": "meter",
    "UnscannableError": "meter",
    "alignment_score": "meter",
    "corpus_meter_stats": "meter",
    "iambic_score": "meter",
    "line_stress": "meter",
    "RhymeAnnotation": "rhyme",
    "annotate_rhymes": "rhyme",
    "corpus_rhyme_stats": "rhyme",
    "end_word": "rhyme",
    "lines_rhyme": "rhyme",
    "LengthSummary": "structure",
    "OccupancyGrid": "structure",
    "PoemStructure": "structure",
    "length_summary": "structure",
    "occupancy_heatmap": "structure",
    "parse_structure": "structure",
    "quatrain_stats": "structure",
    "summarize_lengths": "structure",
}

__all__ = list(_EXPORTS)

_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
