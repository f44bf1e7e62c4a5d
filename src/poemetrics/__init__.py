"""Poetry-corpus analysis: structure, rhyme, meter, and lexical statistics."""

__version__ = "0.1.0"

from .arpabet import (
    PronouncingDictionary,
    load_bundled_dictionary,
    load_dictionary,
    rhyme_part,
    stress_pattern,
)
from .corpus import (
    CANONICAL_STYLES,
    Corpus,
    CorpusError,
    PoemRecord,
    load_corpus,
    save_corpus,
    strip_prefatory,
)
from .generate import (
    ChatCompletionsClient,
    DEFAULT_SUBJECTS,
    GenerationJob,
    PromptSpec,
    build_grid,
    render_prompt,
    run_job,
)
from .lexstats import (
    LogOddsResult,
    PronounProfile,
    first_word_logodds,
    load_stopwords,
    logodds,
    pronoun_profile,
    tokenize,
    touchstone_coverage,
)
from .meter import (
    MeterVerdict,
    StressSequence,
    UnscannableError,
    alignment_score,
    corpus_meter_stats,
    iambic_score,
    line_stress,
)
from .rhyme import (
    RhymeAnnotation,
    annotate_rhymes,
    corpus_rhyme_stats,
    end_word,
    lines_rhyme,
)
from .structure import (
    LengthSummary,
    OccupancyGrid,
    PoemStructure,
    length_summary,
    occupancy_heatmap,
    parse_structure,
    quatrain_stats,
    summarize_lengths,
)
