from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from poemetrics.arpabet import load_bundled_dictionary
from poemetrics.corpus import Corpus, PoemRecord, load_corpus

DATA_DIR = Path(__file__).parent / "data"

# A deeper run of the property tests: pytest --hypothesis-profile thorough.
settings.register_profile("thorough", max_examples=1000, deadline=None)

LIMERICK = """In May we stand strong, hearts ablaze,
For those who've seen war's smoky haze.
We honor the brave,
Who life for us gave,
In silence, we give them our praise."""

QUATRAINS = """A world viewed through a smartphone's lens,
Each day a stream of trends begins,
Tales of fortune, tales of woes,
Each one judged as the wind blows.

In the glow of public opinions' glare,
Endless chatter fills the air.
Russian bots to kitty memes,
Nothing's truly as it seems.

Their thoughts they tweet, in speech so free,
Behind the screens, who can they be?
Worldly wisdom, or just noise?
Undiscovered truth, or toys?

As they debate who's wrong or right,
Their fingers dance in virtual fight.
From east to west, the judgments fly,
Sometimes truth, oftentimes lie.

We see the world in constant chime,
A universe of views online,
In every tweet and post we glean,
A reflection of a world unseen."""

IAMBIC_LINE = "Upon a stage where shadows nightly reign"


@pytest.fixture(scope="session")
def dictionary():
    """The bundled dictionary, shared by every test. Its memos collect each word any test
    asks about, so a test that asserts memo contents loads a dictionary of its own."""
    return load_bundled_dictionary()


@pytest.fixture()
def limerick_record():
    return PoemRecord(
        id="limerick-1", text=LIMERICK, source="gpt4",
        style="limerick", subject="memorial day", template="figurative",
    )


@pytest.fixture()
def quatrains_record():
    return PoemRecord(
        id="quatrains-1", text=QUATRAINS, source="gpt4",
        style="limerick", subject="social commentaries", template="general",
    )


@pytest.fixture(scope="session")
def human_corpus() -> Corpus:
    return load_corpus(DATA_DIR / "fixture_human.jsonl")


@pytest.fixture(scope="session")
def gpt_corpus() -> Corpus:
    return load_corpus(DATA_DIR / "fixture_gpt.jsonl")


def make_corpus(texts, label="test", source="human", **kwargs) -> Corpus:
    records = tuple(
        PoemRecord(id=f"{label}-{i}", text=t, source=source, **kwargs)
        for i, t in enumerate(texts)
    )
    return Corpus(label=label, records=records)


def fold_and_merge(stats_type, items, data):
    """stats_type's fold of items, and the merge of its folds of drawn runs of items in a
    drawn order, as scoring processes fold chunks and have their totals merged."""
    def fold(run):
        stats = stats_type()
        for item in run:
            stats.add(item)
        return stats

    cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=4), label="cuts"))
    merged = stats_type()
    for part in data.draw(st.permutations([fold(items[start:end]) for start, end in
                                           zip([0, *cuts], [*cuts, len(items)])]),
                          label="merge order"):
        merged.merge(part)
    return fold(items), merged
