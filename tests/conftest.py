import pytest
from hypothesis import settings

from wordsteg.codebook import Codebook
from wordsteg.corpus import Corpus

from synthcorpus import synth_lines

# A deeper search for CI's separate run of the scrub and codebook properties
# (pytest --hypothesis-profile=ci); tier-1 keeps hypothesis's default profile.
# No deadline: on a shared runner a slow example is no property failure.
settings.register_profile("ci", max_examples=2000, deadline=None)

TOY_LINES = ["the cat sat", "the cat ran", "a cat sat"]


@pytest.fixture()
def toy_corpus():
    return Corpus.from_lines(TOY_LINES)


@pytest.fixture()
def two_word_codebook():
    # The running example used throughout the docs: 2 -> good, 1 -> really.
    return Codebook(
        alphabet=("1", "2"),
        forward={"2": "good", "1": "really"},
        band=(1, None),
        seed=0,
    )


@pytest.fixture(scope="session")
def desk_corpus():
    return Corpus.from_lines(synth_lines())


@pytest.fixture(scope="session")
def small_corpus():
    return Corpus.from_lines(synth_lines(n_messages=400, seed=3, vocab_size=500))


@pytest.fixture(scope="session")
def small_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.txt"
    lines = synth_lines(n_messages=800, seed=7, vocab_size=900)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
