import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsteg import (
    Codebook,
    CodebookValidationError,
    Corpus,
    DIGITS,
    SteganizeError,
    build_model,
    contains_codeword,
    decode,
    insert_codewords,
    insertion_score,
    scrub_message,
    select_codebook,
    steganize,
)
from wordsteg.codec import DEFAULT_MAX_ATTEMPTS, draw_cover

from synthcorpus import synth_lines

GOLDEN_COVER = "poor cast off to the trash heap when no longer usefull"
GOLDEN_STEGO = "poor cast off to the good trash heap when no longer really usefull"


def oracle_insertion_score(model, tokens, position, word):
    """Independent oracle: enumerate every gram of the modified sequence and
    keep the ones whose window covers the inserted index."""
    trial = list(tokens)
    trial.insert(position, word)
    score = 0.0
    for n, table in model.counts.items():
        for i in range(len(trial) - n + 1):
            if i <= position <= i + n - 1:
                score += math.log1p(table.get(tuple(trial[i : i + n]), 0))
    return score


def test_decode_extracts_symbols_in_order(two_word_codebook):
    assert decode(GOLDEN_STEGO.split(), two_word_codebook) == ("2", "1")
    assert "".join(decode(GOLDEN_STEGO.split(), two_word_codebook)) == "21"


def test_decode_of_plain_cover_is_empty(two_word_codebook):
    assert decode(GOLDEN_COVER.split(), two_word_codebook) == ()


def test_decode_counts_repeated_codewords(two_word_codebook):
    assert decode(["good", "x", "good", "really"], two_word_codebook) == ("2", "2", "1")


def test_contains_codeword(two_word_codebook):
    assert contains_codeword(GOLDEN_STEGO.split(), two_word_codebook)
    assert not contains_codeword(GOLDEN_COVER.split(), two_word_codebook)


def test_contains_codeword_empty_codebook():
    # A codebook with no symbols hides nothing, so none can be built.
    with pytest.raises(CodebookValidationError, match="alphabet is empty"):
        Codebook(alphabet=(), forward={}, band=(1, None), seed=0)


def test_insertion_score_matches_hand_computation(toy_model):
    score = insertion_score(toy_model, ("the", "sat"), 1, "cat")
    assert score == pytest.approx(2 * math.log(3) + math.log(2))
    assert score == pytest.approx(2.890, abs=5e-4)


def test_insertion_score_matches_oracle_everywhere(toy_model):
    tokens = ("the", "cat", "sat", "ran")
    for word in ("cat", "a", "zzz"):
        for position in range(1, len(tokens)):
            assert insertion_score(toy_model, tokens, position, word) == pytest.approx(
                oracle_insertion_score(toy_model, tokens, position, word)
            )


def test_insertion_score_matches_oracle_on_trigram_model(small_model, small_corpus):
    tokens = small_corpus.messages[0]
    word = next(iter(small_corpus.vocabulary))
    for position in range(1, len(tokens)):
        assert insertion_score(small_model, tokens, position, word) == pytest.approx(
            oracle_insertion_score(small_model, tokens, position, word)
        )


def test_insertion_score_rejects_edge_positions(toy_model):
    with pytest.raises(ValueError):
        insertion_score(toy_model, ("the", "cat"), 0, "sat")
    with pytest.raises(ValueError):
        insertion_score(toy_model, ("the", "cat"), 2, "sat")


def test_insertion_score_rejects_words_the_model_was_not_counted_around(toy_corpus):
    model = build_model(toy_corpus, around={"cat"})
    assert insertion_score(model, ("the", "sat"), 1, "cat") == pytest.approx(
        2 * math.log(3) + math.log(2)
    )
    with pytest.raises(ValueError):
        insertion_score(model, ("the", "sat"), 1, "ran")


# "z" never occurs in a message, and a set holding only "z" matches none.
@given(
    messages=st.lists(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=6), min_size=1, max_size=8
    ),
    around=st.sets(st.sampled_from("abcz"), max_size=3),
    data=st.data(),
)
@settings(deadline=None)
def test_insert_codewords_same_under_model_counted_around(messages, around, data):
    corpus = Corpus.from_lines(" ".join(m) for m in messages)
    full = build_model(corpus)
    partial = build_model(corpus, around=around)
    words = data.draw(st.lists(st.sampled_from(sorted(around)), max_size=4)) if around else []
    for message in corpus.messages:
        if len(message) >= 2:
            assert insert_codewords(partial, message, words) == insert_codewords(
                full, message, words
            )


def test_best_position_prefers_frequent_context(toy_model):
    assert insert_codewords(toy_model, ("the", "sat", "ran"), ["cat"])[1] == (1,)


def test_best_position_breaks_ties_leftward(toy_model):
    # Unknown words score zero everywhere, so the tie covers all slots: the
    # first "q" takes slot 1 and the second the first slot to its right.
    assert insert_codewords(toy_model, ("x", "y", "z"), ["q", "q"])[1] == (1, 2)


def test_best_position_without_slots_raises(toy_model):
    with pytest.raises(ValueError, match="no insertion slot"):
        insert_codewords(toy_model, ("the",), ["sat"])


def test_insert_codewords_keeps_cover_order(toy_model):
    stego, positions = insert_codewords(toy_model, ("x", "y", "z"), ["p", "q"])
    assert list(positions) == sorted(positions)
    assert len(set(positions)) == len(positions)
    remaining = [t for i, t in enumerate(stego) if i not in set(positions)]
    assert tuple(remaining) == ("x", "y", "z")
    assert [stego[i] for i in positions] == ["p", "q"]


def test_steganize_round_trip(small_corpus, small_model):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    secret = ("3", "1", "4")
    result = steganize(secret, codebook, small_model, small_corpus, seed=99)
    assert decode(result.stego, codebook) == secret
    kept = [
        t
        for i, t in enumerate(result.stego)
        if i not in set(result.inserted_positions)
    ]
    assert tuple(kept) == result.cover
    assert len(result.stego) == len(result.cover) + len(secret)
    assert result.density == pytest.approx(
        len(secret) / len(result.stego)
    )


def test_steganize_accepts_plain_string_secret(small_corpus, small_model):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    result = steganize("271", codebook, small_model, small_corpus, seed=4)
    assert "".join(decode(result.stego, codebook)) == "271"


def test_steganize_empty_secret_returns_cover(small_corpus, small_model):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    result = steganize((), codebook, small_model, small_corpus, seed=5)
    assert result.stego == result.cover
    assert decode(result.stego, codebook) == ()
    assert result.inserted_positions == ()
    assert result.density == 0.0


def test_steganize_is_deterministic(small_corpus, small_model):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    first = steganize("42", codebook, small_model, small_corpus, seed=123)
    again = steganize("42", codebook, small_model, small_corpus, seed=123)
    assert first == again


def test_steganize_rejects_unknown_symbols(small_corpus, small_model):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    with pytest.raises(ValueError):
        steganize("2x", codebook, small_model, small_corpus, seed=0)


def test_steganize_avoids_covers_that_already_hold_codewords():
    corpus = Corpus.from_lines(["x y z", "q x y", "x z y"])
    model = build_model(corpus)
    codebook = Codebook(("0",), {"0": "q"}, (1, None), 0)
    for seed in range(10):
        result = steganize(("0",), codebook, model, corpus, seed=seed)
        assert not contains_codeword(result.cover, codebook)
        assert decode(result.stego, codebook) == ("0",)


def test_steganize_fails_when_every_cover_holds_a_codeword():
    corpus = Corpus.from_lines(["q a b", "b q a"])
    model = build_model(corpus)
    codebook = Codebook(("0",), {"0": "q"}, (1, None), 0)
    with pytest.raises(SteganizeError) as excinfo:
        steganize(("0",), codebook, model, corpus, seed=0, max_attempts=25)
    assert excinfo.value.attempts == 25


def test_steganize_raises_when_round_trip_fails(small_corpus, small_model, monkeypatch):
    # An insertion that loses a codeword must surface on the first cover, not
    # be hidden by drawing covers until the attempt budget runs out.
    def drop_last(model, tokens, words):
        return insert_codewords(model, tokens, list(words)[:-1])

    monkeypatch.setattr("wordsteg.codec.insert_codewords", drop_last)
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    with pytest.raises(SteganizeError, match="stego text does not decode") as excinfo:
        steganize("42", codebook, small_model, small_corpus, seed=0)
    attempt, _ = draw_cover(small_corpus, codebook, random.Random(0))
    assert excinfo.value.attempts == attempt < DEFAULT_MAX_ATTEMPTS


def test_steganize_needs_covers_with_three_tokens():
    corpus = Corpus.from_lines(["a b", "c d"])
    model = build_model(corpus)
    codebook = Codebook(("0",), {"0": "q"}, (1, None), 0)
    with pytest.raises(SteganizeError) as excinfo:
        steganize(("0",), codebook, model, corpus, seed=0)
    assert excinfo.value.attempts == 0


def test_steganize_rejects_zero_attempt_budget(small_corpus, small_model):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    with pytest.raises(ValueError):
        steganize("1", codebook, small_model, small_corpus, seed=0, max_attempts=0)


_codec_corpus = Corpus.from_lines(synth_lines(n_messages=150, seed=5, vocab_size=300))
_codec_model = build_model(_codec_corpus)
_codec_codebook = select_codebook(_codec_corpus.vocabulary, (2, None), DIGITS, seed=8)


@given(
    secret=st.lists(st.sampled_from(DIGITS), max_size=4),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(deadline=None, max_examples=60)
def test_round_trip_property(secret, seed):
    result = steganize(
        tuple(secret), _codec_codebook, _codec_model, _codec_corpus, seed=seed
    )
    assert decode(result.stego, _codec_codebook) == tuple(secret)
    kept = [
        t
        for i, t in enumerate(result.stego)
        if i not in set(result.inserted_positions)
    ]
    assert tuple(kept) == result.cover
    assert list(result.inserted_positions) == sorted(result.inserted_positions)


# Raw lines that scrub to non-ASCII words ("«Ŵ0001»," -> "ŵ0001"), so the
# codewords and the covers come out of real scrubbing.
_raw_corpus = Corpus.from_lines(
    " ".join(f"«{word.replace('w', 'Ŵ')}»," for word in line.split())
    for line in synth_lines(n_messages=150, seed=5, vocab_size=300)
)
_raw_model = build_model(_raw_corpus)


@given(
    # Any alphabet the CLI accepts: distinct single characters, digits,
    # punctuation, whitespace and non-ASCII included.
    alphabet=st.lists(
        st.characters(exclude_categories=("Cs",)), min_size=1, max_size=10, unique=True
    ),
    codebook_seed=st.integers(min_value=0, max_value=2**32),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
@settings(deadline=None, max_examples=60)
def test_printed_stego_decodes_after_scrubbing(alphabet, codebook_seed, seed, data):
    codebook = select_codebook(
        _raw_corpus.vocabulary, (2, 20), tuple(alphabet), seed=codebook_seed
    )
    secret = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=4)))
    result = steganize(secret, codebook, _raw_model, _raw_corpus, seed=seed)
    printed = " ".join(result.stego)
    assert decode(scrub_message(printed).split(), codebook) == secret


def test_stego_result_serializes_to_plain_doc(small_corpus, small_model):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    result = steganize("90", codebook, small_model, small_corpus, seed=77)
    doc = result.to_doc()
    assert doc["stego"] == " ".join(result.stego)
    assert doc["cover"] == " ".join(result.cover)
    assert doc["inserted_positions"] == list(result.inserted_positions)
    assert doc["attempts"] == result.attempts
    assert doc["density"] == result.density
