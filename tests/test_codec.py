import math
import random
from itertools import islice, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsteg.codebook import DIGITS, Codebook, select_codebook
from wordsteg.codec import (
    MAX_ATTEMPTS,
    contains_codeword,
    decode,
    draw_cover,
    embed,
    insert_codewords,
    steganize,
)
from wordsteg.corpus import MIN_COVER_TOKENS, Corpus, load_corpus, scrub_message
from wordsteg.errors import CodebookValidationError, SteganizeError
from wordsteg.ngram import build_model

from corpuslines import corpus_lines, corpus_of
from synthcorpus import synth_lines
from test_ngram import window_count

GOLDEN_COVER = "poor cast off to the trash heap when no longer usefull"
GOLDEN_STEGO = "poor cast off to the good trash heap when no longer really usefull"


def oracle_insertion_score(corpus, tokens, position, word):
    """Independent oracle: enumerate every gram of orders 2 and 3 of the
    modified sequence, keep the ones whose window covers the inserted index,
    and count each by a literal window scan of the corpus."""
    token_lists = [line.split() for line in corpus_lines(corpus)]
    trial = list(tokens)
    trial.insert(position, word)
    score = 0.0
    for n in (2, 3):
        for i in range(len(trial) - n + 1):
            if i <= position <= i + n - 1:
                score += math.log1p(window_count(token_lists, trial[i : i + n]))
    return score


def oracle_insert(corpus, tokens, words):
    """Independent oracle for insert_codewords: each word into its
    best-scoring slot right of the previous one, ties to the left."""
    out, positions, first = list(tokens), [], 1
    for word in words:
        scores = [
            (oracle_insertion_score(corpus, out, p, word), -p) for p in range(first, len(out))
        ]
        best = -max(scores)[1]
        out.insert(best, word)
        positions.append(best)
        first = best + 1
    return tuple(out), tuple(positions)


def toy_insert(toy_corpus, tokens, words):
    return insert_codewords(build_model(toy_corpus, words, [tokens]), tokens, words)


def test_decode_of_plain_cover_is_empty(two_word_codebook):
    assert decode(GOLDEN_COVER.split(), two_word_codebook) == ""


def test_decode_counts_repeated_codewords(two_word_codebook):
    assert decode(["good", "x", "good", "really"], two_word_codebook) == "221"


def test_contains_codeword(two_word_codebook):
    assert contains_codeword(GOLDEN_STEGO.split(), two_word_codebook)
    assert not contains_codeword(GOLDEN_COVER.split(), two_word_codebook)


def test_codebook_refuses_an_empty_alphabet():
    # A codebook with no symbols hides nothing, so none can be built.
    with pytest.raises(CodebookValidationError, match="alphabet is empty"):
        Codebook(alphabet=(), forward={}, band=(1, None), seed=0)


def test_insert_codewords_matches_hand_computation(toy_corpus):
    # Slot 1 of "the _ sat q" for "cat" reads (the cat) 2, (cat sat) 2,
    # (the cat sat) 1 and (cat sat q) 0: log 3 + log 3 + log 2 = log 18,
    # about 2.890. Slot 2 reads only (cat q), set here: at 16 it scores
    # log 17 and loses, at 18 log 19 and wins. Every score is the log of a
    # whole number, so slot 1 scores exactly log 18.
    cover = ("the", "sat", "q")
    model = build_model(toy_corpus, {"cat"}, [cover])
    for count, slot in [(16, 1), (18, 2)]:
        model.counts[2][("cat", "q")] = count
        assert insert_codewords(model, cover, ["cat"])[1] == (slot,)


def test_insert_codewords_matches_oracle_everywhere(toy_corpus):
    tokens = ("the", "cat", "sat", "ran")
    words = ("cat", "a", "zzz")
    model = build_model(toy_corpus, words, [tokens])
    # Each word after the first is scored only over the slots right of the
    # one before it, so the sequences score every word over several runs of
    # slots.
    for length in (1, 2, 3):
        for sequence in product(words, repeat=length):
            assert insert_codewords(model, tokens, sequence) == oracle_insert(
                toy_corpus, tokens, sequence
            )


def test_insert_codewords_matches_oracle_on_trigram_model(small_corpus):
    tokens = tuple(corpus_lines(small_corpus)[0].split())
    words = list(islice(small_corpus.vocabulary, 3))
    model = build_model(small_corpus, words, [tokens])
    for word in words:
        for length in (1, 2, 3):
            assert insert_codewords(model, tokens, [word] * length) == oracle_insert(
                small_corpus, tokens, [word] * length
            )


def test_insert_codewords_rejects_edge_positions(toy_corpus):
    # "the cat sat" favours the slot after "cat" for "sat", and "a cat sat"
    # the slot before "cat" for "a", but insertion goes only between words.
    model = build_model(toy_corpus, {"sat"}, [("the", "cat")])
    assert insert_codewords(model, ("the", "cat"), ["sat"]) == (("the", "sat", "cat"), (1,))
    assert insert_codewords(model, ("the", "cat"), ["sat", "sat"]) == (
        ("the", "sat", "sat", "cat"),
        (1, 2),
    )
    model = build_model(toy_corpus, {"a"}, [("cat", "sat")])
    assert insert_codewords(model, ("cat", "sat"), ["a"]) == (("cat", "a", "sat"), (1,))


def test_insert_codewords_rejects_words_the_model_was_not_counted_around(toy_corpus):
    model = build_model(toy_corpus, {"cat"}, [("the", "sat")])
    assert insert_codewords(model, ("the", "sat"), ["cat"]) == (("the", "cat", "sat"), (1,))
    with pytest.raises(ValueError, match="codeword"):
        insert_codewords(model, ("the", "sat"), ["ran"])
    # A neighbour the model was not counted for, on either side of the one
    # slot: "ran" is no cover word.
    for cover in [("the", "ran"), ("ran", "sat")]:
        with pytest.raises(ValueError, match="words"):
            insert_codewords(model, cover, ["cat"])
    # The cover is checked whole, so a foreign token left of every slot that
    # a later word reads is refused too.
    with pytest.raises(ValueError, match="words"):
        insert_codewords(model, ("ran",) + ("the", "sat") * 3, ["cat", "cat"])
    # Nothing to insert reads no gram, so foreign tokens need no count.
    for cover in [("ran", "dog"), ("ran",), ()]:
        assert insert_codewords(model, cover, []) == (cover, ())


# "z" never occurs in a message; "d" occurs, but is never a codeword, so the
# model keeps no gram that holds it wherever no cover holds it.
@given(
    messages=st.lists(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), min_size=1, max_size=8
    ),
    codewords=st.sets(st.sampled_from("abcz"), min_size=1, max_size=3),
    data=st.data(),
)
@settings(deadline=None)
def test_insert_codewords_same_under_model_counted_around(messages, codewords, data):
    corpus = Corpus(" ".join(m) for m in messages)
    covers = [m for m in map(str.split, corpus_lines(corpus)) if len(m) >= 2]
    # Every two words of a message as a cover too: one slot, whose grams are
    # cut short by both edges.
    covers += [m[i : i + 2] for m in covers for i in range(len(m) - 1)]
    model = build_model(corpus, codewords, covers)
    words = data.draw(st.lists(st.sampled_from(sorted(codewords)), max_size=4))
    for cover in covers:
        assert insert_codewords(model, cover, words) == oracle_insert(corpus, cover, words)


def test_insert_codewords_prefers_frequent_context(toy_corpus):
    assert toy_insert(toy_corpus, ("the", "sat", "ran"), ["cat"])[1] == (1,)


def test_insert_codewords_breaks_ties_leftward(toy_corpus):
    # Unknown words score zero everywhere, so the tie covers all slots: the
    # first "q" takes slot 1 and the second the first slot to its right.
    assert toy_insert(toy_corpus, ("x", "y", "z"), ["q", "q"])[1] == (1, 2)


def test_insert_codewords_without_slots_raises(toy_corpus):
    with pytest.raises(ValueError, match="no insertion slot"):
        toy_insert(toy_corpus, ("the",), ["sat"])


def test_one_model_embeds_each_cover_as_it_would_alone(small_corpus):
    # The model is exact for every gram that insertion scores, so counting one
    # over many covers and secrets changes no stego.
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    secrets = ["314", "", "2718", "0", "99"]
    drawn = [
        (*draw_cover(small_corpus, codebook, random.Random(seed)), secret)
        for seed, secret in enumerate(secrets)
    ]
    alone = [
        steganize(secret, codebook, small_corpus, seed) for seed, secret in enumerate(secrets)
    ]
    assert embed(small_corpus, codebook, drawn) == alone
    assert [result.attempts for result in alone] == [attempts for attempts, _, _ in drawn]


def test_encode_path_never_counts_the_vocabulary(small_corpus):
    # What encode does: steganize, which counts the model for its cover, on a
    # corpus of its own that nothing else has read.
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    corpus = Corpus(synth_lines(n_messages=400, seed=3, vocab_size=500))
    result = steganize("314", codebook, corpus, seed=99)
    assert decode(result.stego, codebook) == "314"
    assert "vocabulary" not in corpus.__dict__


@pytest.mark.parametrize("seed", [2, 4, 9])
def test_encode_path_indexes_only_the_texts_it_draws_from(small_corpus, seed):
    # One steganize on a fresh corpus of 25 texts, cut at 1150 characters:
    # each attempt draws one cover, and only the texts those covers lie in
    # have their line starts indexed; the others are only counted.
    codebook = select_codebook(small_corpus.vocabulary, (14, None), DIGITS, seed=1)
    corpus = corpus_of(synth_lines(n_messages=400, seed=3, vocab_size=500), 1150)
    result = steganize("314", codebook, corpus, seed=seed)
    assert result.attempts >= 3
    # Brute force: the text of each cover a seeded draw lands on.
    text_of = [
        number
        for number, text in enumerate(corpus.texts)
        for line in text.split("\n")
        if len(line.split()) >= MIN_COVER_TOKENS
    ]
    rng = random.Random(seed)
    drawn = {text_of[rng.randrange(len(text_of))] for _ in range(result.attempts)}
    indexes = vars(corpus.cover_pool)["_indexes"]
    assert len(indexes) == len(corpus.texts) == 25
    assert {number for number, index in enumerate(indexes) if index is not None} == drawn


def test_a_loop_of_calls_searches_each_call_for_its_own_codewords(desk_corpus):
    # A library loop on one Corpus: each call counts its own model, and asks
    # for the lines that hold exactly its secret's distinct codewords.
    corpus = Corpus(desk_corpus.texts)
    codebook = select_codebook(desk_corpus.vocabulary, (14, None), DIGITS, seed=41)
    rng = random.Random(606)
    secrets = []
    with mock.patch.object(corpus, "containing", wraps=corpus.containing) as search:
        for seed in range(1000):
            secret = "".join(rng.choice(DIGITS) for _ in range(seed % 4 + 1))
            secrets.append(secret)
            steganize(secret, codebook, corpus, seed=seed)
    assert [set(call.args[0]) for call in search.call_args_list] == [
        {codebook.forward[symbol] for symbol in secret} for secret in secrets
    ]


def test_steganize_empty_secret_returns_cover(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    result = steganize("", codebook, small_corpus, seed=5)
    assert result.stego == result.cover
    assert decode(result.stego, codebook) == ""
    assert result.inserted_positions == ()
    assert result.density == 0.0


def test_steganize_is_deterministic(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    first = steganize("42", codebook, small_corpus, seed=123)
    again = steganize("42", codebook, small_corpus, seed=123)
    assert first == again


def test_steganize_rejects_unknown_symbols(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    with pytest.raises(ValueError):
        steganize("2x", codebook, small_corpus, seed=0)


def test_steganize_avoids_covers_that_already_hold_codewords():
    corpus = Corpus(["x y z", "q x y", "x z y"])
    codebook = Codebook(("0",), {"0": "q"}, (1, None), 0)
    for seed in range(10):
        result = steganize("0", codebook, corpus, seed=seed)
        assert not contains_codeword(result.cover, codebook)
        assert decode(result.stego, codebook) == "0"


def test_steganize_fails_when_every_cover_holds_a_codeword():
    corpus = Corpus(["q a b", "b q a"])
    codebook = Codebook(("0",), {"0": "q"}, (1, None), 0)
    with pytest.raises(SteganizeError) as excinfo:
        steganize("0", codebook, corpus, seed=0)
    assert excinfo.value.attempts == MAX_ATTEMPTS
    assert str(excinfo.value) == (
        f"every drawn cover contained a codeword after {MAX_ATTEMPTS} attempts"
    )


def test_steganize_raises_when_round_trip_fails(small_corpus, monkeypatch):
    # An insertion that loses a codeword must surface on the first cover, not
    # be hidden by drawing covers until the attempt budget runs out.
    def drop_last(model, tokens, words):
        return insert_codewords(model, tokens, list(words)[:-1])

    monkeypatch.setattr("wordsteg.codec.insert_codewords", drop_last)
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    with pytest.raises(SteganizeError, match="stego text does not decode") as excinfo:
        steganize("42", codebook, small_corpus, seed=0)
    attempt, _ = draw_cover(small_corpus, codebook, random.Random(0))
    assert excinfo.value.attempts == attempt < MAX_ATTEMPTS


def test_steganize_needs_covers_with_three_tokens():
    corpus = Corpus(["a b", "c d"])
    codebook = Codebook(("0",), {"0": "q"}, (1, None), 0)
    with pytest.raises(SteganizeError) as excinfo:
        steganize("0", codebook, corpus, seed=0)
    assert excinfo.value.attempts == 0


_codec_corpus = Corpus(synth_lines(n_messages=150, seed=5, vocab_size=300))
_codec_codebook = select_codebook(_codec_corpus.vocabulary, (2, None), DIGITS, seed=8)


@given(
    secret=st.text(DIGITS, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(deadline=None, max_examples=60)
def test_round_trip_property(secret, seed):
    result = steganize(secret, _codec_codebook, _codec_corpus, seed=seed)
    assert decode(result.stego, _codec_codebook) == secret
    kept = [
        t
        for i, t in enumerate(result.stego)
        if i not in set(result.inserted_positions)
    ]
    assert tuple(kept) == result.cover
    assert list(result.inserted_positions) == sorted(result.inserted_positions)
    assert len(result.stego) == len(result.cover) + len(secret)
    assert result.density == len(secret) / len(result.stego)


@pytest.fixture(scope="module")
def raw_corpus(tmp_path_factory):
    """Raw lines that scrub to non-ASCII words ("«Ŵ0001»," -> "ŵ0001"), read
    from a file, so the codewords and the covers come out of real scrubbing."""
    path = tmp_path_factory.mktemp("raw") / "corpus.txt"
    with path.open("w", encoding="utf-8") as handle:
        for line in synth_lines(n_messages=150, seed=5, vocab_size=300):
            print(*(f"«{word.replace('w', 'Ŵ')}»," for word in line.split()), file=handle)
    return load_corpus(path)


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
def test_printed_stego_decodes_after_scrubbing(
    raw_corpus, alphabet, codebook_seed, seed, data
):
    codebook = select_codebook(
        raw_corpus.vocabulary, (2, 20), alphabet, seed=codebook_seed
    )
    secret = data.draw(st.text(alphabet, max_size=4))
    result = steganize(secret, codebook, raw_corpus, seed=seed)
    printed = " ".join(result.stego)
    assert decode(scrub_message(printed).split(), codebook) == secret
