import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsteg import Corpus, build_model, smoothed_distribution


def window_count(token_lists, gram):
    """Independent oracle: literal window scan, one message at a time."""
    gram = tuple(gram)
    n = len(gram)
    hits = 0
    for tokens in token_lists:
        for i in range(len(tokens) - n + 1):
            if tuple(tokens[i : i + n]) == gram:
                hits += 1
    return hits


def test_toy_unigram_counts(toy_corpus, toy_model):
    expected = {"the": 2, "cat": 3, "sat": 2, "ran": 1, "a": 1}
    assert toy_model.vocabulary is toy_corpus.vocabulary
    assert dict(toy_model.vocabulary) == expected
    assert toy_corpus.total_tokens == 9
    assert set(toy_model.counts) == {2, 3}


def test_toy_bigram_counts(toy_model):
    expected = {
        ("the", "cat"): 2,
        ("cat", "sat"): 2,
        ("cat", "ran"): 1,
        ("a", "cat"): 1,
    }
    assert toy_model.counts[2] == expected
    assert toy_model.counts[2].total() == 6


def test_grams_do_not_span_messages():
    corpus = Corpus.from_lines(["a b", "c d"])
    model = build_model(corpus)
    assert ("b", "c") not in model.counts[2]
    assert model.counts[2].total() == 2


def test_unigrams_match_an_independent_recount(desk_corpus, desk_model):
    recount = {}
    for message in map(str.split, desk_corpus.lines):
        for word in message:
            recount[word] = recount.get(word, 0) + 1
    assert list(desk_corpus.vocabulary.items()) == list(recount.items())
    assert desk_corpus.total_tokens == sum(recount.values())
    assert desk_model.vocabulary is desk_corpus.vocabulary
    assert 1 not in desk_model.counts


def test_model_counted_around_refuses_what_it_cannot_answer(toy_corpus):
    model = build_model(toy_corpus, around={"ran"})
    assert model.around == frozenset({"ran"})
    assert model.vocabulary is toy_corpus.vocabulary
    # Only "the cat ran" holds "ran", so its grams alone are counted.
    assert model.counts[2] == {("the", "cat"): 1, ("cat", "ran"): 1}
    assert model.counts[3] == {("the", "cat", "ran"): 1}
    with pytest.raises(ValueError):
        model.plausibility_score(("the", "cat", "ran"))


token = st.sampled_from(["a", "b", "c"])
message_lists = st.lists(
    st.lists(token, min_size=1, max_size=6), min_size=1, max_size=8
)


@given(messages=message_lists)
@settings(deadline=None)
def test_counts_match_window_scan(messages):
    corpus = Corpus.from_lines(" ".join(m) for m in messages)
    model = build_model(corpus)
    token_lists = [line.split() for line in corpus.lines]
    for word, count in model.vocabulary.items():
        assert count == window_count(token_lists, (word,))
    for n in (2, 3):
        assert model.counts[n].total() == sum(
            max(0, len(t) - n + 1) for t in token_lists
        )
        for gram, count in model.counts[n].items():
            assert count == window_count(token_lists, gram)


# "z" never occurs in a message, and an empty set matches none.
around_sets = st.sets(st.sampled_from(["a", "b", "c", "z"]), max_size=3)


@given(messages=message_lists, around=around_sets)
@settings(deadline=None)
def test_model_counted_around_is_exact_where_it_answers(messages, around):
    corpus = Corpus.from_lines(" ".join(m) for m in messages)
    full = build_model(corpus)
    partial = build_model(corpus, around=around)
    assert partial.vocabulary is full.vocabulary
    for n in (2, 3):
        for gram in product("abcz", repeat=n):
            if set(gram) & around:
                assert partial.counts[n].get(gram, 0) == full.counts[n].get(gram, 0)


@given(messages=message_lists)
@settings(deadline=None)
def test_longer_grams_never_outnumber_their_parts(messages):
    corpus = Corpus.from_lines(" ".join(m) for m in messages)
    model = build_model(corpus)

    def count(gram):
        if len(gram) == 1:
            return model.vocabulary[gram[0]]
        return model.counts[len(gram)][gram]

    for n in (2, 3):
        for gram in model.counts[n]:
            assert count(gram) <= count(gram[:-1])
            assert count(gram) <= count(gram[1:])


def test_unigram_distribution_additive_smoothing(toy_corpus):
    counts = toy_corpus.vocabulary
    p = smoothed_distribution(counts, toy_corpus.total_tokens, counts)
    assert p["cat"] == pytest.approx(4 / 14)
    assert sum(p.values()) == pytest.approx(1.0)


def test_unigram_distribution_over_superset_vocabulary(toy_corpus):
    counts = toy_corpus.vocabulary
    vocab = sorted(set(counts) | {"dog"})
    p = smoothed_distribution(counts, toy_corpus.total_tokens, vocab)
    assert p["dog"] == pytest.approx(1 / (9 + 6))
    assert sum(p.values()) == pytest.approx(1.0)


def test_smoothed_distribution_over_no_words_raises():
    with pytest.raises(ValueError, match="no probability mass"):
        smoothed_distribution({}, 0, [])


def test_plausibility_matches_hand_formula(toy_model):
    expected = (math.log(3) + math.log(4) + math.log(3)) / 3
    score = toy_model.plausibility_score(("the", "cat"))
    assert score == pytest.approx(expected)
    assert score == pytest.approx(1.1945, abs=1e-4)


def test_plausibility_of_unseen_text_is_zero(toy_model):
    assert toy_model.plausibility_score(("x", "y", "z")) == 0.0


def test_plausibility_rejects_empty_sequence(toy_model):
    with pytest.raises(ValueError):
        toy_model.plausibility_score(())


def test_plausibility_prefers_attested_word_order(toy_model):
    natural = toy_model.plausibility_score(("the", "cat"))
    scrambled = toy_model.plausibility_score(("cat", "the"))
    assert natural > scrambled

