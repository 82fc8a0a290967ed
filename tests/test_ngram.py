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


def test_toy_unigram_counts(toy_model):
    expected = {"the": 2, "cat": 3, "sat": 2, "ran": 1, "a": 1}
    for word, count in expected.items():
        assert toy_model.count((word,)) == count
    assert toy_model.vocab_size == 5
    assert toy_model.totals[1] == 9


def test_toy_bigram_counts(toy_model):
    expected = {
        ("the", "cat"): 2,
        ("cat", "sat"): 2,
        ("cat", "ran"): 1,
        ("a", "cat"): 1,
    }
    for gram, count in expected.items():
        assert toy_model.count(gram) == count
    assert toy_model.totals[2] == 6
    assert set(toy_model.counts[2]) == set(expected)


def test_unseen_grams_count_zero(toy_model):
    assert toy_model.count(("dog",)) == 0
    assert toy_model.count(("sat", "the")) == 0


def test_count_rejects_out_of_range_gram_lengths(toy_model):
    with pytest.raises(ValueError):
        toy_model.count(())
    with pytest.raises(ValueError):
        toy_model.count(("a", "cat", "sat"))


def test_grams_do_not_span_messages():
    corpus = Corpus.from_lines(["a b", "c d"])
    model = build_model(corpus, max_n=2)
    assert model.count(("b", "c")) == 0
    assert model.totals[2] == 2


def test_build_model_rejects_nonpositive_max_n(toy_corpus):
    with pytest.raises(ValueError):
        build_model(toy_corpus, max_n=0)


def test_unigrams_match_an_independent_recount(desk_corpus, desk_model):
    recount = {}
    for message in desk_corpus.messages:
        for word in message.tokens:
            recount[word] = recount.get(word, 0) + 1
    for model in (desk_model, build_model(desk_corpus, max_n=1)):
        assert list(model.word_counts.items()) == list(recount.items())
        assert list(model.counts[1].items()) == [((w,), c) for w, c in recount.items()]
        assert model.totals[1] == sum(recount.values())


def test_model_counted_around_refuses_what_it_cannot_answer(toy_corpus):
    model = build_model(toy_corpus, max_n=3, around={"ran"})
    assert model.around == frozenset({"ran"})
    assert set(model.totals) == {1}
    assert model.count(("cat",)) == 3
    assert model.count(("cat", "ran")) == 1
    assert model.count(("the", "cat", "ran")) == 1
    with pytest.raises(ValueError):
        model.count(("the", "cat"))
    with pytest.raises(ValueError):
        model.count(("the", "cat", "sat"))
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
    model = build_model(corpus, max_n=3)
    token_lists = [m.tokens for m in corpus.messages]
    for n in (1, 2, 3):
        assert model.totals[n] == sum(
            max(0, len(t) - n + 1) for t in token_lists
        )
        for gram in model.counts[n]:
            assert model.count(gram) == window_count(token_lists, gram)


# "z" never occurs in a message, and an empty set matches none.
around_sets = st.sets(st.sampled_from(["a", "b", "c", "z"]), max_size=3)


@given(messages=message_lists, around=around_sets)
@settings(deadline=None)
def test_model_counted_around_is_exact_where_it_answers(messages, around):
    corpus = Corpus.from_lines(" ".join(m) for m in messages)
    full = build_model(corpus, max_n=3)
    partial = build_model(corpus, max_n=3, around=around)
    assert partial.word_counts == full.word_counts
    assert partial.totals == {1: full.totals[1]}
    for gram in [g for n in (2, 3) for g in product("abcz", repeat=n)]:
        if set(gram) & around:
            assert partial.count(gram) == full.count(gram)
        else:
            with pytest.raises(ValueError):
                partial.count(gram)


@given(messages=message_lists)
@settings(deadline=None)
def test_longer_grams_never_outnumber_their_parts(messages):
    corpus = Corpus.from_lines(" ".join(m) for m in messages)
    model = build_model(corpus, max_n=3)
    for n in (2, 3):
        for gram in model.counts[n]:
            assert model.count(gram) <= model.count(gram[:-1])
            assert model.count(gram) <= model.count(gram[1:])


def test_unigram_distribution_maximum_likelihood(toy_model):
    counts = toy_model.word_counts
    p = smoothed_distribution(counts, toy_model.totals[1], counts)
    assert p["cat"] == pytest.approx(3 / 9)
    assert sum(p.values()) == pytest.approx(1.0)


def test_unigram_distribution_additive_smoothing(toy_model):
    counts = toy_model.word_counts
    p = smoothed_distribution(counts, toy_model.totals[1], counts, smoothing=1.0)
    assert p["cat"] == pytest.approx(4 / 14)
    assert sum(p.values()) == pytest.approx(1.0)


def test_unigram_distribution_over_superset_vocabulary(toy_model):
    counts = toy_model.word_counts
    vocab = sorted(set(counts) | {"dog"})
    p = smoothed_distribution(counts, toy_model.totals[1], vocab, smoothing=1.0)
    assert p["dog"] == pytest.approx(1 / (9 + 6))
    assert sum(p.values()) == pytest.approx(1.0)


def test_unigram_distribution_flattens_with_heavy_smoothing(toy_model):
    counts = toy_model.word_counts
    p = smoothed_distribution(counts, toy_model.totals[1], counts, smoothing=1e9)
    assert max(p.values()) - min(p.values()) < 1e-9


def test_unigram_distribution_rejects_negative_smoothing(toy_model):
    counts = toy_model.word_counts
    with pytest.raises(ValueError):
        smoothed_distribution(counts, toy_model.totals[1], counts, smoothing=-0.5)


def test_smoothed_distribution_zero_counts_need_smoothing():
    with pytest.raises(ValueError):
        smoothed_distribution({}, 0, ["a", "b"], smoothing=0.0)


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

