import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsteg.codebook import select_codebook
from wordsteg.codec import insert_codewords
from wordsteg.corpus import Corpus
from wordsteg.ngram import (
    MAX_N,
    build_model,
    count_grams,
    message_grams,
    plausibility_score,
)

from corpuslines import corpus_lines, corpus_of, cover_lines, texts_of
from kl_reference import smoothed_distribution


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


def observe(corpus, tokens):
    """What the observer does for one message: count its grams, then score it."""
    counts = count_grams(corpus, message_grams(tokens))
    return plausibility_score(corpus.vocabulary, counts, tokens)


def test_toy_unigram_counts(toy_corpus):
    expected = {"the": 2, "cat": 3, "sat": 2, "ran": 1, "a": 1}
    assert dict(toy_corpus.vocabulary) == expected
    assert toy_corpus.vocabulary.total() == 9
    # Words are the vocabulary's to count; the observer counts the longer grams.
    assert set(count_grams(toy_corpus, [])) == {2, 3}


def test_toy_bigram_counts(toy_corpus):
    expected = {
        ("the", "cat"): 2,
        ("cat", "sat"): 2,
        ("cat", "ran"): 1,
        ("a", "cat"): 1,
    }
    assert count_grams(toy_corpus, [*expected, ("cat", "the")])[2] == {
        **expected,
        ("cat", "the"): 0,
    }
    model = build_model(toy_corpus, {"cat"}, [("the", "sat", "ran", "a")])
    assert model.counts[2] == expected


def test_grams_do_not_span_messages():
    corpus = Corpus(["a b", "c d"])
    assert count_grams(corpus, [("a", "b"), ("b", "c")])[2] == {("a", "b"): 1, ("b", "c"): 0}
    model = build_model(corpus, {"b", "c"}, [("a", "b", "c")])
    assert model.counts[2].get(("b", "c"), 0) == 0
    assert model.counts[2][("a", "b")] == 1


def test_unigrams_match_an_independent_recount(desk_corpus):
    recount = {}
    for message in map(str.split, corpus_lines(desk_corpus)):
        for word in message:
            recount[word] = recount.get(word, 0) + 1
    assert list(desk_corpus.vocabulary.items()) == list(recount.items())
    assert desk_corpus.vocabulary.total() == sum(recount.values())


def test_model_counted_around_refuses_what_it_cannot_answer(toy_corpus):
    model = build_model(toy_corpus, {"ran"}, [("the", "cat")])
    assert model.codewords == frozenset({"ran"})
    assert model.words == frozenset({"ran", "the", "cat"})
    # Only "the cat ran" holds "ran", so only its grams that hold "ran" are
    # counted; "ran" ends the message, so no gram follows it.
    assert model.counts[2] == {("cat", "ran"): 1}
    assert model.counts[3] == {("the", "cat", "ran"): 1}
    # Slot 2 of "the cat the" reads (cat ran) and (the cat ran), 1 each, so
    # it scores log 2 + log 2 = log 4. Slot 1 reads only (the ran), unseen;
    # at a count of 2 it scores log 3 and loses, at 4 log 5 and wins. Every
    # score is the log of a whole number, so slot 2 scores exactly log 4.
    cover = ("the", "cat", "the")
    assert insert_codewords(model, cover, ["ran"]) == (("the", "cat", "ran", "the"), (2,))
    for count, slot in [(2, 2), (4, 1)]:
        model.counts[2][("the", "ran")] = count
        assert insert_codewords(model, cover, ["ran"])[1] == (slot,)
    with pytest.raises(ValueError, match="codeword"):
        insert_codewords(model, ("the", "cat"), ["cat"])
    with pytest.raises(ValueError, match="words"):
        insert_codewords(model, ("the", "sat"), ["ran"])
    counts = count_grams(toy_corpus, message_grams(("the", "cat")))
    with pytest.raises(ValueError, match="not counted"):
        plausibility_score(toy_corpus.vocabulary, counts, ("the", "cat", "ran"))


def test_count_refuses_grams_it_cannot_count(toy_corpus):
    for gram in [(), ("a",), ("a", "b", "c", "d"), ("a", "."), (".",)]:
        with pytest.raises(ValueError, match="cannot count"):
            count_grams(toy_corpus, [gram])


token = st.sampled_from(["a", "b", "c"])
message_lists = st.lists(
    st.lists(token, min_size=1, max_size=6), min_size=1, max_size=8
)
# "z" never occurs in a message.
ALL_GRAMS = [g for n in range(2, MAX_N + 1) for g in product("abcz", repeat=n)]


@given(messages=message_lists)
@settings(deadline=None)
def test_counts_match_window_scan(messages):
    corpus = Corpus(" ".join(m) for m in messages)
    counts = count_grams(corpus, ALL_GRAMS)
    token_lists = [line.split() for line in corpus_lines(corpus)]
    assert corpus.vocabulary.total() == sum(map(len, token_lists))
    for word, count in corpus.vocabulary.items():
        assert count == window_count(token_lists, (word,))
    for n in range(2, MAX_N + 1):
        assert sum(counts[n].values()) == sum(max(0, len(t) - n + 1) for t in token_lists)
        assert len(counts[n]) == 4**n
        for gram, count in counts[n].items():
            assert count == window_count(token_lists, gram)


@given(messages=message_lists, requested=st.sets(st.sampled_from(ALL_GRAMS)))
@settings(deadline=None)
def test_observer_count_holds_exactly_the_requested_grams(messages, requested):
    corpus = Corpus(" ".join(m) for m in messages)
    counts = count_grams(corpus, requested)
    token_lists = [line.split() for line in corpus_lines(corpus)]
    assert {g for table in counts.values() for g in table} == requested
    for n, table in counts.items():
        for gram, count in table.items():
            assert len(gram) == n
            assert count == window_count(token_lists, gram)


# Messages over five words and two longer tokens, so that "d" and "e" lie
# outside the counted words unless a cover holds them, and a line may hold a
# codeword only inside "ab" or "ca", which the search takes and the count
# must not count as the codeword; "z" never occurs in a message, and a set
# holding only "z" matches none.
wide_messages = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "ab", "ca"]), min_size=1, max_size=6),
    min_size=1,
    max_size=8,
)
codeword_sets = st.sets(st.sampled_from("abcz"), max_size=3)
cover_lists = st.lists(st.lists(st.sampled_from("abcde"), max_size=4), max_size=3)


@given(messages=wide_messages, codewords=codeword_sets, covers=cover_lists)
@settings(deadline=None)
def test_model_counted_around_is_exact_where_it_answers(messages, codewords, covers):
    corpus = Corpus(" ".join(m) for m in messages)
    model = build_model(corpus, codewords, covers)
    token_lists = [line.split() for line in corpus_lines(corpus)]
    words = codewords | {w for cover in covers for w in cover}
    assert model.words == words
    assert set(model.counts) == set(range(2, MAX_N + 1))
    # Each table holds exactly the grams over `words` that hold a codeword
    # and occur, with their counts: no None, no gram insertion cannot read.
    for n, table in model.counts.items():
        expected = {
            gram: count
            for gram in product(sorted(words), repeat=n)
            if set(gram) & codewords and (count := window_count(token_lists, gram))
        }
        assert dict(table) == expected


# Texts of a drawn READ_CHARS, so that hypothesis's short corpora cross text
# edges, both in the counts and in the search for the lines that hold a
# codeword; the corpus is given the lines in texts of at most 1 to 3 lines,
# cut at drawn points. Every single-letter word of the messages is a cover
# word.
@pytest.mark.parametrize("most", [1, 2, 3])
@given(
    messages=wide_messages,
    codewords=codeword_sets,
    cuts=st.lists(st.booleans()),
    read_chars=st.integers(1, 24),
)
@settings(deadline=None)
def test_both_counts_are_exact_across_text_edges(most, messages, codewords, cuts, read_chars):
    grams = [g for n in range(2, MAX_N + 1) for g in product("abcdez", repeat=n)]
    corpus = corpus_of(texts_of((" ".join(m) for m in messages), most, cuts), read_chars)
    token_lists = [line.split() for line in corpus_lines(corpus)]
    counts = count_grams(corpus, grams)
    model = build_model(corpus, codewords, [tuple("abcde")])
    for gram in grams:
        assert counts[len(gram)][gram] == window_count(token_lists, gram)
        if set(gram) & codewords:
            assert model.counts[len(gram)].get(gram, 0) == window_count(token_lists, gram)


@given(
    messages=wide_messages,
    codewords=codeword_sets,
    cover=st.lists(st.sampled_from("abcdez"), min_size=2, max_size=6),
    counted=st.sets(st.sampled_from("abcdez")),
    word=st.sampled_from("abcdez"),
    data=st.data(),
)
@settings(deadline=None)
def test_scoring_outside_either_domain_raises(
    messages, codewords, cover, counted, word, data
):
    corpus = Corpus(" ".join(m) for m in messages)
    model = build_model(corpus, codewords, [sorted(counted)])
    # One word is scored in every slot, so every cover word is a neighbour.
    answers = word in codewords and set(cover) <= codewords | counted
    if answers:
        insert_codewords(model, cover, [word])
    else:
        with pytest.raises(ValueError):
            insert_codewords(model, cover, [word])

    scored = data.draw(st.lists(st.sampled_from("abcdez"), min_size=1, max_size=6))
    # A one-word message has no longer grams: only the vocabulary scores it.
    grams = message_grams(scored)
    requested = set(data.draw(st.lists(st.sampled_from(grams)))) if grams else set()
    counts = count_grams(corpus, requested)
    if requested >= set(message_grams(scored)):
        plausibility_score(corpus.vocabulary, counts, scored)
    else:
        with pytest.raises(ValueError, match="not counted"):
            plausibility_score(corpus.vocabulary, counts, scored)


def _distinct_word_corpus(n_messages):
    """Every message holds the codeword "cw"; every other word occurs once."""
    return Corpus(f"a{i} b{i} cw c{i} d{i}" for i in range(n_messages))


def test_insertion_tables_do_not_grow_with_the_corpus():
    cover = ("a0", "b0", "c0", "d0")
    small = build_model(_distinct_word_corpus(200), {"cw"}, [cover])
    large = build_model(_distinct_word_corpus(400), {"cw"}, [cover])
    assert {n: len(t) for n, t in small.counts.items()} == {
        n: len(t) for n, t in large.counts.items()
    }
    for n, table in large.counts.items():
        assert len(table) <= len(large.words) ** n


def test_insertion_keeps_only_the_grams_insertion_reads(desk_corpus):
    # A work pin on what one model keeps: four codewords of one codebook and
    # the desk corpus's first cover keep 58 grams that count 276
    # occurrences. A model that also kept the grams that hold a word outside
    # the cover or end a text would keep {2: 30, 3: 114}, counting 1,907.
    codebook = select_codebook(desk_corpus.vocabulary, (14, None), seed=7)
    codewords = [codebook.forward[symbol] for symbol in "0123"]
    model = build_model(desk_corpus, codewords, [cover_lines(desk_corpus)[0].split()])
    assert {n: len(t) for n, t in model.counts.items()} == {2: 22, 3: 36}
    assert sum(t.total() for t in model.counts.values()) == 276


@given(messages=message_lists)
@settings(deadline=None)
def test_longer_grams_never_outnumber_their_parts(messages):
    corpus = Corpus(" ".join(m) for m in messages)
    grams = {g for line in corpus_lines(corpus) for g in message_grams(line.split())}
    counts = count_grams(corpus, grams)

    def count(gram):
        return corpus.vocabulary[gram[0]] if len(gram) == 1 else counts[len(gram)][gram]

    for n in range(2, MAX_N + 1):
        for gram in counts[n]:
            assert count(gram) <= count(gram[:-1])
            assert count(gram) <= count(gram[1:])


def test_unigram_distribution_additive_smoothing(toy_corpus):
    counts = toy_corpus.vocabulary
    p = smoothed_distribution(counts, counts)
    assert p["cat"] == pytest.approx(4 / 14)
    assert sum(p.values()) == pytest.approx(1.0)


def test_unigram_distribution_over_superset_vocabulary(toy_corpus):
    counts = toy_corpus.vocabulary
    vocab = sorted(set(counts) | {"dog"})
    p = smoothed_distribution(counts, vocab)
    assert p["dog"] == pytest.approx(1 / (9 + 6))
    assert sum(p.values()) == pytest.approx(1.0)


def test_smoothed_distribution_over_no_words_raises():
    with pytest.raises(ValueError, match="no probability mass"):
        smoothed_distribution({}, [])


def reference_score(token_lists, tokens):
    """Independent oracle: every gram of orders 1..MAX_N, order by order,
    each log1p(window count) added with += and the sum divided by their
    number."""
    toks = tuple(tokens)
    grams = [
        toks[i : i + n] for n in range(1, MAX_N + 1) for i in range(len(toks) - n + 1)
    ]
    total = 0.0
    for gram in grams:
        total += math.log1p(window_count(token_lists, gram))
    return total / len(grams)


# Messages over many words, so that counts and their logarithms vary: a
# score summed by sum() rather than += then differs in its last bits on
# Python 3.12 and later.
many_words = st.sampled_from([f"w{i}" for i in range(12)])


@given(
    messages=st.lists(st.lists(many_words, min_size=1, max_size=12), min_size=1, max_size=30),
    scored=st.lists(many_words, min_size=1, max_size=24),
)
@settings(deadline=None)
def test_score_is_the_mean_over_orders_one_to_three_in_order(messages, scored):
    corpus = Corpus(" ".join(m) for m in messages)
    token_lists = [line.split() for line in corpus_lines(corpus)]
    assert observe(corpus, scored) == reference_score(token_lists, scored)


def test_plausibility_matches_hand_formula(toy_corpus):
    expected = (math.log(3) + math.log(4) + math.log(3)) / 3
    score = observe(toy_corpus, ("the", "cat"))
    assert score == pytest.approx(expected)
    assert score == pytest.approx(1.1945, abs=1e-4)


def test_plausibility_of_unseen_text_is_zero(toy_corpus):
    assert observe(toy_corpus, ("x", "y", "z")) == 0.0


def test_plausibility_rejects_empty_sequence(toy_corpus):
    with pytest.raises(ValueError):
        observe(toy_corpus, ())


def test_plausibility_prefers_attested_word_order(toy_corpus):
    natural = observe(toy_corpus, ("the", "cat"))
    scrambled = observe(toy_corpus, ("cat", "the"))
    assert natural > scrambled
