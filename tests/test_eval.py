import math
import random
from collections import Counter

import pytest

from wordsteg.codebook import DIGITS, Codebook, select_codebook
from wordsteg.codec import decode, draw_cover, insert_codewords, steganize
from wordsteg.corpus import Corpus
from wordsteg.errors import SteganizeError
from wordsteg.evaluate import (
    _insert_count,
    build_pairs,
    derive_seed,
    distinguisher_accuracy,
    random_secret,
    run_band_experiment,
    run_density_experiment,
)
from wordsteg.ngram import build_model

from corpuslines import corpus_lines, cover_lines
from kl_reference import kl_divergence, smoothed_distribution


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)


def test_density_matches_inserted_fraction(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    result = steganize("123", codebook, small_corpus, seed=6)
    expected = 3 / len(result.stego)
    assert result.density == pytest.approx(expected)


def test_kl_ignores_zero_probability_entries():
    p = {"a": 1.0, "b": 0.0}
    q = {"a": 0.9, "b": 0.1}
    assert kl_divergence(p, q) == pytest.approx(math.log(1 / 0.9))


def test_kl_rejects_support_mismatch():
    with pytest.raises(ValueError):
        kl_divergence({"a": 1.0}, {"b": 1.0})


def test_kl_rejects_zero_q_where_p_positive():
    with pytest.raises(ValueError):
        kl_divergence({"a": 0.5, "b": 0.5}, {"a": 1.0, "b": 0.0})


def test_band_experiment_reports_each_band(small_corpus):
    bands = [(2, 4), (30, None)]
    rows = run_band_experiment(small_corpus, bands, DIGITS, trials=150, seed=0)
    assert [row["band"] for row in rows] == ["2-4", "30+"]
    assert all(row["trials"] == 150 and not row["skipped"] for row in rows)
    assert rows[0]["errors"] <= rows[1]["errors"]
    assert rows[1]["errors"] > 0


def test_band_experiment_skips_impossible_bands(small_corpus):
    rows = run_band_experiment(
        small_corpus,
        [(10_000, None), (2, 4)],
        DIGITS,
        trials=20,
        seed=0,
    )
    assert rows[0]["skipped"] and rows[0]["reason"]
    assert rows[0]["trials"] == 0 and rows[0]["errors"] == 0
    assert not rows[1]["skipped"]


@pytest.mark.parametrize("secret_len", [0, 1, 2, 4])
def test_band_errors_equal_raw_embed_decode_errors(small_corpus, secret_len):
    # Reference: replay every trial as an embed without cover rejection,
    # on the same cover draw from the band's one stream, and count the
    # secrets that decode wrongly.
    bands = [(2, 4), (8, 12), (30, None)]
    seed = 11
    rows = run_band_experiment(small_corpus, bands, DIGITS, trials=120, seed=seed)
    lines = cover_lines(small_corpus)
    for index, (band, row) in enumerate(zip(bands, rows)):
        codebook = select_codebook(
            small_corpus.vocabulary, band, DIGITS, seed=derive_seed(seed, "band", index)
        )
        secret_rng = random.Random(derive_seed(seed, "band", index, "secrets"))
        secrets = [
            "".join(secret_rng.choice(codebook.alphabet) for _ in range(secret_len))
            for _ in range(row["trials"])
        ]
        cover_rng = random.Random(derive_seed(seed, "band", index, "trials"))
        covers = [
            tuple(lines[cover_rng.randrange(len(lines))].split()) for _ in range(row["trials"])
        ]
        model = build_model(small_corpus, codebook.inverse, covers)
        mismatches = 0
        for secret, cover in zip(secrets, covers):
            words = [codebook.forward[s] for s in secret]
            stego, _ = insert_codewords(model, cover, words)
            mismatches += decode(stego, codebook) != secret
        assert (row["trials"], row["failures"], row["skipped"]) == (120, 0, False)
        assert row["errors"] == mismatches, band
    assert any(row["errors"] for row in rows)


def test_band_row_does_not_depend_on_other_bands(small_corpus):
    def run(bands):
        return run_band_experiment(small_corpus, bands, DIGITS, trials=150, seed=3)

    rows = run([(2, 4), (30, None)])
    # A skipped first band draws no covers, so a stream shared across bands
    # would shift the second band's draws.
    skipped, second = run([(10_000, None), (30, None)])
    assert skipped["skipped"] and second == rows[1]
    first, _ = run([(2, 4), (8, 12)])
    assert first == rows[0]


def test_empty_cover_pool_fails_every_band_trial():
    corpus = Corpus(["a b", "c d", "e"])
    assert cover_lines(corpus) == ()
    # A thin band is skipped before the empty pool fails the next band's trials.
    thin, row = run_band_experiment(corpus, [(2, None), (1, None)], ("0",), trials=25, seed=0)
    assert (thin["trials"], thin["failures"], thin["skipped"]) == (0, 0, True)
    assert (row["trials"], row["failures"], row["errors"], row["skipped"]) == (25, 25, 0, False)
    # The reason every draw_cover caller gives for an empty pool.
    assert row["reason"] == "no covers with >= 3 tokens after 0 attempts"


def test_band_experiment_is_deterministic(small_corpus):
    kwargs = dict(trials=40, seed=17)
    first = run_band_experiment(small_corpus, [(2, 4), (8, None)], DIGITS, **kwargs)
    again = run_band_experiment(small_corpus, [(2, 4), (8, None)], DIGITS, **kwargs)
    assert first == again


def test_density_experiment_tracks_targets(small_corpus):
    # Rare codewords, so packing them in can only push the stego set away
    # from the corpus distribution.
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=2)
    points = run_density_experiment(
        small_corpus,
        codebook,
        [0.0, 0.1, 0.3],
        trials=60,
        seed=0,
    )
    assert [p["target_density"] for p in points] == [0.0, 0.1, 0.3]
    assert points[0]["realized_density"] == 0.0
    assert all(p["kl_nats"] >= 0.0 for p in points)
    for point, target in zip(points[1:], (0.1, 0.3)):
        assert point["realized_density"] == pytest.approx(target, abs=0.05)
    assert points[2]["kl_nats"] > points[0]["kl_nats"]


@pytest.mark.parametrize("band", [(4, 8), (14, None), None])
def test_density_equals_explicit_embed(small_corpus, band):
    # Reference: replay every point by inserting each secret into its cover
    # under the model counted for the codebook and those covers, on the same
    # cover draw and secrets, and score the stego messages themselves, over
    # the corpus's words plus the codebook's codewords. band None is a
    # codebook of words absent from the corpus, so every point, the 0.0
    # control included, scores over a support wider than the corpus's words.
    if band is None:
        codebook = Codebook(DIGITS, {s: f"zz{s}" for s in DIGITS}, (1, None), 0)
    else:
        codebook = select_codebook(small_corpus.vocabulary, band, DIGITS, seed=2)
    densities, trials, seed = [0.0, 0.05, 0.2, 0.5], 40, 9
    points = run_density_experiment(small_corpus, codebook, densities, trials=trials, seed=seed)
    cover_rng = random.Random(derive_seed(seed, "covers"))
    covers = [draw_cover(small_corpus, codebook, cover_rng)[1] for _ in range(trials)]
    model = build_model(small_corpus, codebook.inverse, covers)
    support = sorted(set(small_corpus.vocabulary) | set(codebook.forward.values()))
    p = smoothed_distribution(small_corpus.vocabulary, support)
    expected = []
    for index, target in enumerate(densities):
        secret_rng = random.Random(derive_seed(seed, "density", index))
        stego_counts: Counter[str] = Counter()
        inserted = 0
        for cover in covers:
            wanted = _insert_count(len(cover), target)
            secret = random_secret(secret_rng, codebook.alphabet, wanted)
            stego, positions = insert_codewords(
                model, cover, [codebook.forward[s] for s in secret]
            )
            stego_counts.update(stego)
            inserted += len(positions)
        total = stego_counts.total()
        q = smoothed_distribution(stego_counts, support)
        expected.append(
            {
                "target_density": target,
                "realized_density": inserted / total,
                "trials": trials,
                "kl_nats": kl_divergence(p, q),
                "skipped": False,
                "reason": None,
            }
        )
    assert points == expected
    assert points[-1]["realized_density"] > 0.4


def test_density_experiment_is_deterministic(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (8, None), DIGITS, seed=2)
    args = (small_corpus, codebook, [0.0, 0.2])
    first = run_density_experiment(*args, trials=30, seed=3)
    again = run_density_experiment(*args, trials=30, seed=3)
    assert first == again


def test_density_experiment_rejects_bad_targets(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (8, None), DIGITS, seed=2)
    with pytest.raises(ValueError):
        run_density_experiment(small_corpus, codebook, [1.0], trials=5)
    with pytest.raises(ValueError):
        run_density_experiment(small_corpus, codebook, [-0.1], trials=5)
    # A bad target is named before a bad trials count.
    with pytest.raises(ValueError, match=r"target density 1.5 outside"):
        run_density_experiment(small_corpus, codebook, [1.5], trials=0)


@pytest.mark.parametrize("lines", [["a b", "c d"], ["a b c", "d a e f"]])
def test_exhausted_density_call_does_not_count_the_vocabulary(lines):
    # An empty cover pool, then a pool whose every cover holds the codeword:
    # the draws fail before the support is built, so the call skips every
    # point without counting the corpus's words.
    corpus = Corpus(lines)
    codebook = Codebook(("0",), {"0": "a"}, (1, None), 0)
    rows = run_density_experiment(corpus, codebook, [0.0, 0.2], trials=5)
    assert [(row["trials"], row["kl_nats"], row["skipped"]) for row in rows] == [
        (0, None, True)
    ] * 2
    assert "vocabulary" not in corpus.__dict__


def test_build_pairs_identical_when_secret_len_zero(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    pairs = build_pairs(small_corpus, codebook, 12, seed=0, secret_len=0)
    assert len(pairs) == 12
    assert all(cover == stego for cover, stego in pairs)


def test_build_pairs_raises_when_round_trip_fails(small_corpus, monkeypatch):
    # Every pair is embedded by codec.embed, which checks that its stego
    # decodes: an insertion that loses a codeword fails on the first pair.
    def drop_last(model, tokens, words):
        return insert_codewords(model, tokens, list(words)[:-1])

    monkeypatch.setattr("wordsteg.codec.insert_codewords", drop_last)
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    with pytest.raises(SteganizeError, match="stego text does not decode") as excinfo:
        build_pairs(small_corpus, codebook, 5, secret_len=2, seed=0)
    attempts, _ = draw_cover(small_corpus, codebook, random.Random(derive_seed(0, "pair", 0)))
    assert excinfo.value.attempts == attempts


def test_negative_secret_len_is_rejected(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (4, 8), DIGITS, seed=1)
    with pytest.raises(ValueError, match="secret_len"):
        build_pairs(small_corpus, codebook, 5, secret_len=-3)


def test_distinguisher_is_blind_on_identical_pairs(small_corpus):
    pairs = [(m, m) for m in map(str.split, corpus_lines(small_corpus))]
    accuracy = distinguisher_accuracy(small_corpus, pairs, seed=5)
    assert 0.35 <= accuracy <= 0.65


def test_distinguisher_spots_rare_word_insertions(small_corpus):
    codebook = select_codebook(small_corpus.vocabulary, (4, 6), DIGITS, seed=1)
    pairs = build_pairs(small_corpus, codebook, 60, secret_len=2, seed=0)
    accuracy = distinguisher_accuracy(small_corpus, pairs, seed=1)
    assert accuracy > 0.7


def test_distinguisher_rejects_empty_input(small_corpus):
    with pytest.raises(ValueError):
        distinguisher_accuracy(small_corpus, [], seed=0)


def test_distinguisher_is_deterministic(small_corpus):
    pairs = [(m, m) for m in map(str.split, corpus_lines(small_corpus)[:50])]
    first = distinguisher_accuracy(small_corpus, pairs, seed=9)
    again = distinguisher_accuracy(small_corpus, pairs, seed=9)
    assert first == again
