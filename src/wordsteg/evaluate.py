"""Measurement harness for the three quality axes of the insertion code.

Decodability: how often an embed that skipped cover rejection would decode
to the wrong secret. Density: what fraction of stego tokens are codewords.
Detectability: how well a statistical observer separates stego messages
from covers. Every experiment derives its seeds from one master seed, so
reruns with the same inputs reproduce results exactly. Each distinguisher
pair draws from a seed of its own, so it comes out the same in any execution
order. The other draws come in turn from streams, so each depends on the
draws before it in its stream: each band draws its trials' covers from one
"trials" stream of its own, and run_density_experiment draws all its covers
from one "covers" stream and each point's secrets from one stream per point.
Each cover is one CoverPool.draw on its stream, with or without rejection.
"""

import math
import random
from collections import Counter
from collections.abc import Sequence
from itertools import chain

from .codebook import DIGITS, Band, Codebook, format_band, select_codebook
from .codec import contains_codeword, draw_cover, embed
from .corpus import Corpus
from .errors import InsufficientBandError, SteganizeError
from .ngram import count_grams, message_grams, plausibility_score


def derive_seed(master: int, *labels) -> int:
    """Stable child seed for a labeled subtask of a master-seeded run."""
    # Imported here, not with the module: hashlib loads OpenSSL, and the
    # verbs that import this module without running an experiment never
    # derive a seed.
    import hashlib

    material = ":".join([str(master), *map(str, labels)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_sizes(trials: int, secret_len: int = 0, densities: Sequence[float] = ()) -> None:
    """The size rules of the experiments, in the one place they are written.

    Raises ValueError for the first fault, checking each target density
    (in [0, 1)) in order, then trials (>= 1), then secret_len (>= 0). Each
    experiment calls it before it draws, and the CLI before it reads a file.
    """
    for target in densities:
        if not 0.0 <= target < 1.0:
            raise ValueError(f"target density {target} outside [0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if secret_len < 0:
        raise ValueError("secret_len must be >= 0")


def random_secret(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def _band_row(
    band: Band, trials: int, errors: int, failures: int = 0, reason: str | None = None
) -> dict:
    """One band's raw decode-error tally, keyed in table and CSV column order.

    A band that runs no trial, being too thin to fill a codebook, is skipped.
    """
    return {
        "band": format_band(band),
        "trials": trials,
        "errors": errors,
        "failures": failures,
        "skipped": trials == 0,
        "reason": reason,
    }


def run_band_experiment(
    corpus: Corpus,
    bands: Sequence[Band],
    alphabet: str = DIGITS,
    *,
    trials: int,
    seed: int = 0,
) -> list[dict]:
    """Measure raw decode errors as codeword frequency rises.

    Each band gets its own codebook, drawn from corpus.vocabulary, and
    `trials` cover draws without rejection, so not through draw_cover: each
    trial is one corpus.cover_pool.draw(rng), each in turn from one rng
    seeded by the band's index. So a band's row does not depend on the
    other bands or on the order they run in. A raw embed into a drawn
    cover decodes wrongly exactly when that cover already holds a codeword:
    insertion always finds a slot and the inserted codewords decode in
    order, so no other error occurs, whatever the secret. Errors therefore
    count the drawn covers that hold a codeword. Bands too thin to fill a
    codebook are reported as skipped, not raised. An empty cover pool makes
    the draw raise: failures then equals trials for every band not skipped,
    errors is 0, and the reason is the raised error's text; otherwise
    failures is 0. Returns one _band_row per band.
    """
    if not bands:
        raise ValueError("need at least one band")
    check_sizes(trials)
    rows = []
    for index, band in enumerate(bands):
        try:
            codebook = select_codebook(
                corpus.vocabulary, band, alphabet, seed=derive_seed(seed, "band", index)
            )
        except InsufficientBandError as exc:
            rows.append(_band_row(band, trials=0, errors=0, reason=str(exc)))
            continue
        draw = corpus.cover_pool.draw
        rng = random.Random(derive_seed(seed, "band", index, "trials"))
        errors = 0
        try:
            for _ in range(trials):
                errors += contains_codeword(draw(rng), codebook)
        except SteganizeError as exc:
            rows.append(_band_row(band, trials, errors=0, failures=trials, reason=str(exc)))
            continue
        rows.append(_band_row(band, trials, errors))
    return rows


def _density_row(
    target_density: float,
    realized_density: float | None,
    trials: int,
    kl_nats: float | None,
    reason: str | None = None,
) -> dict:
    """One density point's distribution shift, keyed in table and CSV column order."""
    return {
        "target_density": target_density,
        "realized_density": realized_density,
        "trials": trials,
        "kl_nats": kl_nats,
        "skipped": reason is not None,
        "reason": reason,
    }


def _insert_count(cover_len: int, target_density: float) -> int:
    """Codewords needed so k / (cover_len + k) lands nearest the target."""
    if target_density == 0.0:
        return 0
    exact = target_density * cover_len / (1.0 - target_density)
    return max(1, round(exact))


def run_density_experiment(
    corpus: Corpus,
    codebook: Codebook,
    densities: Sequence[float],
    trials: int,
    seed: int = 0,
) -> list[dict]:
    """Trace distribution shift against codeword density.

    One cover sample of `trials` messages is drawn up front and reused for
    every density point, so differences between points come from insertions,
    not from resampling. For each point, every cover gets enough random
    codewords to approximate the target density (0.0 means none: the control
    point, whose divergence is pure sampling noise). The score per point is
    the Kullback-Leibler divergence in nats of the stego set's unigram
    distribution q from the corpus's p, both add-one smoothed over one
    support fixed per run: the corpus's words plus the codebook's
    codewords, which holds every word any stego set can contain. So the
    control point is scored over the same support as every other point and
    is comparable with them. With V words in the support, corpus counts c_w
    over T corpus tokens and stego counts s_w over S stego tokens,

        kl_nats = sum over w of p_w * ln(p_w / q_w),
        p_w = (c_w + 1) / (T + V),  q_w = (s_w + 1) / (S + V).

    p is computed once per run and each point walks the support once. The
    sum runs with += over the support in sorted order, not with sum(),
    which rounds differently from Python 3.12 on: so every Python version
    prints the same digits.

    Both outputs read only token counts, so nothing is inserted. Every cover
    has at least MIN_COVER_TOKENS tokens, so an embed would place every
    codeword, and where it lands changes neither the stego set's token
    multiset nor its length: each point's stego counts are the cover counts
    plus that point's codewords.
    """
    check_sizes(trials, densities=densities)
    try:
        cover_rng = random.Random(derive_seed(seed, "covers"))
        covers = [draw_cover(corpus, codebook, cover_rng)[1] for _ in range(trials)]
    except SteganizeError as exc:
        return [_density_row(target, None, 0, None, str(exc)) for target in densities]
    vocabulary = corpus.vocabulary
    support = sorted(vocabulary.keys() | codebook.inverse.keys())
    corpus_denominator = vocabulary.total() + len(support)
    corpus_p = [(word, (vocabulary.get(word, 0) + 1) / corpus_denominator) for word in support]
    cover_counts = Counter(chain.from_iterable(covers))
    cover_total = cover_counts.total()
    rows = []
    for index, target in enumerate(densities):
        inserted = sum(_insert_count(len(cover), target) for cover in covers)
        # One draw of every cover's symbols in turn: the stream that one draw
        # per cover would read, in the same order.
        secret_rng = random.Random(derive_seed(seed, "density", index))
        secret = random_secret(secret_rng, codebook.alphabet, inserted)
        stego_counts = cover_counts.copy()
        stego_counts.update(map(codebook.forward.__getitem__, secret))
        token_total = cover_total + inserted
        stego_denominator = token_total + len(support)
        kl = 0.0
        for word, p_w in corpus_p:
            kl += p_w * math.log(p_w / ((stego_counts.get(word, 0) + 1) / stego_denominator))
        rows.append(_density_row(target, inserted / token_total, trials, kl))
    return rows


def build_pairs(
    corpus: Corpus,
    codebook: Codebook,
    trials: int,
    *,
    secret_len: int,
    seed: int = 0,
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Build `trials` (cover, stego) pairs for the distinguisher.

    secret_len (>= 0) fixes the number of inserted codewords per pair;
    secret_len=0 yields identical pairs, the blind-guess baseline. Every
    cover and secret is drawn first, each pair from its own seeded rng;
    then embed counts one model for them all, inserts each secret and
    checks that its stego decodes.
    """
    check_sizes(trials, secret_len)
    drawn = []
    for index in range(trials):
        rng = random.Random(derive_seed(seed, "pair", index))
        attempts, cover = draw_cover(corpus, codebook, rng)
        drawn.append((attempts, cover, random_secret(rng, codebook.alphabet, secret_len)))
    return [(result.cover, result.stego) for result in embed(corpus, codebook, drawn)]


def distinguisher_accuracy(
    corpus: Corpus,
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    seed: int = 0,
) -> float:
    """Accuracy of a plausibility-threshold observer on (cover, stego) pairs.

    Each pair is shown in seeded random order and the member with the lower
    plausibility score is classified as the stego. The observer reads the
    words in corpus.vocabulary and counts only the longer grams of the
    messages in `pairs` (count_grams). 0.5 means the observer is blind; the
    scheme's detectability is the advantage above 0.5.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    counts = count_grams(
        corpus, set(chain.from_iterable(map(message_grams, chain.from_iterable(pairs))))
    )
    rng = random.Random(seed)
    correct = 0
    for pair in pairs:
        cover, stego = (plausibility_score(corpus.vocabulary, counts, m) for m in pair)
        # rng shows the stego first or second; a tie names the one shown second.
        correct += stego < cover if rng.random() < 0.5 else stego <= cover
    return correct / len(pairs)
