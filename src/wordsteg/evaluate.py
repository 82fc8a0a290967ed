"""Measurement harness for the three quality axes of the insertion code.

Decodability: how often an embed that skipped cover rejection would decode
to the wrong secret. Density: what fraction of stego tokens are codewords.
Detectability: how well a statistical observer separates stego messages
from covers. Every experiment is driven by per-trial seeds derived from one
master seed, so reruns with the same inputs reproduce results exactly, in
any execution order.
"""

import math
import random
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain

from .codebook import DIGITS, Band, Codebook, format_band, select_codebook
from .codec import contains_codeword, draw_cover, insert_codewords
from .corpus import Corpus
from .errors import InsufficientBandError, SteganizeError
from .ngram import build_model, count_grams, message_grams, plausibility_score


def derive_seed(master: int, *labels) -> int:
    """Stable child seed for a labeled subtask of a master-seeded run."""
    # Imported here, not with the module: hashlib loads OpenSSL, and the
    # verbs that import this module without running an experiment never
    # derive a seed.
    import hashlib

    material = ":".join([str(master), *map(str, labels)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def random_secret(rng: random.Random, alphabet: Sequence[str], length: int) -> tuple:
    return tuple(rng.choice(alphabet) for _ in range(length))


def kl_divergence(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Kullback-Leibler divergence sum(p * ln(p/q)) in nats.

    Requires identical supports and q > 0 wherever p > 0; zero-probability
    p entries contribute nothing.
    """
    if set(p) != set(q):
        raise ValueError("p and q must share the same support")
    total = 0.0
    for word, p_w in p.items():
        if p_w == 0.0:
            continue
        q_w = q[word]
        if q_w <= 0.0:
            raise ValueError(f"q({word!r}) = 0 where p > 0: divergence is infinite")
        total += p_w * math.log(p_w / q_w)
    return total


def smoothed_distribution(
    counts: Mapping[str, int], vocabulary: Iterable[str]
) -> dict[str, float]:
    """Add-one (Laplace) smoothed distribution of `counts` over `vocabulary`."""
    vocab = list(vocabulary)
    denominator = sum(counts.values()) + len(vocab)
    if denominator <= 0:
        raise ValueError("distribution has no probability mass")
    return {w: (counts.get(w, 0) + 1) / denominator for w in vocab}


def _band_row(
    band: Band, trials: int, errors: int, failures: int = 0, reason: str | None = None
) -> dict:
    """One band's raw decode-error tally, keyed in table and CSV column order."""
    return {
        "band": format_band(band),
        "trials": trials,
        "errors": errors,
        "failures": failures,
        "skipped": reason is not None,
        "reason": reason,
    }


def run_band_experiment(
    corpus: Corpus,
    bands: Sequence[Band],
    alphabet: tuple[str, ...] = DIGITS,
    trials: int = 2000,
    seed: int = 0,
) -> list[dict]:
    """Measure raw decode errors as codeword frequency rises.

    Each band gets its own codebook, drawn from corpus.vocabulary, and
    `trials` seeded cover draws without rejection. A raw embed into a drawn
    cover decodes wrongly exactly when that cover already holds a codeword:
    insertion always finds a slot and the inserted codewords decode in
    order, so no other error occurs, whatever the secret. Errors therefore
    count the drawn covers that hold a codeword. Bands too thin to fill a
    codebook are reported as skipped, not raised. When no message has
    MIN_COVER_TOKENS or more tokens, the cover pool is empty and nothing can
    be drawn: failures then equals trials for every band not skipped, and
    errors is 0; otherwise failures is 0. Returns one _band_row per band.
    """
    if not bands:
        raise ValueError("need at least one band")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for index, band in enumerate(bands):
        try:
            codebook = select_codebook(
                corpus.vocabulary, band, alphabet, seed=derive_seed(seed, "band", index)
            )
        except InsufficientBandError as exc:
            rows.append(_band_row(band, trials=0, errors=0, reason=str(exc)))
            continue
        if not corpus.cover_pool:
            rows.append(_band_row(band, trials, errors=0, failures=trials))
            continue
        errors = 0
        for trial in range(trials):
            rng = random.Random(derive_seed(seed, "band", index, "trial", trial))
            errors += contains_codeword(draw_cover(corpus, None, rng)[1], codebook)
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
    trials: int = 500,
    seed: int = 0,
) -> list[dict]:
    """Trace distribution shift against codeword density.

    One cover sample of `trials` messages is drawn up front and reused for
    every density point, so differences between points come from insertions,
    not from resampling. For each point, every cover gets enough random
    codewords to approximate the target density (0.0 means none: the control
    point, whose divergence is pure sampling noise). The score per point is
    kl_divergence(corpus distribution, stego-set distribution), both
    add-one smoothed over one support fixed per run: the corpus's words plus
    the codebook's codewords, which holds every word any stego set can
    contain. So the control point is scored over the same support as every
    other point and is comparable with them.

    Both outputs read only token counts, so nothing is inserted. Every cover
    has at least MIN_COVER_TOKENS tokens, so insert_codewords would place
    every codeword, and where it lands changes neither the stego set's token
    multiset nor its length: each point's stego counts are the cover counts
    plus that point's codewords.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for target in densities:
        if not 0.0 <= target < 1.0:
            raise ValueError(f"target density {target} outside [0, 1)")
    support = sorted(corpus.vocabulary.keys() | codebook.inverse.keys())
    p = smoothed_distribution(corpus.vocabulary, support)
    rows = []
    try:
        cover_rng = random.Random(derive_seed(seed, "covers"))
        covers = [draw_cover(corpus, codebook, cover_rng)[1] for _ in range(trials)]
    except SteganizeError as exc:
        return [_density_row(target, None, 0, None, str(exc)) for target in densities]
    cover_counts = Counter(chain.from_iterable(covers))
    cover_total = cover_counts.total()
    for index, target in enumerate(densities):
        secret_rng = random.Random(derive_seed(seed, "density", index))
        stego_counts = cover_counts.copy()
        inserted = 0
        for cover in covers:
            wanted = _insert_count(len(cover), target)
            secret = random_secret(secret_rng, codebook.alphabet, wanted)
            stego_counts.update(codebook.forward[s] for s in secret)
            inserted += wanted
        token_total = cover_total + inserted
        q = smoothed_distribution(stego_counts, support)
        rows.append(_density_row(target, inserted / token_total, trials, kl_divergence(p, q)))
    return rows


def build_pairs(
    corpus: Corpus,
    codebook: Codebook,
    trials: int,
    seed: int = 0,
    secret_len: int = 2,
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Build `trials` (cover, stego) pairs for the distinguisher.

    secret_len (>= 0) fixes the number of inserted codewords per pair;
    secret_len=0 yields identical pairs, the blind-guess baseline. Every
    cover and secret is drawn first, each pair from its own seeded rng;
    then one model is counted for all the covers and the drawn codewords,
    and the codewords are inserted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if secret_len < 0:
        raise ValueError("secret_len must be >= 0")
    draws = []
    for index in range(trials):
        rng = random.Random(derive_seed(seed, "pair", index))
        _, cover = draw_cover(corpus, codebook, rng)
        secret = random_secret(rng, codebook.alphabet, secret_len)
        draws.append((cover, [codebook.forward[s] for s in secret]))
    model = build_model(
        corpus,
        chain.from_iterable(words for _, words in draws),
        (cover for cover, _ in draws),
    )
    return [(cover, insert_codewords(model, cover, words)[0]) for cover, words in draws]


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
