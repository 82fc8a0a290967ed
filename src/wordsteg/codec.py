"""Encoder and decoder for the insertion code.

The encoder hides a secret by inserting one codeword per symbol into a cover
message drawn from the corpus by CoverPool.draw. Each codeword goes into the
inter-word slot whose newly created n-grams are most frequent in the corpus,
scanning left to right so the receiver recovers symbol order in one pass.
insert_codewords scores all of a codeword's slots in one scan of the
message: it looks up the (at most) five grams of orders 2 and 3 around each
slot in the model's tables, and checks the codewords and the cover words
once per call, before it inserts anything. Every gram it scores holds the
inserted codeword, and its other words are cover words or codewords, so
embed, the one place that counts a model and inserts, takes covers already
drawn and counts the model for them and the secrets' codewords alone
(build_model(corpus, codewords, covers)); the counts are exact for every
gram it scores. The count reads only the lines that may hold one of those
codewords, which the Corpus searches for again on every call and does not
keep. A secret is a str of symbols.
Decoding is a plain scan: every token that is a codeword contributes its
symbol, and the symbols joined are the secret.

Correct decoding therefore requires that the cover itself contains no
codewords, so draw_cover rejects such covers, which makes the round trip
exact by construction; embed checks it anyway. Without that rejection an
embed would decode wrongly exactly when its cover holds a codeword, so the
evaluation harness counts such covers instead of embedding. Insertion always
places every codeword, so the density experiment, which reads only token
counts, adds the codewords to the cover counts instead of inserting them.
"""

import math
import random
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain
from math import log1p

from .codebook import Codebook, check_secret
from .corpus import Corpus
from .errors import SteganizeError
from .ngram import NGramModel, build_model

# Covers drawn per draw_cover call. 1000 draws all hold a codeword only when
# nearly every cover does (at 99% the chance is 0.99**1000, about 4e-5), and
# then the remedy is a rarer band, not more draws.
MAX_ATTEMPTS = 1000


# One successful embedding. stego and cover are token tuples; inserted_positions
# index stego, strictly increasing; attempts counts covers drawn, the accepted
# one included; density is inserted codewords over total stego tokens.
StegoResult = namedtuple("StegoResult", "stego cover inserted_positions attempts density")


def contains_codeword(tokens: Sequence[str], codebook: Codebook) -> bool:
    return not codebook.inverse.keys().isdisjoint(tokens)


def draw_cover(
    covers: Corpus, codebook: Codebook, rng: random.Random
) -> tuple[int, tuple[str, ...]]:
    """Covers drawn by covers.cover_pool.draw(rng) until one holds no
    codeword of `codebook`.

    Returns (attempt, cover tokens) for that cover. Raises SteganizeError
    as the draw does on an empty pool, or once MAX_ATTEMPTS covers have
    been drawn and every one held a codeword. There is no mode without
    rejection: run_band_experiment, which counts the covers that hold a
    codeword, calls the draw itself.
    """
    draw = covers.cover_pool.draw
    for attempt in range(1, MAX_ATTEMPTS + 1):
        cover = draw(rng)
        if not contains_codeword(cover, codebook):
            return attempt, tuple(cover)
    raise SteganizeError(MAX_ATTEMPTS, "every drawn cover contained a codeword")


def insert_codewords(
    model: NGramModel, tokens: Sequence[str], words: Sequence[str]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Insert words left to right, each strictly after the previous one.

    Each word goes into the slot with the highest insertion score to the
    right of the previous insertion; ties break toward the smallest index.
    A slot's insertion score is log(1 + count) summed over every gram of
    orders 2 and 3 that holds the inserted word, order 2 first, each order
    by window start; unigrams are skipped, as they score the word, not the
    slot. All of a word's slots are scored in one scan of the tokens.
    Returns the modified token tuple and the final index of every inserted
    word. Indexes stay valid because later insertions always land to the
    right of earlier ones. Nonempty `words` are checked once, before any
    insertion: ValueError if `tokens` has fewer than 2 tokens ("no
    insertion slot"), else for the first word outside model.codewords, else
    for a token outside model.words. Each insertion leaves a slot to its
    right, and later grams read only checked tokens and codewords.
    """
    bigrams, trigrams = model.counts[2], model.counts[3]
    out = list(tokens)
    if words:
        if len(out) < 2:
            raise ValueError("no insertion slot at or after position 1")
        unknown = [word for word in words if word not in model.codewords]
        if unknown:
            raise ValueError(f"model was not counted for the codeword {unknown[0]!r}")
        if not model.words.issuperset(out):
            raise ValueError(f"model was not counted for the words {out!r}")
    positions = []
    first = 1
    for word in words:
        last = len(out) - 1
        best, best_score = first, -math.inf
        for position in range(first, last + 1):
            left, right = out[position - 1], out[position]
            # += in one fixed order, order 2 then order 3, each by window
            # start: a near-tie of two slots must break the same way on
            # every run and Python version.
            score = log1p(bigrams.get((left, word), 0))
            score += log1p(bigrams.get((word, right), 0))
            if position > 1:
                score += log1p(trigrams.get((out[position - 2], left, word), 0))
            score += log1p(trigrams.get((left, word, right), 0))
            if position < last:
                score += log1p(trigrams.get((word, right, out[position + 1]), 0))
            if score > best_score:
                best, best_score = position, score
        out.insert(best, word)
        positions.append(best)
        first = best + 1
    return tuple(out), tuple(positions)


def decode(tokens: Sequence[str], codebook: Codebook) -> str:
    """Extract the secret: one symbol per codeword token, in order, joined."""
    return "".join(
        symbol
        for token in tokens
        if (symbol := codebook.inverse.get(token)) is not None
    )


def embed(
    covers: Corpus,
    codebook: Codebook,
    drawn: Sequence[tuple[int, tuple[str, ...], str]],
) -> list[StegoResult]:
    """Embed each secret in its cover, counting one model for them all.

    drawn holds (attempts, cover, secret) triples, attempts and cover as
    draw_cover returns them. Each stego must decode to its secret, else
    SteganizeError carries that triple's attempts. Returns one StegoResult
    per triple, in order.
    """
    words = [[codebook.forward[s] for s in secret] for _, _, secret in drawn]
    model = build_model(covers, chain.from_iterable(words), (cover for _, cover, _ in drawn))
    results = []
    for (attempts, cover, secret), codewords in zip(drawn, words):
        stego, positions = insert_codewords(model, cover, codewords)
        if decode(stego, codebook) != secret:
            raise SteganizeError(attempts, "stego text does not decode to the secret")
        results.append(StegoResult(stego, cover, positions, attempts, len(positions) / len(stego)))
    return results


def steganize(secret: str, codebook: Codebook, covers: Corpus, seed: int) -> StegoResult:
    """Embed a secret into a randomly drawn cover message.

    Draws one cover with no codeword via draw_cover (seeded draws by
    CoverPool.draw) and embeds the secret in it with embed; an empty secret
    returns the cover unchanged. Raises ValueError for a symbol outside the
    codebook's alphabet, and SteganizeError when the pool is empty, all
    MAX_ATTEMPTS covers drawn hold a codeword, or the stego text does not
    decode to the secret.
    """
    check_secret(secret, codebook.alphabet)
    attempt, cover = draw_cover(covers, codebook, random.Random(seed))
    return embed(covers, codebook, [(attempt, cover, secret)])[0]
