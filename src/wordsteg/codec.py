"""Encoder and decoder for the insertion code.

The encoder hides a secret by inserting one codeword per symbol into a cover
message drawn from the corpus. Each codeword goes into the inter-word slot
whose newly created n-grams are most frequent in the corpus, scanning left
to right so the receiver recovers symbol order with a single pass. Every
gram it scores holds the inserted codeword, and its other words are cover
words or codewords, so steganize draws the cover first and then counts the
model for that cover and the secret's codewords alone
(build_model(corpus, codewords, [cover])); the counts are exact for every
gram it scores. Decoding is a plain scan: every token that is a codeword
contributes its symbol.

Correct decoding therefore requires that the cover itself contains no
codewords, so draw_cover rejects such covers, which makes the round trip
exact by construction; steganize checks it anyway. Without that rejection an
embed would decode wrongly exactly when its cover holds a codeword, so the
evaluation harness counts such covers instead of embedding. Insertion always
places every codeword, so the density experiment, which reads only token
counts, adds the codewords to the cover counts instead of inserting them.
"""

import math
import random
from collections import namedtuple
from collections.abc import Sequence

from .codebook import Codebook
from .corpus import MIN_COVER_TOKENS, Corpus
from .errors import SteganizeError
from .ngram import MAX_N, NGramModel, build_model

# Covers drawn per draw_cover call. 1000 draws all hold a codeword only when
# nearly every cover does (at 99% the chance is 0.99**1000, about 4e-5), and
# then the remedy is a rarer band, not more draws.
MAX_ATTEMPTS = 1000


class StegoResult(
    namedtuple("StegoResult", "stego cover inserted_positions attempts density")
):
    """One successful embedding.

    stego and cover are token tuples; inserted_positions are indexes into
    stego, strictly increasing; attempts counts covers drawn, including the
    accepted one; density is inserted codewords over total stego tokens.
    """

    __slots__ = ()

    def to_doc(self) -> dict:
        return {
            "stego": " ".join(self.stego),
            "cover": " ".join(self.cover),
            "inserted_positions": list(self.inserted_positions),
            "attempts": self.attempts,
            "density": self.density,
        }


def contains_codeword(tokens: Sequence[str], codebook: Codebook) -> bool:
    return any(token in codebook.inverse for token in tokens)


def draw_cover(
    covers: Corpus, codebook: Codebook | None, rng: random.Random
) -> tuple[int, tuple[str, ...]]:
    """Seeded uniform draws from covers.cover_pool, one rng.randrange each.

    Each drawn line is split into its tokens. Returns (attempt, cover
    tokens) for the first drawn cover that holds no codeword of `codebook`;
    with codebook=None the first draw is returned.
    Raises SteganizeError on an empty pool (after 0 attempts), or once
    MAX_ATTEMPTS covers have been drawn and every one held a codeword.
    """
    pool = covers.cover_pool
    if not pool:
        raise SteganizeError(0, f"no covers with >= {MIN_COVER_TOKENS} tokens")
    for attempt in range(1, MAX_ATTEMPTS + 1):
        cover = tuple(pool[rng.randrange(len(pool))].split())
        if codebook is None or not contains_codeword(cover, codebook):
            return attempt, cover
    raise SteganizeError(MAX_ATTEMPTS, "every drawn cover contained a codeword")


def insertion_score(
    model: NGramModel, tokens: Sequence[str], position: int, word: str
) -> float:
    """How well `word` fits between tokens[position-1] and tokens[position].

    Sums log(1 + count) over every n-gram of the modified sequence that
    covers the inserted word, for each order in model.counts (2 and up, in
    ascending order). Unigrams are skipped: they score the word, not the
    position. The model answers exactly for a word among its codewords
    whose neighbours lie among its words; anything else raises ValueError.
    """
    if word not in model.codewords:
        raise ValueError(f"model was not counted for the codeword {word!r}")
    if not 1 <= position <= len(tokens) - 1:
        raise ValueError(
            f"position {position} outside 1..{len(tokens) - 1}: "
            "insertions go between existing words"
        )
    # The grams that cover the slot read at most MAX_N - 1 words each side.
    neighbours = tokens[max(0, position - MAX_N + 1) : position + MAX_N - 1]
    if not model.words.issuperset(neighbours):
        raise ValueError(f"model was not counted for the words {list(neighbours)!r}")
    trial = list(tokens)
    trial.insert(position, word)
    score = 0.0
    for n, table in model.counts.items():
        first = max(0, position - n + 1)
        last = min(position, len(trial) - n)
        for i in range(first, last + 1):
            score += math.log1p(table.get(tuple(trial[i : i + n]), 0))
    return score


def insert_codewords(
    model: NGramModel, tokens: Sequence[str], words: Sequence[str]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Insert words left to right, each strictly after the previous one.

    Each word goes into the highest-scoring slot (insertion_score) to the
    right of the previous insertion; ties break toward the smallest index.
    Returns the modified token tuple and the final index of every inserted
    word. Indexes stay valid because later insertions always land to the
    right of earlier ones. Each insertion leaves a slot to its right, so
    ValueError ("no insertion slot") is raised only when `words` is not
    empty and `tokens` has fewer than 2 tokens.
    """
    out = list(tokens)
    positions = []
    first = 1
    for word in words:
        if first >= len(out):
            raise ValueError(f"no insertion slot at or after position {first}")
        best, best_score = first, -math.inf
        for position in range(first, len(out)):
            score = insertion_score(model, out, position, word)
            if score > best_score:
                best, best_score = position, score
        out.insert(best, word)
        positions.append(best)
        first = best + 1
    return tuple(out), tuple(positions)


def decode(tokens: Sequence[str], codebook: Codebook) -> tuple[str, ...]:
    """Extract the symbol sequence: one symbol per codeword token, in order."""
    return tuple(
        symbol
        for token in tokens
        if (symbol := codebook.inverse.get(token)) is not None
    )


def steganize(
    secret: Sequence[str],
    codebook: Codebook,
    covers: Corpus,
    seed: int,
) -> StegoResult:
    """Embed a secret into a randomly drawn cover message.

    Draws one cover with no codeword via draw_cover (seeded, uniform over
    covers.cover_pool), counts the model for that cover and the secret's
    codewords, then inserts the codeword for each secret symbol in order;
    an empty secret returns the cover unchanged. Raises SteganizeError when
    the pool is empty, all MAX_ATTEMPTS covers drawn hold a codeword, or the
    stego text does not decode to the secret.
    """
    symbols: tuple[str, ...] = tuple(secret)
    unknown = [s for s in symbols if s not in codebook.forward]
    if unknown:
        raise ValueError(f"secret symbols {unknown!r} are not in the alphabet")
    attempt, cover = draw_cover(covers, codebook, random.Random(seed))
    words = [codebook.forward[s] for s in symbols]
    model = build_model(covers, words, [cover])
    stego_tokens, positions = insert_codewords(model, cover, words)
    if decode(stego_tokens, codebook) != symbols:
        raise SteganizeError(attempt, "stego text does not decode to the secret")
    return StegoResult(
        stego=stego_tokens,
        cover=cover,
        inserted_positions=positions,
        attempts=attempt,
        density=len(positions) / len(stego_tokens),
    )
