"""Encoder and decoder for the insertion code.

The encoder hides a secret by inserting one codeword per symbol into a cover
message drawn from the corpus. Each codeword goes into the inter-word slot
whose newly created n-grams are most frequent in the model, scanning left to
right so the receiver recovers symbol order with a single pass. Every gram
it scores holds the inserted codeword, so a model counted only around the
codewords (build_model(corpus, around=codebook.inverse)) places them exactly
as the full model does. Decoding is a plain scan: every token that is a
codeword contributes its symbol.

Correct decoding therefore requires that the cover itself contains no
codewords, so steganize rejects such covers and re-draws, which also makes
the round trip exact by construction. Without that rejection an embed would
decode wrongly exactly when its cover holds a codeword, so the evaluation
harness counts such covers instead of embedding. Insertion always places
every codeword, so the density experiment, which reads only token counts,
adds the codewords to the cover counts instead of inserting them.
"""

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from .codebook import Codebook
from .corpus import MIN_COVER_TOKENS, Corpus
from .errors import SteganizeError
from .ngram import NGramModel

DEFAULT_MAX_ATTEMPTS = 1000

Secret = tuple[str, ...]


@dataclass(frozen=True)
class StegoResult:
    """One successful embedding.

    stego and cover are token tuples; inserted_positions are indexes into
    stego, strictly increasing; attempts counts covers drawn, including the
    accepted one; density is inserted codewords over total stego tokens.
    """

    stego: tuple[str, ...]
    cover: tuple[str, ...]
    inserted_positions: tuple[int, ...]
    attempts: int
    density: float

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


def draw_covers(
    covers: Corpus,
    codebook: Codebook | None,
    rng: random.Random,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Seeded uniform draws from covers.cover_pool, one rng.randrange each.

    Yields (attempt, cover) for every drawn cover that holds no codeword of
    `codebook`; with codebook=None every draw is yielded. Draws happen only
    as the caller asks for the next cover, so a caller that stops early
    leaves the rng exactly where its last cover left it. Raises
    SteganizeError at the first draw from an empty pool (after 0 attempts),
    or once max_attempts covers have been drawn.
    """
    pool = covers.cover_pool
    if not pool:
        raise SteganizeError(0, f"no covers with >= {MIN_COVER_TOKENS} tokens")
    for attempt in range(1, max_attempts + 1):
        cover = pool[rng.randrange(len(pool))]
        if codebook is None or not contains_codeword(cover, codebook):
            yield attempt, cover
    raise SteganizeError(max_attempts, "every drawn cover contained a codeword")


def insertion_score(
    model: NGramModel, tokens: Sequence[str], position: int, word: str
) -> float:
    """How well `word` fits between tokens[position-1] and tokens[position].

    Sums log(1 + count) over every n-gram of the modified sequence that
    covers the inserted word, for each order in model.counts (2 and up, in
    ascending order). Unigrams are skipped: they score the word, not the
    position. Every gram scored holds `word`, so a model counted around the
    codewords answers exactly; for a `word` outside its `around` set this
    raises ValueError.
    """
    if model.around is not None and word not in model.around:
        raise ValueError(f"model was not counted around {word!r}")
    if not 1 <= position <= len(tokens) - 1:
        raise ValueError(
            f"position {position} outside 1..{len(tokens) - 1}: "
            "insertions go between existing words"
        )
    trial = list(tokens)
    trial.insert(position, word)
    score = 0.0
    for n, table in model.counts.items():
        first = max(0, position - n + 1)
        last = min(position, len(trial) - n)
        for i in range(first, last + 1):
            score += math.log1p(table.get(tuple(trial[i : i + n]), 0))
    return score


def best_position(
    model: NGramModel, tokens: Sequence[str], word: str, min_position: int = 1
) -> int:
    """Highest-scoring insertion slot at or after min_position.

    Ties break toward the smallest index. Raises ValueError when no slot
    exists at or after min_position.
    """
    first = max(min_position, 1)
    last = len(tokens) - 1
    if first > last:
        raise ValueError(f"no insertion slot at or after position {min_position}")
    best = first
    best_score = -math.inf
    for position in range(first, last + 1):
        score = insertion_score(model, tokens, position, word)
        if score > best_score:
            best, best_score = position, score
    return best


def insert_codewords(
    model: NGramModel, tokens: Sequence[str], words: Sequence[str]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Insert words left to right, each strictly after the previous one.

    Returns the modified token tuple and the final index of every inserted
    word. Indexes stay valid because later insertions always land to the
    right of earlier ones.
    """
    out = list(tokens)
    positions = []
    min_position = 1
    for word in words:
        position = best_position(model, out, word, min_position)
        out.insert(position, word)
        positions.append(position)
        min_position = position + 1
    return tuple(out), tuple(positions)


def decode(tokens: Sequence[str], codebook: Codebook) -> Secret:
    """Extract the symbol sequence: one symbol per codeword token, in order."""
    return tuple(
        symbol
        for token in tokens
        if (symbol := codebook.unmap_word(token)) is not None
    )


def steganize(
    secret: Sequence[str],
    codebook: Codebook,
    model: NGramModel,
    covers: Corpus,
    seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> StegoResult:
    """Embed a secret into a randomly drawn cover message.

    Draws uniformly (seeded) from covers.cover_pool via draw_covers, then
    inserts the codeword for each secret symbol in order. An empty secret
    returns the cover unchanged. Covers already containing codewords are
    rejected, and the round trip is checked before returning. Raises
    SteganizeError when the pool is empty or the attempt budget runs out.
    """
    symbols: Secret = tuple(secret)
    unknown = [s for s in symbols if s not in codebook.forward]
    if unknown:
        raise ValueError(f"secret symbols {unknown!r} are not in the alphabet")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    words = [codebook.forward[s] for s in symbols]
    draws = draw_covers(covers, codebook, random.Random(seed), max_attempts)
    for attempt, cover in draws:
        stego_tokens, positions = insert_codewords(model, cover, words)
        if decode(stego_tokens, codebook) != symbols:
            continue
        return StegoResult(
            stego=stego_tokens,
            cover=cover,
            inserted_positions=positions,
            attempts=attempt,
            density=len(positions) / len(stego_tokens),
        )
