"""Deterministic synthetic chatter for tests.

Real short-message corpora are large and privately licensed, so the tests
run on generated ones: seeded Zipf-weighted draws over a synthetic
vocabulary. The default parameters give every frequency band the suite
cares about (4-6, 6-8, 8-12, 14+) hundreds of member words, which keeps
codebook selection and the band/density experiments far from degenerate.

synth_lines draws every word independently, so its bigram counts are just
products of unigram frequencies. markov_lines chains words through seeded
successor lists over the same vocabulary, so its bigrams carry structure of
their own.
"""

import hashlib
import itertools
import random

DESK_SEED = 20240817
DESK_MESSAGES = 10_000
# markov_lines: successor-list length, and the chance of following the list.
SUCCESSORS = 40
FOLLOW = 0.7


def _zipf_vocabulary(vocab_size: int, zipf_exponent: float):
    words = [f"w{i:04d}" for i in range(vocab_size)]
    weights = [1.0 / (rank ** zipf_exponent) for rank in range(1, vocab_size + 1)]
    return words, list(itertools.accumulate(weights))


def synth_lines(
    n_messages: int = DESK_MESSAGES,
    seed: int = DESK_SEED,
    vocab_size: int = 6000,
    zipf_exponent: float = 1.15,
    min_len: int = 6,
    max_len: int = 18,
) -> list[str]:
    """Generate line-delimited messages, already in scrubbed form."""
    rng = random.Random(seed)
    words, cumulative = _zipf_vocabulary(vocab_size, zipf_exponent)
    return [
        " ".join(
            rng.choices(words, cum_weights=cumulative, k=rng.randint(min_len, max_len))
        )
        for _ in range(n_messages)
    ]


def markov_lines(
    n_messages: int = DESK_MESSAGES,
    seed: int = DESK_SEED,
    vocab_size: int = 6000,
    zipf_exponent: float = 1.15,
    min_len: int = 6,
    max_len: int = 18,
) -> list[str]:
    """Order-1 Markov messages over synth_lines' vocabulary, in scrubbed form.

    Each word has a list of SUCCESSORS Zipf-drawn words, drawn from its own
    rng seeded by sha256 over (seed, word), never by hash(), so the lists do
    not depend on PYTHONHASHSEED. A message starts with a Zipf draw; each next
    word is, with probability FOLLOW, a uniform pick from the previous word's
    list, and otherwise a fresh Zipf draw.
    """
    rng = random.Random(seed)
    words, cumulative = _zipf_vocabulary(vocab_size, zipf_exponent)
    lists: dict[str, list[str]] = {}

    def successors_of(word: str) -> list[str]:
        if word not in lists:
            digest = hashlib.sha256(f"{seed}:{word}".encode("utf-8")).digest()
            word_rng = random.Random(int.from_bytes(digest[:8], "big"))
            lists[word] = word_rng.choices(words, cum_weights=cumulative, k=SUCCESSORS)
        return lists[word]

    def zipf_draw() -> str:
        return rng.choices(words, cum_weights=cumulative)[0]

    lines = []
    for _ in range(n_messages):
        message = [zipf_draw()]
        for _ in range(rng.randint(min_len, max_len) - 1):
            if rng.random() < FOLLOW:
                message.append(rng.choice(successors_of(message[-1])))
            else:
                message.append(zipf_draw())
        lines.append(" ".join(message))
    return lines
