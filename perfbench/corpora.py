"""Seeded input corpora for the benchmark workloads.

synth_lines is the generator of tests/synthcorpus.py, copied here so that the
benchmark's inputs stay fixed when the test helpers change. Its lines are
already in scrubbed form, so the scrubber does no real work on them;
noisy_lines turns them into raw chatter that it has to repair.
"""

import itertools
import random


def synth_lines(
    n_messages: int,
    seed: int,
    vocab_size: int = 6000,
    zipf_exponent: float = 1.15,
    min_len: int = 6,
    max_len: int = 18,
) -> list[str]:
    """Seeded Zipf-weighted messages over words w0000, w0001, ..."""
    rng = random.Random(seed)
    words = [f"w{i:04d}" for i in range(vocab_size)]
    weights = [1.0 / (rank ** zipf_exponent) for rank in range(1, vocab_size + 1)]
    cumulative = list(itertools.accumulate(weights))
    return [
        " ".join(
            rng.choices(words, cum_weights=cumulative, k=rng.randint(min_len, max_len))
        )
        for _ in range(n_messages)
    ]


# Unicode punctuation (category P) glued to words; the scrubber strips it.
OPENERS = "“«¿¡(\"'"
CLOSERS = "”»…—!?.,;:)\"'"
# Free-standing punctuation tokens; they scrub to nothing.
LONE = ["—", "…", "«»", "¿?", "!!"]


def _noise_token(rng: random.Random) -> str:
    """A token the scrubber drops whole: @mention, #hashtag, URL or lone punctuation."""
    n = rng.randrange(10_000)
    kind = rng.randrange(5)
    if kind == 0:
        return f"@User_{n}"
    if kind == 1:
        return f"#Tag{n}"
    if kind == 2:
        return f"https://t.co/Ab{n}x"
    if kind == 3:
        return f"www.Site{n}.com/p?q={n}"
    return rng.choice(LONE)


def add_noise(clean: str, rng: random.Random) -> str:
    """Raw form of a scrubbed line that scrub_message maps back to it."""
    out = []
    for word in clean.split():
        if rng.random() < 0.1:
            out.append(_noise_token(rng))
        roll = rng.random()
        if roll < 0.1:
            word = word.upper()
        elif roll < 0.2:
            word = word.capitalize()
        if rng.random() < 0.1:
            word = rng.choice(OPENERS) + word
        if rng.random() < 0.15:
            word += rng.choice(CLOSERS)
        out.append(word)
    if rng.random() < 0.2:
        out.append(_noise_token(rng))
    return " ".join(out)


def noisy_lines(clean_lines: list[str], seed: int, scrub) -> list[str]:
    """Raw lines for clean_lines, plus about 2% lines of pure noise.

    Raises ValueError unless scrub (the program's scrub_message) maps every
    raw line to its clean line, or a pure-noise line to "", so that the raw
    and clean corpora give the same messages and the same model.
    """
    rng = random.Random(seed)
    raw = []
    for clean in clean_lines:
        if rng.random() < 0.02:
            noise = " ".join(_noise_token(rng) for _ in range(rng.randint(1, 4)))
            raw.append((noise, ""))
        raw.append((add_noise(clean, rng), clean))
    for index, (line, expected) in enumerate(raw):
        if scrub(line) != expected:
            raise ValueError(
                f"raw line {index} scrubs to {scrub(line)!r}, expected {expected!r}"
            )
    return [line for line, _ in raw]
