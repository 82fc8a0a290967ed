"""Deterministic synthetic chatter for tests.

Real short-message corpora are large and privately licensed, so the tests
run on generated ones: seeded Zipf-weighted draws over a synthetic
vocabulary. The default parameters give every frequency band the suite
cares about (4-6, 6-8, 8-12, 14+) hundreds of member words, which keeps
codebook selection and the band/density experiments far from degenerate.

synth_lines draws every word independently, so its bigram counts are just
products of unigram frequencies. markov_lines chains words through seeded
successor lists over the same vocabulary, so its bigrams carry structure of
their own. raw_lines turns scrubbed lines back into raw chatter that the
scrubber has to repair, so a raw corpus and its clean twin can be checked
to give the same results.
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


# Unicode punctuation (category P) glued to words; the scrubber strips it.
OPENERS = "“«¿¡(\"'"
CLOSERS = "”»…—!?.,;:)\"'"
# Runs between tokens. The scrubber leaves them in the line, as it leaves the
# spaces around a token it drops; str.split discards them.
GAPS = (" ", " ", " ", "  ", "\t", " \t ", "   ", "\u3000")


def _dropped_token(rng: random.Random) -> str:
    """A token the scrubber drops whole: @mention, #hashtag, URL or lone punctuation."""
    n = rng.randrange(10_000)
    return rng.choice((
        f"@User_{n}", f"#Tag{n}", f"https://t.co/Ab{n}x", f"WWW.Site{n}.com/p?q={n}", "—", "¿?"
    ))


def raw_lines(clean_lines: list[str], seed: int) -> list[str]:
    """Raw chatter for scrubbed lines, plus about 2% lines of pure noise.

    Each clean line gets dropped tokens, case changes, glued punctuation and
    runs of tabs and spaces (leading and trailing too). Raises ValueError
    unless scrub_message maps every raw line back to its clean line, and
    every pure-noise line to "", so the raw corpus gives the same messages
    as the clean one.
    """
    # Imported here, so the generators above need no wordsteg on the path.
    from wordsteg.corpus import scrub_message

    rng = random.Random(seed)
    raw = []
    for clean in clean_lines:
        if rng.random() < 0.02:
            noise = " ".join(_dropped_token(rng) for _ in range(rng.randint(1, 3)))
            raw.append((noise, ""))
        parts = []
        for word in clean.split():
            if rng.random() < 0.15:
                parts.append(_dropped_token(rng))
            roll = rng.random()
            if roll < 0.1:
                word = word.upper()
            elif roll < 0.2:
                word = word.capitalize()
            if rng.random() < 0.1:
                word = rng.choice(OPENERS) + word
            if rng.random() < 0.15:
                word += rng.choice(CLOSERS)
            parts.append(word)
        if rng.random() < 0.2:
            parts.append(_dropped_token(rng))
        line = "".join(rng.choice(GAPS) + part for part in parts)
        if rng.random() < 0.7:
            line = line.lstrip()
        if rng.random() < 0.3:
            line += rng.choice(GAPS)
        raw.append((line, clean))
    for index, (line, expected) in enumerate(raw):
        if scrub_message(line) != expected:
            raise ValueError(
                f"raw line {index} scrubs to {scrub_message(line)!r}, expected {expected!r}"
            )
    return [line for line, _ in raw]
