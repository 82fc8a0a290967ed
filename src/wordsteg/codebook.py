"""The shared-secret codebook: a bijection from symbols to codewords.

A symbol is one character (check_alphabet), so an alphabet is a str.
Codewords are drawn from a band of unigram frequency, because how common a
codeword is drives the whole quality trade-off: rare codewords almost never
collide with cover text but stick out statistically, common ones blend in
but show up in covers by accident. The saved codebook file IS the shared
secret; it travels out of band, never on the cover channel.
"""

import json
import math
import random
from collections.abc import Mapping, Sequence

from .atomic import atomic_open, write_json
from .corpus import scrub_message
from .errors import CodebookValidationError, FormatError, InsufficientBandError

CODEBOOK_FORMAT_VERSION = 1
DIGITS = "0123456789"

# Inclusive occurrence-count band; hi=None means unbounded above.
Band = tuple[int, int | None]


def _band_in_order(lo: int, hi: int | None) -> bool:
    return lo >= 1 and (hi is None or hi >= lo)


def parse_band(text: str) -> Band:
    """Parse "4-6" into (4, 6) and "14+" into (14, None). Bounds inclusive."""
    s = text.strip()
    try:
        if s.endswith("+"):
            lo, hi = int(s[:-1]), None
        else:
            lo_text, sep, hi_text = s.partition("-")
            if not sep:
                raise ValueError
            lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"band must look like 'lo-hi' or 'lo+', got {text!r}") from None
    if lo < 1:
        raise ValueError(f"band lower bound must be at least 1, got {text!r}")
    if not _band_in_order(lo, hi):
        raise ValueError(f"band bounds out of order: {text!r}")
    return (lo, hi)


def format_band(band: Band) -> str:
    lo, hi = band
    return f"{lo}+" if hi is None else f"{lo}-{hi}"


def check_alphabet(alphabet: Sequence[str]) -> None:
    """Raise CodebookValidationError unless the alphabet holds at least one
    symbol, each exactly one character, and none twice; the CLI checks
    --alphabet with it before it reads a corpus."""
    if not alphabet:
        raise CodebookValidationError("alphabet is empty")
    for symbol in alphabet:
        if len(symbol) != 1:
            raise CodebookValidationError(f"symbol {symbol!r} is not one character")
    if len(set(alphabet)) != len(alphabet):
        raise CodebookValidationError("alphabet contains duplicate symbols")


def check_secret(secret: str, alphabet: str) -> None:
    """Raise ValueError naming every symbol of secret outside alphabet."""
    unknown = [s for s in secret if s not in alphabet]
    if unknown:
        raise ValueError(f"secret symbols {unknown!r} are not in the alphabet")


def _check_band_and_alphabet(band: Band, alphabet: Sequence[str]) -> None:
    """The invariants a codebook and its draw share; select_codebook checks
    them before it draws, so a bad alphabet is named before a thin band."""
    if not _band_in_order(*band):
        raise CodebookValidationError(f"invalid band {format_band(band)}")
    check_alphabet(alphabet)


class Codebook:
    """Bijective symbol-to-codeword map plus the provenance of its draw; an
    alphabet given as a sequence of one-character strings is kept joined."""

    def __init__(self, alphabet: Sequence[str], forward: dict[str, str], band: Band, seed: int):
        _check_band_and_alphabet(band, alphabet)
        if set(forward) != set(alphabet):
            raise CodebookValidationError("mapped symbols do not match the alphabet")
        self.inverse = {word: symbol for symbol, word in forward.items()}
        if len(self.inverse) != len(forward):
            raise CodebookValidationError("codewords are not distinct")
        for word in self.inverse:
            if not word or word.split() != [word]:
                raise CodebookValidationError(f"codeword {word!r} is not a single token")
            if scrub_message(word) != word:
                raise CodebookValidationError(
                    f"codeword {word!r} is not in scrubbed form, so decode never sees it"
                )
        self.alphabet, self.forward, self.band, self.seed = "".join(alphabet), forward, band, seed


def band_words(counts: Mapping[str, int], band: Band) -> list[str]:
    """Words whose count (e.g. in Corpus.vocabulary) lies inside the band, sorted."""
    lo, hi = band
    top = math.inf if hi is None else hi
    return sorted(w for w, c in counts.items() if lo <= c <= top)


def select_codebook(
    counts: Mapping[str, int],
    band: Band,
    alphabet: Sequence[str] = DIGITS,
    *,
    seed: int,
    words: Sequence[str] | None = None,
) -> Codebook:
    """Sample one codeword per symbol, uniformly without replacement.

    The draw is deterministic in (counts, band, alphabet, seed); the CLI
    passes Corpus.vocabulary as counts. seed has no default, because anyone
    who holds the corpus can redo a draw from a known seed. A caller that
    has already listed the band's words, band_words(counts, band), passes
    that list as words, and the band is not filtered again. Raises CodebookValidationError for
    a bad band or alphabet, InsufficientBandError when the band holds fewer
    words than the alphabet has symbols.
    """
    _check_band_and_alphabet(band, alphabet)
    candidates = band_words(counts, band) if words is None else words
    if len(candidates) < len(alphabet):
        raise InsufficientBandError(
            f"frequency band {format_band(band)} holds {len(candidates)} "
            f"candidate words, need {len(alphabet)}"
        )
    chosen = random.Random(seed).sample(candidates, len(alphabet))
    return Codebook(
        alphabet=alphabet,
        forward=dict(zip(alphabet, chosen)),
        band=tuple(band),
        seed=seed,
    )


def save_codebook(codebook: Codebook, path) -> None:
    doc = {
        "version": CODEBOOK_FORMAT_VERSION,
        "alphabet": list(codebook.alphabet),
        "forward": codebook.forward,
        "band": list(codebook.band),
        "seed": codebook.seed,
    }
    with atomic_open(path) as handle:
        write_json(handle, doc)


def load_codebook(path) -> Codebook:
    """Read a codebook written by save_codebook.

    Malformed files raise FormatError; files that parse but violate an
    invariant (a symbol that is not one character, duplicate or unscrubbed
    codewords, alphabet mismatch, a band out of order) raise
    CodebookValidationError.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and over-long integers;
            # RecursionError, nesting too deep to parse.
            raise FormatError(f"codebook file is not valid UTF-8 JSON: {exc}") from exc
    # Only the JSON types save_codebook writes. Integers are checked with
    # type(x) is int: true and 1.0 compare equal to 1, and bool passes
    # isinstance(x, int).
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != CODEBOOK_FORMAT_VERSION:
        raise FormatError("unsupported or missing codebook format version")
    alphabet, forward, band, seed = (
        doc.get(key) for key in ("alphabet", "forward", "band", "seed")
    )
    if not (isinstance(alphabet, list) and all(isinstance(s, str) for s in alphabet)):
        raise FormatError("codebook alphabet must be a list of strings")
    if not (isinstance(forward, dict) and all(isinstance(w, str) for w in forward.values())):
        raise FormatError("codebook forward must map strings to strings")
    if not (
        isinstance(band, list)
        and len(band) == 2
        and type(band[0]) is int
        and (band[1] is None or type(band[1]) is int)
    ):
        raise FormatError("codebook band must be [int, int or null]")
    if type(seed) is not int:
        raise FormatError("codebook seed must be an integer")
    return Codebook(alphabet, forward, tuple(band), seed)
