"""Corpus ingestion: scrub raw messages, tokenize, index the vocabulary.

Raw records are one message per line (UTF-8). Scrubbing lowercases and
removes the token classes that cannot occur in spoken language, then strips
punctuation from whatever remains. Misspellings and other quirks are kept
as-is; they are part of the cover signal.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable
import unicodedata

from .errors import EmptyCorpusError, SteganizeError

# A cover must offer at least two inter-word slots before any insertion.
MIN_COVER_TOKENS = 3


class _PunctuationTable(dict):
    """str.translate table that deletes Unicode punctuation (category P*).

    Filled one code point at a time, on first sight, so no call pays for a
    table over all of Unicode; it holds one entry per distinct code point
    the process has scrubbed.
    """

    def __missing__(self, code: int) -> int | None:
        kept = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = kept
        return kept


_PUNCTUATION = _PunctuationTable()


def scrub_message(raw: str) -> str:
    """Normalize one raw message into clean lowercase words.

    Whole tokens are dropped when they are @usernames, #hashtags, or URLs
    (contain "://" or start with "www."). Punctuation characters are stripped
    from the surviving tokens; digits stay. Applying scrub_message to its own
    output is a no-op.
    """
    kept = []
    for token in raw.lower().split():
        if token.startswith("@") or token.startswith("#"):
            continue
        if "://" in token or token.startswith("www."):
            continue
        word = token.translate(_PUNCTUATION)
        if word:
            kept.append(word)
    return " ".join(kept)


def tokenize(text: str) -> list[str]:
    """Split scrubbed text on whitespace. No empty tokens, ever."""
    return text.split()


@dataclass(frozen=True, slots=True)
class Message:
    """One scrubbed message: a non-empty token tuple plus its source line."""

    tokens: tuple[str, ...]
    source_id: int


class Corpus:
    """Immutable collection of scrubbed messages with vocabulary counts."""

    def __init__(self, messages: Iterable[Message]):
        self.messages: tuple[Message, ...] = tuple(messages)
        if not self.messages:
            raise EmptyCorpusError("corpus contains no usable messages")
        vocabulary: Counter[str] = Counter()
        for message in self.messages:
            vocabulary.update(message.tokens)
        self.vocabulary = vocabulary
        self.total_tokens = vocabulary.total()

    def __len__(self) -> int:
        return len(self.messages)

    @cached_property
    def cover_pool(self) -> tuple[Message, ...]:
        """Messages long enough to serve as covers, computed on first use.

        Raises SteganizeError (after 0 attempts) when no message qualifies.
        """
        pool = tuple(m for m in self.messages if len(m.tokens) >= MIN_COVER_TOKENS)
        if not pool:
            raise SteganizeError(0, f"no covers with >= {MIN_COVER_TOKENS} tokens")
        return pool

    @classmethod
    def from_lines(cls, lines: Iterable[str], limit: int | None = None) -> "Corpus":
        """Scrub and tokenize raw lines, skipping any that scrub to nothing.

        source_id is the 1-based line number of the raw record. limit caps
        the number of usable messages kept, not the number of lines read;
        it must be at least 1.
        """
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1")
        messages = []
        for lineno, line in enumerate(lines, start=1):
            if limit is not None and len(messages) >= limit:
                break
            tokens = tokenize(scrub_message(line))
            if tokens:
                messages.append(Message(tuple(tokens), lineno))
        return cls(messages)


def load_corpus(path, limit: int | None = None) -> Corpus:
    """Read a line-delimited text file into a Corpus. I/O errors propagate."""
    with open(path, encoding="utf-8") as handle:
        return Corpus.from_lines(handle, limit=limit)
