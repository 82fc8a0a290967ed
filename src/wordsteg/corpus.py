"""Corpus ingestion: scrub raw messages, tokenize, index the vocabulary.

Raw records are one message per line (UTF-8). Scrubbing lowercases and
removes the token classes that cannot occur in spoken language, then strips
punctuation from whatever remains. Misspellings and other quirks are kept
as-is; they are part of the cover signal.

A corpus is scrubbed in blocks of about a thousand lines: each block is one
string that is lowercased, cleared of dropped tokens by regex passes that
each begin with a literal, stripped of punctuation by one translate, then
split back into lines. The rule is the one scrub_message applies to a
single line. The word counts are computed on first access, so a verb that
never reads them (encode) never pays for them.
"""

import re
from collections import Counter
from functools import cached_property
from itertools import chain, islice
from typing import Iterable
import unicodedata

from .errors import EmptyCorpusError

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

# Each drop pattern begins with a literal, so re skips from one occurrence of
# it to the next in C instead of trying a match at every character of the
# text; the lookbehind placed after the literal then checks that the literal
# starts a whitespace-delimited token, and \S* takes the rest of the token.
# re's \s and str.split agree on what whitespace is.
_DROP_STARTS = tuple(
    re.compile(pattern)
    for pattern in (r"@(?<!\S@)\S*", r"#(?<!\S#)\S*", r"www\.(?<!\Swww\.)\S*")
)

# A token that contains "://" anywhere is dropped in two passes, since no
# pattern that begins with "://" can reach back to the token's start.
# _URL_TAIL cuts each such token after its first "://", which stays behind
# as a sentinel: it is now the last three characters of exactly the tokens
# to drop. On the reversed text each sentinel reads "//:" at the start of its
# token, so _URL_HEAD deletes the token through to its original start, and a
# second reversal restores the order. A token without "://" holds no "//:"
# once reversed, so the head pass touches nothing else. Text without "://"
# skips both passes and both reversals.
_URL_TAIL = re.compile(r"://\S*")
_URL_HEAD = re.compile(r"//:\S*")

# Lines scrubbed per block by Corpus.from_lines. Large enough that the
# per-call overhead vanishes, small enough that the block's copies of the
# text stay a small share of the corpus's memory.
_CHUNK_LINES = 1024


def _scrub_text(text: str) -> str:
    """Lowercase, delete dropped tokens, then delete punctuation.

    Whitespace, line breaks included, passes through untouched, so the
    result splits into the same lines as `text`.
    """
    text = text.lower()
    for pattern in _DROP_STARTS:
        text = pattern.sub("", text)
    if "://" in text:
        text = _URL_HEAD.sub("", _URL_TAIL.sub("://", text)[::-1])[::-1]
    return text.translate(_PUNCTUATION)


def scrub_message(raw: str) -> str:
    """Normalize one raw message into clean lowercase words.

    Whole tokens are dropped when they are @usernames, #hashtags, or URLs
    (contain "://" or start with "www."). Punctuation characters are stripped
    from the surviving tokens; digits stay, and a token left with nothing is
    gone. Applying scrub_message to its own output is a no-op.
    """
    return " ".join(_scrub_text(raw).split())


class Corpus:
    """Immutable collection of scrubbed messages with vocabulary counts.

    Each message is a non-empty tuple of tokens. vocabulary, total_tokens
    and cover_pool are computed on first access and then kept.
    """

    def __init__(self, messages: Iterable[tuple[str, ...]]):
        self.messages: tuple[tuple[str, ...], ...] = tuple(messages)
        if not self.messages:
            raise EmptyCorpusError("corpus contains no usable messages")

    def __len__(self) -> int:
        return len(self.messages)

    @cached_property
    def vocabulary(self) -> Counter[str]:
        """Count of every word, in order of first occurrence."""
        return Counter(chain.from_iterable(self.messages))

    @cached_property
    def total_tokens(self) -> int:
        """Number of tokens over all messages; vocabulary's total."""
        return sum(map(len, self.messages))

    @cached_property
    def cover_pool(self) -> tuple[tuple[str, ...], ...]:
        """Messages long enough to serve as covers, computed on first use.

        () when no message qualifies; codec.draw_cover raises on that.
        """
        return tuple(m for m in self.messages if len(m) >= MIN_COVER_TOKENS)

    @classmethod
    def from_lines(cls, lines: Iterable[str], limit: int | None = None) -> "Corpus":
        """Scrub and tokenize raw lines, skipping any that scrub to nothing.

        Each line is scrubbed as scrub_message would scrub it, so a line
        break inside one counts as a space. limit caps the number of usable
        messages kept, not the number of lines read; it must be at least 1.
        Lines are read _CHUNK_LINES at a time, and reading stops after the
        block that reaches the limit.
        """
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1")
        messages: list[tuple[str, ...]] = []
        lines = iter(lines)
        while chunk := list(islice(lines, _CHUNK_LINES)):
            text = _scrub_text("\n".join(line.replace("\n", " ") for line in chunk))
            for line in text.split("\n"):
                tokens = line.split()
                if tokens:
                    messages.append(tuple(tokens))
            if limit is not None and len(messages) >= limit:
                del messages[limit:]
                break
        return cls(messages)


def load_corpus(path, limit: int | None = None) -> Corpus:
    """Read a line-delimited text file into a Corpus. I/O errors propagate."""
    with open(path, encoding="utf-8") as handle:
        return Corpus.from_lines(handle, limit=limit)
