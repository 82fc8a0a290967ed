"""Corpus ingestion: scrub raw messages, keep them as lines, count the words.

Raw records are one message per line (UTF-8). Scrubbing lowercases and
removes the token classes that cannot occur in spoken language, then strips
punctuation from whatever remains. Misspellings and other quirks are kept
as-is; they are part of the cover signal.

A corpus is scrubbed in blocks of about a thousand lines: each block is one
string that is lowercased, cleared of dropped tokens by regex passes that
each begin with a literal, stripped of punctuation by one translate, then
split back into lines. The rule is the one scrub_message applies to a
single line. A corpus keeps each usable line as one string, with the
whitespace the scrub leaves in it (a dropped @mention leaves its spaces
behind), and never holds a token object of its own: each reader splits
only the lines it reads, and str.split discards that whitespace. The word
counts are computed on first access, so a verb that never reads them
(encode) never pays for them.
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

    lines holds each message as one scrubbed line with at least one token;
    line.split() gives its tokens. vocabulary, total_tokens and cover_pool
    are computed on first access and then kept.
    """

    def __init__(self, lines: Iterable[str]):
        self.lines: tuple[str, ...] = tuple(lines)
        if not self.lines:
            raise EmptyCorpusError("corpus contains no usable messages")

    def __len__(self) -> int:
        return len(self.lines)

    @cached_property
    def vocabulary(self) -> Counter[str]:
        """Count of every word, in order of first occurrence."""
        return Counter(chain.from_iterable(map(str.split, self.lines)))

    @cached_property
    def total_tokens(self) -> int:
        """Number of tokens over all messages; vocabulary's total."""
        return self.vocabulary.total()

    @cached_property
    def cover_pool(self) -> tuple[str, ...]:
        """Lines long enough to serve as covers, computed on first use.

        () when no line qualifies; codec.draw_cover raises on that. A split
        capped at MIN_COVER_TOKENS parts counts just far enough.
        """
        return tuple(
            line
            for line in self.lines
            if len(line.split(None, MIN_COVER_TOKENS - 1)) == MIN_COVER_TOKENS
        )

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Corpus":
        """Scrub raw lines, skipping any that scrub to nothing.

        Each line is scrubbed as scrub_message would scrub it, so a line
        break inside one counts as a space. Lines are read _CHUNK_LINES at a
        time.
        """
        kept: list[str] = []
        lines = iter(lines)
        while chunk := list(islice(lines, _CHUNK_LINES)):
            text = _scrub_text("\n".join(line.replace("\n", " ") for line in chunk))
            # str.isspace and str.split agree on what whitespace is.
            kept.extend(line for line in text.split("\n") if line and not line.isspace())
        return cls(kept)


def load_corpus(path) -> Corpus:
    """Read a line-delimited text file into a Corpus. I/O errors propagate."""
    with open(path, encoding="utf-8") as handle:
        return Corpus.from_lines(handle)
