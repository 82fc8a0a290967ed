"""Corpus ingestion: scrub raw messages, keep them as lines, count the words.

Raw records are one message per line (UTF-8). Scrubbing lowercases and
removes the token classes that cannot occur in spoken language, then strips
punctuation from whatever remains. Misspellings and other quirks are kept
as-is; they are part of the cover signal.

A corpus file is read and scrubbed about 64K characters at a time, each
read cut at its last line break, with no Python code run per line;
Corpus.from_lines scrubs its lines in blocks of about a thousand. Each read
or block is one string that is lowercased, cleared of dropped tokens by
regex passes that each begin with a literal, stripped of punctuation, then
split back into lines. ASCII text loses its punctuation in one str.translate;
other text, which would send translate through a mapping lookup per
character, loses its few distinct marks by passes over its UTF-8 bytes and
str.replace (_delete_punctuation). The rule is the one scrub_message applies
to a single line. A corpus keeps each usable line as one string, with the
whitespace the scrub leaves in it (a dropped @mention leaves its
spaces behind), and never holds a token object of its own: each reader
splits only the lines it reads, and str.split discards that whitespace. The
word counts are computed on first access, so a verb that never reads them
(encode) never pays for them.

The lines that may hold a given word are found by str.find over each block
of lines, one hit per line, and what was found for each word is kept on the
corpus: a word is searched for at most once per corpus, however many calls
ask for it.
"""

import re
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import accumulate, chain, compress, islice
import unicodedata

from .errors import EmptyCorpusError

# A cover must offer at least two inter-word slots before any insertion.
MIN_COVER_TOKENS = 3


class _PunctuationTable(dict):
    """Which code points are Unicode punctuation (category P*): code -> None
    for a mark, code -> code for any other character.

    It is the str.translate table for ASCII text and for text with too many
    distinct marks to delete one at a time, and the lookup that picks out the
    marks of any other text. Filled one code point at a time, on first sight,
    so no call pays for a table over all of Unicode; it holds one entry per
    distinct code point the process has scrubbed.
    """

    def __missing__(self, code: int) -> int | None:
        kept = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = kept
        return kept


_PUNCTUATION = _PunctuationTable()

# The ASCII characters of category P*, written out so that importing the
# module looks up no character's category; a test derives them again.
_ASCII_MARKS = b'!"#%&\'()*,-./:;?@[\\]_{}'
_ASCII = bytes(range(128))

# Most distinct non-ASCII marks one text may hold and still have each deleted
# by a str.replace pass of its own; a text with more goes through translate.
# On a 64K-character read with a mark after every word, translate took
# 5-6 ms whatever the marks, and the replace passes about 0.12 ms each, so
# they stopped paying at about 40 marks.
MAX_REPLACED_MARKS = 32

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

# Lines per block, for the scrub and the word search here and for both counts
# in ngram. Large enough that the per-call overhead vanishes, small enough
# that a block's copies of its text stay a small share of the corpus's memory.
BLOCK_LINES = 1024

# Characters per read of a corpus file: about one block of typical messages,
# for the same reasons. Larger reads raise the peak memory of a load.
READ_CHARS = 1 << 16


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
    return _delete_punctuation(text)


def _delete_punctuation(text: str) -> str:
    """text without its Unicode punctuation (category P*).

    str.translate has a fast path for ASCII text only; one non-ASCII
    character sends every character of the text through a Python mapping
    lookup. So other text is encoded to UTF-8, where every byte of a
    non-ASCII character is at least 0x80: deleting the ASCII bytes leaves
    exactly the non-ASCII characters, whose distinct marks are each looked
    up once. The ASCII marks go in one bytes.translate and each non-ASCII
    mark in one str.replace. Lone surrogates pass through "surrogatepass"
    unchanged.
    """
    if text.isascii():
        return text.translate(_PUNCTUATION)
    data = text.encode("utf-8", "surrogatepass")
    wide = set(data.translate(None, _ASCII).decode("utf-8", "surrogatepass"))
    marks = [char for char in wide if _PUNCTUATION[ord(char)] is None]
    if len(marks) > MAX_REPLACED_MARKS:
        return text.translate(_PUNCTUATION)
    text = data.translate(None, _ASCII_MARKS).decode("utf-8", "surrogatepass")
    for mark in marks:
        text = text.replace(mark, "")
    return text


def scrub_message(raw: str) -> str:
    """Normalize one raw message into clean lowercase words.

    Whole tokens are dropped when they are @usernames, #hashtags, or URLs
    (contain "://" or start with "www."). Punctuation characters are stripped
    from the surviving tokens; digits stay, and a token left with nothing is
    gone. Applying scrub_message to its own output is a no-op.
    """
    return " ".join(_scrub_text(raw).split())


def _find_lines(
    lines: tuple[str, ...], words: Iterable[str]
) -> dict[str, tuple[array, int]]:
    """Where each word occurs as a substring: word -> (indexes, tail).

    Every line from index tail on is taken; indexes are the lines before it
    that hold the word. tail is the start of the first block of BLOCK_LINES
    lines in which more than half the lines hold the word, or len(lines)
    when there is none. A line taken that does not hold the word costs its
    reader about one split, about what a hit costs the search, so past such
    a block taking every line is the cheaper guess.

    Each block is concatenated and searched with str.find. A hit that runs
    past the end of its line spans two lines and is skipped; after a hit
    inside a line the search resumes at the start of the next line, so the
    Python work per word is bounded by the lines that hold it, not by its
    occurrences. Raises ValueError for the empty word.
    """
    found = {}
    for word in words:
        if not word:
            raise ValueError("cannot search the lines for the empty word")
        found[word] = (array("I"), len(lines))
    for first in range(0, len(lines), BLOCK_LINES):
        searched = [word for word, (_, tail) in found.items() if tail > first]
        if not searched:
            break
        block = lines[first : first + BLOCK_LINES]
        text = "".join(block)
        # ends[i] is where line i of the block ends in text.
        ends = list(accumulate(map(len, block)))
        for word in searched:
            hits = found[word][0]
            before = len(hits)
            half = before + len(block) // 2
            at = text.find(word)
            while at >= 0:
                i = bisect_right(ends, at)
                if at + len(word) > ends[i]:
                    at = text.find(word, at + 1)
                    continue
                hits.append(first + i)
                if len(hits) > half:
                    del hits[before:]
                    found[word] = (hits, first)
                    break
                at = text.find(word, ends[i])
    return found


class Corpus:
    """Immutable collection of scrubbed messages with vocabulary counts.

    lines holds each message as one scrubbed line with at least one token;
    line.split() gives its tokens. vocabulary and cover_pool are computed on
    first access and then kept, and so are the lines that containing finds
    for each word.
    """

    def __init__(self, lines: Iterable[str]):
        self.lines: tuple[str, ...] = tuple(lines)
        if not self.lines:
            raise EmptyCorpusError("corpus contains no usable messages")
        # word -> where it may occur, as _find_lines gives it.
        self._holding: dict[str, tuple[array, int]] = {}

    def __len__(self) -> int:
        return len(self.lines)

    @cached_property
    def vocabulary(self) -> Counter[str]:
        """The one count of every word, in order of first occurrence."""
        return Counter(chain.from_iterable(map(str.split, self.lines)))

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

    def containing(self, words: Iterable[str]) -> Iterator[str]:
        """The lines in which any of `words` may occur, in corpus order.

        For each word these are the lines in which it occurs as a substring,
        so every line that holds it as a token, up to the first block in
        which more than half the lines hold it; from that block on, every
        line (_find_lines). A word is searched for only on its first
        request; what was found is kept, so a repeated request reads no line
        but to yield the result. The lines are yielded from self.lines, not
        copied. Raises ValueError for the empty word.
        """
        words = set(words)
        if new := words.difference(self._holding):
            self._holding.update(_find_lines(self.lines, new))
        mask = bytearray(len(self.lines))
        for word in words:
            indexes, tail = self._holding[word]
            mask[tail:] = b"\x01" * (len(mask) - tail)
            for i in indexes:
                mask[i] = 1
        return compress(self.lines, mask)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Corpus":
        """Scrub raw lines, skipping any that scrub to nothing.

        Each element is one message, scrubbed as scrub_message would scrub
        it, so a line break inside one counts as a space. Elements are
        scrubbed BLOCK_LINES at a time.
        """
        kept: list[str] = []
        lines = iter(lines)
        while block := list(islice(lines, BLOCK_LINES)):
            kept.extend(_usable_lines("\n".join(line.replace("\n", " ") for line in block)))
        return cls(kept)


def _usable_lines(text: str) -> Iterator[str]:
    """Scrub text and yield its lines that hold a token.

    str.strip and str.split agree on what whitespace is, so a line that
    strips to nothing is one that splits into nothing.
    """
    return filter(str.strip, _scrub_text(text).split("\n"))


def load_corpus(path) -> Corpus:
    """Read a line-delimited UTF-8 file, minus any leading byte-order mark,
    into a Corpus. I/O errors propagate.

    The file is read READ_CHARS characters at a time, with universal
    newlines. Each read is cut at its last line break; the lines before
    the cut are scrubbed as one text, and the rest of the read is kept, in
    pieces, until a line break ends it, so a line longer than many reads is
    joined once.
    """
    kept: list[str] = []
    pending: list[str] = []
    with open(path, encoding="utf-8-sig") as handle:
        while chunk := handle.read(READ_CHARS):
            cut = chunk.rfind("\n")
            if cut < 0:
                pending.append(chunk)
                continue
            pending.append(chunk[:cut])
            kept.extend(_usable_lines("".join(pending)))
            pending = [chunk[cut + 1 :]]
    kept.extend(_usable_lines("".join(pending)))
    return Corpus(kept)
