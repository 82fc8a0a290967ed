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
split back into lines. ASCII text does all of this as str and loses its
punctuation in one str.translate. str.lower, str.replace and str.translate
are slow on other text, so it is encoded to UTF-8 once; when no non-ASCII
character of it is whitespace or changes case, and it holds none of the
ASCII separators \x1c-\x1f, the whole scrub runs on the bytes, with the
same patterns compiled as bytes, and when all its non-ASCII characters are
marks one bytes.translate deletes them with the ASCII marks. Other non-ASCII
text is lowercased and cleared as str (_scrub_text); either way its few
distinct marks leave by passes over its UTF-8 bytes and str.replace
(_delete_marks). The rule is the one scrub_message applies to a single
line. A corpus keeps each usable line as one string, with the
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
# What one bytes.translate deletes from UTF-8 text whose non-ASCII characters
# are all marks: the ASCII marks and every byte of a non-ASCII character.
_ASCII_MARKS_AND_WIDE = _ASCII_MARKS + bytes(range(128, 256))
# The ASCII characters that str.split and re's str \s take for whitespace
# and bytes.split and re's bytes \s do not.
_STR_ONLY_SPACES = b"\x1c\x1d\x1e\x1f"

# Most distinct non-ASCII marks one text may hold and still have each deleted
# by a str.replace pass of its own; a text with more goes through translate.
# On a 64K-character read with a mark after every word, translate took
# 5-6 ms whatever the marks, and the replace passes about 0.12 ms each, so
# they stopped paying at about 40 marks.
MAX_REPLACED_MARKS = 32

# The drop rules, each compiled twice below: for str text and for its UTF-8
# bytes. The first three drop a whole token that starts with "@", "#" or
# "www.". Each begins with a literal, so re skips from one occurrence of it
# to the next in C instead of trying a match at every character of the text;
# the lookbehind placed after the literal then checks that the literal starts
# a whitespace-delimited token, and \S* takes the rest of the token. re's \s
# and str.split agree on what whitespace is, and so do re's bytes \s and
# bytes.split.
#
# The last two drop a token that contains "://" anywhere, since no pattern
# that begins with "://" can reach back to the token's start. The URL tail
# cuts each such token after its first "://", which stays behind as a
# sentinel: it is now the last three characters of exactly the tokens to
# drop. On the reversed text each sentinel reads "//:" at the start of its
# token, so the URL head deletes the token through to its original start,
# and a second reversal restores the order. A token without "://" holds no
# "//:" once reversed, so the head pass touches nothing else. Text without
# "://" skips both passes and both reversals.
_DROP_RULES = (
    r"@(?<!\S@)\S*", r"#(?<!\S#)\S*", r"www\.(?<!\Swww\.)\S*", r"://\S*", r"//:\S*"
)
_STR_DROPS = tuple(re.compile(rule) for rule in _DROP_RULES)
_BYTE_DROPS = tuple(re.compile(rule.encode()) for rule in _DROP_RULES)

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

    ASCII text is scrubbed as str and loses its punctuation in one
    str.translate. str.lower, str.replace and str.translate take a slow path
    on other text, so it is encoded to UTF-8 once and scrubbed as bytes when
    that gives the same result (_scrubs_as_bytes): bytes.lower, the drop
    patterns compiled as bytes, then _delete_marks. Any other text is
    lowercased and cleared of dropped tokens as str, then encoded again for
    _delete_marks.
    """
    if text.isascii():
        return _drop_tokens(text.lower(), _STR_DROPS).translate(_PUNCTUATION)
    data = text.encode("utf-8", "surrogatepass")
    wide = _wide_chars(data)
    if _scrubs_as_bytes(data, wide):
        return _delete_marks(_drop_tokens(data.lower(), _BYTE_DROPS), wide)
    text = _drop_tokens(text.lower(), _STR_DROPS)
    # str.lower changes no mark and makes none, so wide still holds every mark
    # of the lowercased text, and a character that is no mark if it holds one.
    return _delete_marks(text.encode("utf-8", "surrogatepass"), wide)


def _wide_chars(data: bytes) -> set[str]:
    """The distinct non-ASCII characters of UTF-8 `data`.

    Every byte of a non-ASCII character is at least 0x80, so deleting the
    ASCII bytes leaves exactly those characters. Lone surrogates pass
    through "surrogatepass" unchanged.
    """
    return set(data.translate(None, _ASCII).decode("utf-8", "surrogatepass"))


def _scrubs_as_bytes(data: bytes, wide: set[str]) -> bool:
    """Whether the UTF-8 `data`, whose non-ASCII characters are `wide`,
    scrubs as bytes to what its text scrubs to as str.

    bytes.lower changes only ASCII letters, and the bytes patterns split
    tokens only at ASCII whitespace other than \x1c-\x1f. So no non-ASCII
    character may change under str.lower (a capital letter, a final sigma)
    or be whitespace, and data may hold none of \x1c-\x1f. A character
    that is not ASCII whitespace is all non-whitespace bytes, so the bytes
    patterns then start, end and delete tokens where the str patterns do.
    """
    joined = "".join(wide)
    return (
        joined.lower() == joined
        and not any(map(str.isspace, wide))
        and not any(space in data for space in _STR_ONLY_SPACES)
    )


def _drop_tokens(text, drops):
    """text without its dropped tokens: str text with _STR_DROPS, or UTF-8
    bytes with _BYTE_DROPS."""
    *starts, url_tail, url_head = drops
    empty, sentinel = text[:0], url_tail.pattern[:3]
    for pattern in starts:
        text = pattern.sub(empty, text)
    if sentinel in text:
        text = url_head.sub(empty, url_tail.sub(sentinel, text)[::-1])[::-1]
    return text


def _delete_marks(data: bytes, wide: set[str]) -> str:
    """The UTF-8 `data` decoded, without its Unicode punctuation (category P*).

    wide holds every non-ASCII mark of data and, if data holds a non-ASCII
    character that is no mark, at least one character that is no mark; it
    may hold more. Only its marks are looked up, each once. When all of wide
    are marks, one bytes.translate deletes them with the ASCII marks and
    leaves ASCII. Otherwise the ASCII marks go in one bytes.translate and
    each non-ASCII mark in one str.replace, or all of them in one
    str.translate when there are more than MAX_REPLACED_MARKS.
    """
    marks = [char for char in wide if _PUNCTUATION[ord(char)] is None]
    if len(marks) == len(wide):
        return data.translate(None, _ASCII_MARKS_AND_WIDE).decode("ascii")
    text = data.translate(None, _ASCII_MARKS).decode("utf-8", "surrogatepass")
    if len(marks) > MAX_REPLACED_MARKS:
        return text.translate(_PUNCTUATION)
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
