"""Corpus ingestion: scrub raw messages, keep them as texts, count the words.

Raw records are one message per line (UTF-8). Scrubbing lowercases and
removes the token classes that cannot occur in spoken language, then strips
punctuation from whatever remains. Misspellings and other quirks are kept
as-is; they are part of the cover signal.

Punctuation is what Unicode 14.0.0 puts in category P*, read from one
frozen table in this module (_PUNCTUATION) and never from the running
Python's unicodedata, whose Unicode version moves with the Python. A
receiver splits a stego text into the tokens the sender wrote only if both
scrub alike, so every Python scrubs by the same table.

load_corpus is the one reader of raw text; Corpus(texts) takes texts that
are already scrubbed. A corpus file is read READ_CHARS characters at a time,
and the reads are cut into texts of whole lines by the one rule every
Corpus follows (_cut), with no Python code run per line. Each text is one
string that is lowercased, cleared of dropped tokens by regex passes that
each begin with a literal and run only on a text that holds their trigger
character (clean text holds none, and a one-character `in` is a memchr
where the literal scan is not) and stripped of punctuation, by one of two
routes that give the same text:

- ASCII text is scrubbed as str and loses its punctuation in one
  str.translate.
- str.lower, str.replace and str.translate are slow on other text: one
  curly quote or dash sends every character of a text down a slow path.
  So other text is encoded to UTF-8 once, whose bytes below 0x80 are
  exactly its ASCII characters, its distinct non-ASCII characters are
  looked up once each, and the scrub runs on the bytes, with the same
  patterns compiled as bytes. bytes.lower changes only ASCII letters, so
  a text with a non-ASCII character that changes case is lowercased as
  str first (str.lower may make ASCII of it, and lowers a final sigma
  in context). The bytes patterns and bytes.split take neither non-ASCII
  whitespace nor the ASCII separators \x1c-\x1f for whitespace, so one
  lookup (_str_only_chars) finds both, and each becomes a space first. A
  line of such a text keeps a space where its raw text held one of them.

The marks then leave the UTF-8 bytes (_delete_marks): when every
non-ASCII character is a mark, one bytes.translate deletes them with the
ASCII marks; otherwise the ASCII marks go in one bytes.translate and each
distinct non-ASCII mark in one str.replace. The rule is the one
scrub_message applies to a single line, so each message is what
scrub_message makes of its line.

A corpus holds its lines as texts, whole lines joined by "\n", and holds no
line, and no token, as a string of its own. Whatever texts it is given, it
cuts their lines again by one rule: a text ends at the first line break at
or after READ_CHARS characters from its start, and the last text ends the
corpus. So its texts, and all that is read from them, depend on its lines
alone: any cut of the same lines is the same corpus. A line keeps the
whitespace the scrub leaves in it (a dropped @mention leaves its spaces
behind), and a line that scrubs to nothing stays in its text as a blank
line, which no reader takes for a message. The word count splits each text
once, and str.split discards that whitespace and the line breaks. The word
counts are computed on first access, so a verb that never reads them
(encode) never pays for them.

The cover pool is an index of the lines with at least MIN_COVER_TOKENS
tokens, so no verb holds the corpus text twice. Built on first use, it
counts each text's covers with one regex pass that stops only at the lines
with fewer tokens, and makes no string per line. CoverPool.draw, the one
cover draw, indexes the starts of a text's covers on the first draw into
it, and slices the drawn line out of its text.

The texts that may hold one of some words are found by str.find over each
text, one hit per line, each hit's line bounded by the line breaks around
it, and a text's hit lines are joined into one string; the search stops at
the first text in which more than half the lines hold one word, and takes
every text from there on as it is. Each call searches again and keeps
nothing on the corpus.
"""

import random
import re
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, partial
from itertools import accumulate, filterfalse

from .errors import EmptyCorpusError, SteganizeError

# A cover must offer at least two inter-word slots before any insertion.
MIN_COVER_TOKENS = 3
# Why no cover can be drawn from an empty pool, as every draw reports it.
NO_COVERS = f"no covers with >= {MIN_COVER_TOKENS} tokens"

# The line break before each line with fewer than MIN_COVER_TOKENS tokens.
# A line that holds that many fails the first lookahead, a fast path, when
# its first tokens are one space apart, and the second whatever whitespace,
# other than a line break, comes before and between them; re's str \s is
# str.split's whitespace, so a line's tokens are those line.split() gives.
# The pattern begins with a literal, so re skips from one line break to the
# next in C, and over "\n" + text it matches before the first line too.
# Each repeated class is followed by one it shares no character with, so a
# failed match backtracks little without possessive quantifiers, which
# Python 3.10 lacks.
_SHORT_LINE = re.compile(
    r"\n(?!%s\S)(?![^\S\n]*%s\S)"
    % (r"\S+ " * (MIN_COVER_TOKENS - 1), r"\S+[^\S\n]+" * (MIN_COVER_TOKENS - 1))
)


# Unicode 14.0.0's punctuation (category P*), the one definition of a mark
# (see the module docstring): 819 code points, as runs of hexadecimal code
# points, "first-last" or one code point alone. A test derives the table
# again wherever the running Python's unicodedata is Unicode 14.0.0.
_PUNCTUATION_RUNS = """
21-23 25-2a 2c-2f 3a-3b 3f-40 5b-5d 5f 7b 7d a1 a7 ab b6-b7 bb bf 37e 387
55a-55f 589-58a 5be 5c0 5c3 5c6 5f3-5f4 609-60a 60c-60d 61b 61d-61f 66a-66d
6d4 700-70d 7f7-7f9 830-83e 85e 964-965 970 9fd a76 af0 c77 c84 df4 e4f
e5a-e5b f04-f12 f14 f3a-f3d f85 fd0-fd4 fd9-fda 104a-104f 10fb 1360-1368
1400 166e 169b-169c 16eb-16ed 1735-1736 17d4-17d6 17d8-17da 1800-180a
1944-1945 1a1e-1a1f 1aa0-1aa6 1aa8-1aad 1b5a-1b60 1b7d-1b7e 1bfc-1bff
1c3b-1c3f 1c7e-1c7f 1cc0-1cc7 1cd3 2010-2027 2030-2043 2045-2051 2053-205e
207d-207e 208d-208e 2308-230b 2329-232a 2768-2775 27c5-27c6 27e6-27ef
2983-2998 29d8-29db 29fc-29fd 2cf9-2cfc 2cfe-2cff 2d70 2e00-2e2e 2e30-2e4f
2e52-2e5d 3001-3003 3008-3011 3014-301f 3030 303d 30a0 30fb a4fe-a4ff
a60d-a60f a673 a67e a6f2-a6f7 a874-a877 a8ce-a8cf a8f8-a8fa a8fc a92e-a92f
a95f a9c1-a9cd a9de-a9df aa5c-aa5f aade-aadf aaf0-aaf1 abeb fd3e-fd3f
fe10-fe19 fe30-fe52 fe54-fe61 fe63 fe68 fe6a-fe6b ff01-ff03 ff05-ff0a
ff0c-ff0f ff1a-ff1b ff1f-ff20 ff3b-ff3d ff3f ff5b ff5d ff5f-ff65 10100-10102
1039f 103d0 1056f 10857 1091f 1093f 10a50-10a58 10a7f 10af0-10af6
10b39-10b3f 10b99-10b9c 10ead 10f55-10f59 10f86-10f89 11047-1104d
110bb-110bc 110be-110c1 11140-11143 11174-11175 111c5-111c8 111cd 111db
111dd-111df 11238-1123d 112a9 1144b-1144f 1145a-1145b 1145d 114c6
115c1-115d7 11641-11643 11660-1166c 116b9 1173c-1173e 1183b 11944-11946
119e2 11a3f-11a46 11a9a-11a9c 11a9e-11aa2 11c41-11c45 11c70-11c71
11ef7-11ef8 11fff 12470-12474 12ff1-12ff2 16a6e-16a6f 16af5 16b37-16b3b
16b44 16e97-16e9a 16fe2 1bc9f 1da87-1da8b 1e95e-1e95f
"""
_PUNCTUATION = frozenset(
    code
    for first, _, last in (run.partition("-") for run in _PUNCTUATION_RUNS.split())
    for code in range(int(first, 16), int(last or first, 16) + 1)
)

_ASCII = bytes(range(128))
_ASCII_MARKS = bytes(filter(_PUNCTUATION.__contains__, _ASCII))
# The str.translate table for ASCII text: None for a mark, the code itself for
# any other character, so that no lookup misses (a miss raises a KeyError
# inside translate, once per distinct character).
_ASCII_TABLE = {code: None if code in _PUNCTUATION else code for code in _ASCII}
# What one bytes.translate deletes from UTF-8 text whose non-ASCII characters
# are all marks: the ASCII marks and every byte of a non-ASCII character.
_ASCII_MARKS_AND_WIDE = _ASCII_MARKS + bytes(range(128, 256))
# What one bytes.translate deletes to leave what str and bytes take differently:
# every ASCII byte but \x1c-\x1f, which str.split and re's str \s take for
# whitespace and bytes.split and re's bytes \s do not.
_ASCII_BUT_SEPARATORS = _ASCII.translate(None, b"\x1c\x1d\x1e\x1f")

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
#
# A pass runs only on a text that holds its trigger, one ASCII mark of the
# literal the rule begins with, so every match holds it. Scrubbed text holds
# no mark at all, so clean text runs no pass. A one-character `in` is one
# memchr; re's scan for a literal and str's search for a longer needle cost
# about 1 ns per character even where they find nothing. The ":" check also
# comes before the search for the "://" sentinel. Every byte below 0x80 of
# UTF-8 text is its own ASCII character, so the check is exact on bytes.
_DROP_RULES = (
    ("@", r"@(?<!\S@)\S*"),
    ("#", r"#(?<!\S#)\S*"),
    (".", r"www\.(?<!\Swww\.)\S*"),
    (":", r"://\S*"),
    (":", r"//:\S*"),
)
_STR_DROPS = tuple((trigger, re.compile(rule)) for trigger, rule in _DROP_RULES)
_BYTE_DROPS = tuple(
    (trigger.encode(), re.compile(rule.encode())) for trigger, rule in _DROP_RULES
)

# Characters per read of a corpus file, and the least a text of a Corpus
# holds but the last: about a thousand typical messages, enough that each
# reader's cost per text vanishes. Larger reads raise the peak memory of a
# load and of the readers.
READ_CHARS = 1 << 16


def _cut(pieces: Iterable[str]) -> Iterator[str]:
    """The lines of the joined pieces, cut into texts: each text ends at the
    first line break at or after READ_CHARS characters from its start, and
    the last one ends the lines.

    A line break ends the line before it, so joined pieces that end with one
    end with a whole line and start no blank one. The pieces may break a
    line anywhere; each text is joined once, when the piece that ends it
    arrives, so a line longer than many pieces is joined once.
    """
    parts, size = [], 0  # the pieces of the text so far, and their length
    for piece in pieces:
        start = 0
        while (end := piece.find("\n", start + max(READ_CHARS - size, 0))) >= 0:
            parts.append(piece[start:end])
            yield "".join(parts)
            parts, size, start = [], 0, end + 1
        parts.append(piece[start:])
        size += len(piece) - start
    if last := "".join(parts):
        yield last.removesuffix("\n")


def _ended(texts: Iterable[str]) -> Iterator[str]:
    """texts, each followed by a line break, joined a few at a time into
    pieces of at least READ_CHARS characters, so that _cut takes one piece
    and not one line at a time."""
    batch, size = [], 0
    for text in texts:
        batch.append(text)
        size += len(text) + 1
        if size >= READ_CHARS:
            batch.append("")
            yield "\n".join(batch)
            batch, size = [], 0
    batch.append("")
    yield "\n".join(batch)


def _scrub_text(text: str) -> str:
    """Lowercase, delete dropped tokens, then delete punctuation.

    Line breaks pass through untouched, so the result splits into the same
    lines as `text`. ASCII text keeps all its whitespace. Other text is
    scrubbed as UTF-8 bytes, the second route the module docstring
    describes, and its whitespace that bytes.split does not split on
    becomes a space.
    """
    if text.isascii():
        return _drop_tokens(text.lower(), _STR_DROPS).translate(_ASCII_TABLE)
    data = text.encode("utf-8", "surrogatepass")
    wide = _str_only_chars(data)
    joined = "".join(wide)
    # str.lower changes no mark, makes none and changes no whitespace, so
    # wide still holds every mark and space of the lowercased text.
    if joined.lower() != joined:
        data = text.lower().encode("utf-8", "surrogatepass")
    else:
        data = data.lower()
    if spaces := set(filter(str.isspace, wide)):
        wide -= spaces
        for space in spaces:
            data = data.replace(space.encode(), b" ")
    return _delete_marks(_drop_tokens(data, _BYTE_DROPS), wide)


def _str_only_chars(data: bytes) -> set[str]:
    """The distinct characters of UTF-8 `data` that str and bytes methods
    take differently: its non-ASCII characters and the separators \x1c-\x1f.

    Every byte of a non-ASCII character is at least 0x80, so deleting the
    other ASCII bytes leaves exactly those characters. Lone surrogates pass
    through "surrogatepass" unchanged.
    """
    return set(data.translate(None, _ASCII_BUT_SEPARATORS).decode("utf-8", "surrogatepass"))


def _drop_tokens(text, drops):
    """text without its dropped tokens: str text with _STR_DROPS, or UTF-8
    bytes with _BYTE_DROPS."""
    *starts, (url_trigger, url_tail), (_, url_head) = drops
    empty, sentinel = text[:0], url_tail.pattern[:3]
    for trigger, pattern in starts:
        if trigger in text:
            text = pattern.sub(empty, text)
    if url_trigger in text and sentinel in text:
        text = url_head.sub(empty, url_tail.sub(sentinel, text)[::-1])[::-1]
    return text


def _delete_marks(data: bytes, wide: set[str]) -> str:
    """The UTF-8 `data` decoded, without its Unicode punctuation (category P*).

    wide holds every non-ASCII mark of data and, if data holds a non-ASCII
    character that is no mark, at least one character that is no mark; it
    may hold more, such as a capital that data holds lowercased. Each
    character of wide is looked up in _PUNCTUATION once. When all of wide
    are marks, one bytes.translate deletes them with the ASCII marks and
    leaves ASCII, so _scrub_text leaves out of wide the whitespace it made
    spaces. Otherwise the ASCII marks go in one bytes.translate and each
    non-ASCII mark in one str.replace.
    """
    marks = [char for char in wide if ord(char) in _PUNCTUATION]
    if len(marks) == len(wide):
        return data.translate(None, _ASCII_MARKS_AND_WIDE).decode("ascii")
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


class CoverPool:
    """The lines of a corpus's texts with at least MIN_COVER_TOKENS tokens,
    in corpus order, held as counts and indexes and not as lines. draw is
    its one public method.

    At build, each text's covers are counted by one _SHORT_LINE pass, which
    finds the start of each line with fewer tokens; only those starts are
    kept, for the texts that have any, and an array holds the text number
    of each cover, 4 bytes a cover. The first draw into a text indexes the
    starts of that text's covers, 8 bytes a cover, and later draws reuse
    the index, so a verb that draws a few covers indexes a few texts and no
    verb holds the corpus text twice. A draw slices its line out of its
    text, up to the next line break, a new string on every draw.
    """

    def __init__(self, texts: Sequence[str], line_counts: Sequence[int]):
        self._texts = texts
        self._numbers = array("I")  # the text number of each cover
        self._firsts = []  # the rank of each text's first cover
        self._short = {}  # text number -> the starts of its short lines
        self._indexes = [None] * len(texts)  # each text's cover starts, once drawn
        for number, (text, lines) in enumerate(zip(texts, line_counts)):
            # Each match is the line break before a short line of "\n" + text,
            # so its start is that line's start in text.
            short = array("Q", map(re.Match.start, _SHORT_LINE.finditer("\n" + text)))
            if short:
                self._short[number] = short
            self._firsts.append(len(self._numbers))
            self._numbers += array("I", [number]) * (lines - len(short))

    def draw(self, rng: random.Random) -> list[str]:
        """The tokens of cover k, k = rng.randrange(number of covers): a
        uniform draw by one randrange, the package's only cover draw, so an
        rng draws the same covers for every caller. Raises SteganizeError
        after 0 attempts, with the reason NO_COVERS, on an empty pool.
        """
        if not self._numbers:
            raise SteganizeError(0, NO_COVERS)
        k = rng.randrange(len(self._numbers))
        number = self._numbers[k]
        starts = self._indexes[number]
        if starts is None:
            starts = self._indexes[number] = self._index(number)
        start = starts[k - self._firsts[number]]
        text = self._texts[number]
        end = text.find("\n", start)
        return (text[start:end] if end >= 0 else text[start:]).split()

    def _index(self, number: int) -> array:
        """The start of each cover of text `number`."""
        # Each line starts one past the end of the line before it; the last
        # value is one past the end of the text and starts no line.
        starts = accumulate(
            map((1).__add__, map(len, self._texts[number].split("\n"))), initial=0
        )
        short = self._short.get(number)
        index = array("Q", filterfalse(set(short).__contains__, starts) if short else starts)
        index.pop()
        return index


class Corpus:
    """Immutable collection of scrubbed messages with vocabulary counts.

    Corpus(texts) takes whole scrubbed lines joined by "\n", one message a
    line, cut into texts in any way, one line a text included. It cuts
    their lines again as load_corpus does (_cut), keeps the texts that are
    neither empty nor all whitespace, in order, and raises EmptyCorpusError
    when none is left; so any cut of the same lines gives the same texts.
    line.split() gives a line's tokens; no line is a string of its own. A
    line with no token is no message, and a line keeps the whitespace the
    scrub leaves in it.

    vocabulary, cover_pool and the line count of each text are computed on
    first access and then kept; the pool indexes a text's covers when a
    draw first lands in it. len() and containing read the texts again on
    every call and keep nothing.
    """

    def __init__(self, texts: Iterable[str]):
        # str.isspace and str.split agree on what whitespace is, so a text
        # that is empty or all whitespace splits into no token.
        self.texts: tuple[str, ...] = tuple(
            text for text in _cut(_ended(texts)) if text and not text.isspace()
        )
        if not self.texts:
            raise EmptyCorpusError("corpus contains no usable messages")

    def __len__(self) -> int:
        """The number of lines that hold a token, counted on every call."""
        return sum(1 for text in self.texts for line in text.split("\n") if line.strip())

    @cached_property
    def vocabulary(self) -> Counter[str]:
        """The one count of every word, in order of first occurrence.

        Each text is split once: a line break ends the last word of a line,
        so the words, and the order they come in, are those of the lines
        split one by one.
        """
        counts: Counter[str] = Counter()
        for text in self.texts:
            counts.update(text.split())
        return counts

    @cached_property
    def cover_pool(self) -> CoverPool:
        """The lines long enough to serve as covers, counted on first use
        and indexed text by text as draws land in them.

        Empty when no line qualifies; CoverPool.draw raises on that.
        """
        return CoverPool(self.texts, self._line_counts)

    @cached_property
    def _line_counts(self) -> tuple[int, ...]:
        """The number of lines of each text, blank ones included."""
        return tuple(text.count("\n") + 1 for text in self.texts)

    def containing(self, words: Iterable[str]) -> Iterator[str]:
        """The texts in which any of `words` may occur, in corpus order.

        For each text up to the first in which more than half the lines hold
        one word, one string of the lines of it in which a word occurs as a
        substring, joined by "\n" in text order, so every line that holds
        one as a token; a text with no such line gives nothing. From that
        text on, every text as the corpus holds it, blank lines included. A
        line taken that holds no word costs its reader about one split, about
        what a hit costs the search, so past such a text taking every line
        is the cheaper guess, and the search stops there.

        Each text is searched with str.find, word by word. A word holds no
        line break, so each hit lies inside one line, which rfind and find
        of "\n" bound; the search resumes at the end of that line, so the
        Python work per word is bounded by the lines that hold it, not by
        its occurrences. The search runs when containing is called. Every
        call searches again and keeps nothing. Raises ValueError for the
        empty word and for a word that holds a line break.
        """
        words = set(words)
        if any(not word or "\n" in word for word in words):
            raise ValueError("cannot search the lines for the empty word or a line break")
        held = []
        # With no word, no text is searched.
        counted = zip(self.texts, self._line_counts) if words else ()
        for number, (text, count) in enumerate(counted):
            lines = _lines_holding(text, count, words)
            if lines is None:
                held += self.texts[number:]
                break
            if lines:
                held.append(lines)
        return iter(held)


def _lines_holding(text: str, count: int, words: set[str]) -> str | None:
    """The lines of text in which one of words occurs, joined by "\n" in
    text order, or None once more than half its `count` lines hold one
    word."""
    ends = {}  # line start -> line end
    half = count // 2
    for word in words:
        held = 0
        at = text.find(word)
        while at >= 0:
            start = text.rfind("\n", 0, at) + 1
            end = text.find("\n", at + len(word))
            if end < 0:
                end = len(text)
            ends[start] = end
            held += 1
            if held > half:
                return None
            at = text.find(word, end)
    return "\n".join(text[start:end] for start, end in sorted(ends.items()))


def load_corpus(path) -> Corpus:
    """Read a line-delimited UTF-8 file, minus any leading byte-order mark,
    into a Corpus. I/O errors propagate.

    The file is read READ_CHARS characters at a time, with universal
    newlines, and the reads are cut into texts by _cut, the rule the
    Corpus applies again to the scrubbed texts. Each text is scrubbed as
    one string as soon as the read that ends it arrives, so the load holds
    about two reads of raw text at a time.
    """
    with open(path, encoding="utf-8-sig") as handle:
        reads = iter(partial(handle.read, READ_CHARS), "")
        return Corpus(map(_scrub_text, _cut(reads)))
