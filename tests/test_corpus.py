import string
import tracemalloc
import unicodedata
from itertools import compress
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordsteg import corpus as corpus_module
from wordsteg.corpus import Corpus, load_corpus, scrub_message
from wordsteg.errors import EmptyCorpusError

from synthcorpus import raw_lines, synth_lines


def _tokens(corpus):
    """Each message of corpus as a tuple of its tokens."""
    return tuple(tuple(line.split()) for line in corpus.lines)


def test_scrub_removes_usernames_hashtags_and_urls():
    assert scrub_message("@john Hello #fun http://x.co") == "hello"


def test_scrub_strips_punctuation_and_lowercases():
    assert scrub_message("Poor cast, off!") == "poor cast off"


def test_scrub_empty_string():
    assert scrub_message("") == ""


def test_scrub_keeps_digits():
    assert scrub_message("room 101 at 9pm") == "room 101 at 9pm"


def test_scrub_drops_www_and_scheme_urls_whole():
    assert scrub_message("see www.example.com or https://a.b now") == "see or now"


def test_scrub_keeps_misspellings():
    assert scrub_message("no longer usefull") == "no longer usefull"


def test_scrub_strips_inner_punctuation():
    assert scrub_message("can't re-use") == "cant reuse"


def _scrub_reference(raw):
    """The per-character scrubber that scrub_message's translate table replaced."""
    kept = []
    for token in raw.lower().split():
        if token.startswith("@") or token.startswith("#"):
            continue
        if "://" in token or token.startswith("www."):
            continue
        word = "".join(ch for ch in token if not unicodedata.category(ch).startswith("P"))
        if word:
            kept.append(word)
    return " ".join(kept)


# Any code point (surrogates too), mixed with the characters the scrubber
# treats specially and the ASCII symbols that are not punctuation.
raw_text = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("@#:/.wW !?'$+<=>^`|~")
)


@given(raw_text)
def test_scrub_matches_per_character_reference(raw):
    assert scrub_message(raw) == _scrub_reference(raw)


@given(st.text())
def test_scrub_is_idempotent(raw):
    once = scrub_message(raw)
    assert scrub_message(once) == once


@given(st.text())
def test_scrubbed_text_tokenizes_without_empties(raw):
    tokens = scrub_message(raw).split()
    assert all(tokens)
    assert " ".join(tokens).split() == tokens


def test_load_corpus_counts_vocabulary(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("the cat sat\nthe cat ran\na cat sat\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.vocabulary.total() == 9
    assert corpus.vocabulary == {"the": 2, "cat": 3, "sat": 2, "ran": 1, "a": 1}


def test_load_corpus_skips_a_byte_order_mark(tmp_path):
    text = "hello there friend\nhello again\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_corpus(marked).lines == load_corpus(plain).lines


def test_load_corpus_skips_lines_that_scrub_to_nothing(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("@alice #topic\nthe cat sat\n\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == 1
    assert _tokens(corpus) == (("the", "cat", "sat"),)


def test_load_corpus_empty_file_raises(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        load_corpus(path)


def test_load_corpus_nothing_usable_raises(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("@a\n#b\nhttp://c.d\n", encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        load_corpus(path)


def test_load_corpus_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "does-not-exist.txt")


def test_messages_are_immutable(toy_corpus):
    assert toy_corpus.lines[0] == "the cat sat"
    with pytest.raises(TypeError):
        toy_corpus.lines[0][0] = "x"
    with pytest.raises(TypeError):
        toy_corpus.lines[0] = "x"


def test_from_lines_matches_load_corpus(tmp_path):
    lines = ["Ana & Bo!", "@x y", "plain words here"]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    from_file = load_corpus(path)
    from_lines = Corpus.from_lines(lines)
    assert _tokens(from_file) == _tokens(from_lines)


# Fragments where a whole-text scrub could part from a per-line one: line
# breaks (universal newlines turn "\r" and "\r\n" into "\n"), whitespace
# that str.split splits on (str.splitlines breaks lines at most of it), a
# capital sigma, whose lowercase depends on what follows it, and the marks
# of dropped tokens.
LINE_HAZARDS = ["\n", "\r", "\r\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028",
                "\u2029", " ", "Σ", "ΑΣ", "@", "#", "://", "www.", "W", "!", "'"]


def _hazard_text(chars):
    return st.lists(chars | st.sampled_from(LINE_HAZARDS)).map("".join)


def _messages_or_none(build):
    try:
        return _tokens(build())
    except EmptyCorpusError:
        return None


def _reference_messages(lines):
    """Messages a per-line scrub with _scrub_reference gives, or None."""
    tokens = (_scrub_reference(line).split() for line in lines)
    return tuple(tuple(t) for t in tokens if t) or None


def _universal_lines(text):
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


# Small reads make hypothesis's short inputs cross read boundaries: inside a
# line, between "\r" and "\n", and right after the byte-order mark.
@pytest.mark.parametrize("read_chars", [1, 2, 3, 5, 8, corpus_module.READ_CHARS])
@given(text=_hazard_text(st.characters(exclude_categories=("Cs",))))
@example(text="\ufeffΑΣ\r\n€ @x\r\r\nΣ end\rlast")
@settings(deadline=None)
def test_load_corpus_matches_per_line_reference(tmp_path_factory, read_chars, text):
    path = tmp_path_factory.mktemp("whole") / "corpus.txt"
    # Bytes on disk, so "\r" and "\r\n" reach the reader untranslated.
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(corpus_module, "READ_CHARS", read_chars):
        built = _messages_or_none(lambda: load_corpus(path))
    # The reader skips one byte-order mark at the start of the file.
    assert built == _reference_messages(_universal_lines(text.removeprefix("\ufeff")))


@pytest.mark.parametrize("block_lines", [1, 2, 3, corpus_module.BLOCK_LINES])
@given(lines=st.lists(_hazard_text(st.characters(exclude_categories=()))))
def test_from_lines_matches_per_line_reference(block_lines, lines):
    # Any code point, surrogates too; an element holding "\n" is one message.
    with mock.patch.object(corpus_module, "BLOCK_LINES", block_lines):
        built = _messages_or_none(lambda: Corpus.from_lines(lines))
    assert built == _reference_messages(lines)


# Markers of dropped tokens and pieces of them, so one token often holds
# "www." or "://" somewhere other than its start, or a marker that only looks
# like one; plus whitespace that is and is not a line break.
MARKER_FRAGMENTS = ["@", "#", "w", "ww", "www.", "WWW.", ":", "/", ":/", "//", "://", "//:",
                    ".", "x", "é", "Σ", " ", "\t", "\n", "\x85", "\u3000", "\u2028"]
marker_text = st.lists(st.sampled_from(MARKER_FRAGMENTS)).map("".join)


@given(marker_text)
def test_scrub_of_marker_dense_text_matches_reference(raw):
    assert scrub_message(raw) == _scrub_reference(raw)


@pytest.mark.parametrize("block_lines", [1, 2, 3, corpus_module.BLOCK_LINES])
@given(lines=st.lists(marker_text))
def test_from_lines_of_marker_dense_text_matches_reference(block_lines, lines):
    with mock.patch.object(corpus_module, "BLOCK_LINES", block_lines):
        built = _messages_or_none(lambda: Corpus.from_lines(lines))
    assert built == _reference_messages(lines)


@pytest.mark.parametrize(
    "token",
    ["a:://b", "x://", "://", "a://b://c", ":///", "//:x", "www.", "wwww.x", "xwww.y",
     "a@b", "@", "#", "\u3000@x", "\x85www.x"],
)
def test_edge_tokens_match_reference(token):
    for raw in (token, f"keep {token} end", f"{token}\t{token}\n{token}"):
        assert scrub_message(raw) == _scrub_reference(raw)
        lines = [raw, f"first {raw}", "last"]
        assert _tokens(Corpus.from_lines(lines)) == _reference_messages(lines)


def _scrub_and_routes(raw):
    """scrub_message(raw), and whether its tokens were dropped as str or as bytes."""
    with mock.patch.object(corpus_module, "_drop_tokens", wraps=corpus_module._drop_tokens) as drop:
        scrubbed = scrub_message(raw)
    return scrubbed, [type(call.args[0]) for call in drop.call_args_list]


# Text whose non-ASCII characters neither change under str.lower nor are
# whitespace, and which holds none of \x1c-\x1f: a lone surrogate, marks
# («, —, …) and letters (é, 日). Every such text is scrubbed as bytes.
BYTE_ROUTE_FRAGMENTS = [
    f for f in MARKER_FRAGMENTS if f not in ("Σ", "\x85", "\u3000", "\u2028")
] + ["é", "日", "«", "—", "…", "\udc80"]
byte_route_text = st.lists(
    st.sampled_from(BYTE_ROUTE_FRAGMENTS) | st.sampled_from(string.ascii_letters + string.digits)
).map("".join)


@given(byte_route_text)
@example("Keep «@drop» —#x… é@x 日www.y a://b —… ")
def test_caseless_non_ascii_text_is_scrubbed_as_bytes(raw):
    scrubbed, routes = _scrub_and_routes(raw)
    assert scrubbed == _scrub_reference(raw)
    assert routes == [str if raw.isascii() else bytes]


@pytest.mark.parametrize("before", ["é", "日", "«", "…", "\udc80"])
@pytest.mark.parametrize("marker", ["@x", "#x", "www.x", "://x"])
def test_a_multibyte_character_before_a_marker_keeps_the_token(before, marker):
    for raw in (f"{before}{marker}", f"Keep {before}{marker} @drop end", f"@a{before}{marker} b"):
        scrubbed, routes = _scrub_and_routes(raw)
        assert scrubbed == _scrub_reference(raw)
        assert routes == [bytes]


# Each of these makes a scrub of the bytes part from the scrub of the text:
# bytes.lower leaves É and Σ (final or not) as they are, and the bytes
# patterns take \x1c, \xa0, \u2028 and \x85 for part of a token.
@pytest.mark.parametrize("char", ["É", "Σ", "\x1c", "\xa0", "\u2028", "\x85"])
def test_text_whose_bytes_scrub_differently_is_scrubbed_as_str(char):
    raw = f"Keep @drop{char}kept #x{char}y www.x{char}y a://b{char}z é!{char}end{char}"
    expected = _scrub_reference(raw)
    scrubbed, routes = _scrub_and_routes(raw)
    assert scrubbed == expected
    assert routes == [str]
    data = raw.encode("utf-8")
    as_bytes = corpus_module._delete_marks(
        corpus_module._drop_tokens(data.lower(), corpus_module._BYTE_DROPS),
        corpus_module._wide_chars(data),
    )
    assert " ".join(as_bytes.split()) != expected


@pytest.mark.parametrize(
    "space", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]
)
def test_whitespace_that_is_no_line_break_stays_inside_the_line(tmp_path, space):
    line = space.join(["Keep", "@Drop", "#drop", "WWW.Drop", "X://drop", "ΑΣ", "end!"])
    path = tmp_path / "corpus.txt"
    path.write_bytes(f"first line\r\n{line}\rlast".encode("utf-8"))
    expected = (("first", "line"), ("keep", "ας", "end"), ("last",))
    assert _tokens(load_corpus(path)) == expected
    assert _tokens(Corpus.from_lines(["first\nline", line, "last"])) == expected
    assert _reference_messages(["first line", line, "last"]) == expected


def test_final_sigma_at_each_line_end_without_trailing_newline(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes("ΦΑΣ\nΦΑΣ\r\nΦΑΣ\rΦΑΣ".encode("utf-8"))
    assert _tokens(load_corpus(path)) == (("φας",),) * 4


def test_lines_keep_the_scrubs_whitespace_and_readers_split_it():
    # The dropped @mention and the lone punctuation leave their spaces behind.
    corpus = Corpus.from_lines(["one @two\tthree !! four", "a  b", "five"])
    assert corpus.lines == ("one \tthree  four", "a  b", "five")
    assert list(corpus.vocabulary.items()) == [
        ("one", 1), ("three", 1), ("four", 1), ("a", 1), ("b", 1), ("five", 1)
    ]
    assert corpus.vocabulary.total() == 6
    assert corpus.cover_pool == ("one \tthree  four",)


@given(lines=st.lists(_hazard_text(st.sampled_from("ab \t\u3000@"))))
def test_cover_pool_holds_the_lines_with_enough_tokens(lines):
    try:
        corpus = Corpus.from_lines(lines)
    except EmptyCorpusError:
        return
    expected = tuple(
        line for line in corpus.lines if len(line.split()) >= corpus_module.MIN_COVER_TOKENS
    )
    assert corpus.cover_pool == expected


def test_loaded_corpus_holds_no_per_token_objects(tmp_path):
    # One string per line: a tuple of token strings per message held 11x
    # the file size, where the lines alone hold under 2x.
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(synth_lines(20_000, 3)) + "\n", encoding="utf-8")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = load_corpus(path)
        retained, peak = (traced - before for traced in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(corpus) == 20_000
    assert retained <= 3 * size
    # The copies a load makes of its text on the way are bounded by the read
    # size, not by the file: default reads stay near a fifth of this file
    # (1.4 MB), where 256K-character reads pass 3/4 of it and reading the
    # whole file at once passes 12 times it.
    assert peak - retained <= size // 2


def test_a_line_longer_than_many_reads_is_scrubbed_once(tmp_path):
    long_line = "Wörd! @drop " * 833 + "Wörd"
    assert len(long_line) == 10_000
    path = tmp_path / "corpus.txt"
    path.write_bytes(f"first line\r\n{long_line}\r\nlast".encode("utf-8"))
    with mock.patch.object(corpus_module, "READ_CHARS", 4), mock.patch.object(
        corpus_module, "_usable_lines", wraps=corpus_module._usable_lines
    ) as scrub:
        corpus = load_corpus(path)
    assert _tokens(corpus) == (("first", "line"), ("wörd",) * 834, ("last",))
    # Its pieces are joined once, when the read that ends it arrives.
    assert scrub.call_args_list.count(mock.call(long_line)) == 1


def _is_mark(char):
    return unicodedata.category(char).startswith("P")


def test_ascii_marks_are_the_ascii_punctuation():
    assert corpus_module._ASCII_MARKS == bytes(c for c in range(128) if _is_mark(chr(c)))


def _delete_marks(text):
    """corpus._delete_marks of text's UTF-8 bytes and its non-ASCII characters."""
    data = text.encode("utf-8", "surrogatepass")
    return corpus_module._delete_marks(data, corpus_module._wide_chars(data))


# A table of its own, so the entries for all of Unicode go with the test.
@mock.patch.object(corpus_module, "_PUNCTUATION", corpus_module._PunctuationTable())
def test_punctuation_deletion_matches_the_category_rule_at_every_code_point():
    everything = "".join(map(chr, range(0x110000)))
    kept = [not _is_mark(char) for char in everything]
    # Fed as one text, every mark there is takes the translate fallback.
    assert kept.count(False) > corpus_module.MAX_REPLACED_MARKS
    assert _delete_marks(everything) == "".join(compress(everything, kept))
    # Fed in pieces of 16 code points, each deletes its marks by bytes and by
    # replace when a non-ASCII letter is added to it, and alone by one
    # bytes.translate when its non-ASCII characters are all marks. The
    # pieces start 8 code points off a multiple of 16, so one holds the
    # surrogate pair U+DBFF U+DC00.
    assert corpus_module.MAX_REPLACED_MARKS >= 16
    for start in range(-8, len(everything), 16):
        cut = slice(max(start, 0), start + 16)
        expected = "".join(compress(everything[cut], kept[cut]))
        assert _delete_marks(everything[cut] + "é") == expected + "é", hex(cut.start)
        assert _delete_marks(everything[cut]) == expected, hex(cut.start)


def test_load_corpus_of_reads_alternating_ascii_and_marked_text(tmp_path):
    """Each read is exactly one section of lines, in turn: ASCII only; raw
    chatter, whose ideographic spaces send it down the str route; lines with
    more distinct marks than replace passes are made for and the letter é,
    scrubbed as bytes and then translated; and the same lines without é,
    whose non-ASCII bytes all go in one bytes.translate."""
    read_chars = corpus_module.READ_CHARS
    clean = synth_lines(4000, 11)
    noisy = raw_lines(clean, 11)
    many = [chr(c) for c in range(0x80, 0x3100) if _is_mark(chr(c))]
    many = many[: 2 * corpus_module.MAX_REPLACED_MARKS]
    sources = [
        iter(clean),
        iter(noisy),
        iter(f"{m} {line} é{m}" for m, line in zip(many * 99, clean)),
        iter(f"{m} {line} {m}" for m, line in zip(many * 99, clean)),
    ]
    raw = []
    for turn in range(8):
        size = 0
        for line in sources[turn % 4]:
            if size + len(line) + 1 > read_chars:
                break
            raw.append(line)
            size += len(line) + 1
        # Spaces pad the section to one read, cut at its final line break.
        raw[-1] += " " * (read_chars - size)
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(raw) + "\n", encoding="utf-8")
    with mock.patch.object(
        corpus_module, "_usable_lines", wraps=corpus_module._usable_lines
    ) as scrub, mock.patch.object(
        corpus_module, "_drop_tokens", wraps=corpus_module._drop_tokens
    ) as drop:
        loaded = load_corpus(path)
    texts = [call.args[0] for call in scrub.call_args_list]
    assert [len(text) for text in texts[:8]] == [read_chars - 1] * 8
    assert [text.isascii() for text in texts[:8]] == [True, False, False, False] * 2
    routes = [type(call.args[0]) for call in drop.call_args_list]
    assert routes[:8] == [str, str, bytes, bytes] * 2
    wide = [{c for c in set(text) if not c.isascii()} for text in texts[1:4]]
    wide_marks = [sum(map(_is_mark, chars)) for chars in wide]
    assert 0 < wide_marks[0] <= corpus_module.MAX_REPLACED_MARKS < wide_marks[1] == wide_marks[2]
    # Chatter holds "\u3000", and the third section "é": neither is a mark.
    assert [marks == len(chars) for marks, chars in zip(wide_marks, wide)] == [False, False, True]
    assert loaded.lines == Corpus.from_lines(raw).lines
    assert _tokens(loaded) == _reference_messages(raw)


def _containing_reference(lines, words, block_lines):
    """Brute force: for each word, the lines it occurs in, up to the first
    block more than half of whose lines hold it, and every line from there."""
    held = [False] * len(lines)
    for word in words:
        tail = len(lines)
        for first in range(0, len(lines), block_lines):
            block = lines[first : first + block_lines]
            if 2 * sum(word in line for line in block) > len(block):
                tail = first
                break
        held = [h or i >= tail or word in line for i, (h, line) in enumerate(zip(held, lines))]
    return tuple(line for line, h in zip(lines, held) if h)


# Short tokens over two letters, so that a word is often a substring of a
# longer token, repeats within a line, or runs from one line into the next;
# "c" occurs in no line.
_short_text = st.text("ab", min_size=1, max_size=3)
_containing_lines = st.lists(
    st.lists(_short_text, min_size=1, max_size=4).map(" ".join), min_size=1, max_size=12
)


@pytest.mark.parametrize("block_lines", [1, 2, 3, corpus_module.BLOCK_LINES])
@given(
    lines=_containing_lines,
    words=st.sets(st.one_of(_short_text, st.just("c"), st.just("b a")), max_size=3),
)
# In blocks of 2, "a" is in one line of each of the first two blocks, then in
# both lines of the third, so every line from there on is taken.
@example(lines=["ab", "xx", "aa b", "b", "a", "ba", "c b", "xx"], words={"a"})
# "ba" and "yz" occur only across the end of a line.
@example(lines=["x b", "a y", "z"], words={"ba", "yz", "a y"})
@settings(deadline=None)
def test_containing_matches_brute_force_and_searches_each_word_once(block_lines, lines, words):
    corpus = Corpus(lines)
    with mock.patch.object(corpus_module, "BLOCK_LINES", block_lines), mock.patch.object(
        corpus_module, "_find_lines", wraps=corpus_module._find_lines
    ) as scan:
        held = tuple(corpus.containing(words))
        assert held == _containing_reference(lines, words, block_lines)
        # Every line that holds a word as a token, and possibly more.
        tokens = [line for line in lines if not words.isdisjoint(line.split())]
        assert set(tokens) <= set(held)
        # A repeated request, alone or with words seen before, reads what was kept.
        assert tuple(corpus.containing(words)) == held
        for word in words:
            assert tuple(corpus.containing([word])) == _containing_reference(
                lines, [word], block_lines
            )
    assert [set(call.args[1]) for call in scan.call_args_list] == ([words] if words else [])


def test_containing_refuses_the_empty_word():
    with pytest.raises(ValueError, match="empty word"):
        Corpus(["a"]).containing([""])
