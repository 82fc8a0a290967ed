import hashlib
import operator
import random
import re
import string
import tracemalloc
import unicodedata
from collections import Counter
from itertools import chain, compress
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordsteg import corpus as corpus_module
from wordsteg.codebook import DIGITS, Codebook, select_codebook
from wordsteg.codec import (
    MAX_ATTEMPTS,
    NO_COVERS,
    contains_codeword,
    decode,
    draw_cover,
    steganize,
)
from wordsteg.corpus import Corpus, load_corpus, scrub_message
from wordsteg.errors import EmptyCorpusError, SteganizeError

from corpuslines import corpus_lines, corpus_of, text_lines, texts_of
from synthcorpus import raw_lines, synth_lines


def _tokens(corpus):
    """Each message of corpus as a tuple of its tokens."""
    return tuple(tuple(line.split()) for line in corpus_lines(corpus))


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


def test_scrub_deletes_unicode_14_punctuation_on_every_python():
    # U+2E53 is punctuation from Unicode 14.0 on; Python 3.10's unicodedata
    # (13.0) has it unassigned.
    assert scrub_message("a\u2e53b") == "ab"


# The scrub deletes Unicode 14.0.0's punctuation. Where the running Python's
# unicodedata is that version, the oracles below read its category rule and
# so stay independent of corpus._PUNCTUATION; elsewhere they read the table.
CATEGORY_RULE = unicodedata.unidata_version == "14.0.0"


def _is_mark(char):
    if CATEGORY_RULE:
        return unicodedata.category(char).startswith("P")
    return ord(char) in corpus_module._PUNCTUATION


def _scrub_reference(raw):
    """The per-character scrubber that scrub_message's translate table replaced."""
    kept = []
    for token in raw.lower().split():
        if token.startswith("@") or token.startswith("#"):
            continue
        if "://" in token or token.startswith("www."):
            continue
        word = "".join(ch for ch in token if not _is_mark(ch))
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
    assert corpus_lines(load_corpus(marked)) == corpus_lines(load_corpus(plain))


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
    assert toy_corpus.texts == ("the cat sat\nthe cat ran\na cat sat",)
    with pytest.raises(TypeError):
        toy_corpus.texts[0][0] = "x"
    with pytest.raises(TypeError):
        toy_corpus.texts[0] = "x"


def test_corpus_keeps_the_texts_that_hold_a_token():
    # The lines "a b", four blank ones, "\x1c" twice, "d e f" and "g", in
    # two cuts: the corpus cuts them again, so both are one corpus.
    texts = ["a b\n", "", " \n\t", "\x1c", "\x1c\nd e f", "g"]
    lines = ["a b", "", "", " ", "\t", "\x1c", "\x1c", "d e f", "g"]
    assert Corpus(texts).texts == Corpus(lines).texts == ("\n".join(lines),)
    # Each text ends at the first line break at least two characters from
    # its start. A text whose lines hold no token is no text; blank lines
    # inside one stay.
    corpus = corpus_of(texts, 2)
    assert corpus.texts == corpus_of(lines, 2).texts == ("a b", "\x1c\nd e f", "g")
    assert corpus_lines(corpus) == ("a b", "d e f", "g")
    assert len(corpus) == 3
    for texts in ([], ["", " \u3000", "\x1c\n \n"]):
        with pytest.raises(EmptyCorpusError):
            Corpus(texts)


# Fragments where a whole-text scrub could part from a per-line one: line
# breaks (universal newlines turn "\r" and "\r\n" into "\n"), whitespace
# that str.split splits on (str.splitlines breaks lines at most of it), a
# capital sigma, whose lowercase depends on what follows it, and the marks
# of dropped tokens.
LINE_HAZARDS = ["\n", "\r", "\r\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028",
                "\u2029", " ", "Σ", "ΑΣ", "@", "#", "://", "www.", "W", "!", "'"]


def _hazard_text(chars):
    return st.lists(chars | st.sampled_from(LINE_HAZARDS)).map("".join)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    """One file for the properties, each example of which rewrites it."""
    return tmp_path_factory.mktemp("corpus") / "corpus.txt"


def _loaded_messages(path, text):
    """The messages load_corpus reads from text written to path, or None."""
    # Bytes on disk, so "\r" and "\r\n" reach the reader untranslated.
    path.write_bytes(text.encode("utf-8"))
    try:
        return _tokens(load_corpus(path))
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
def test_load_corpus_matches_per_line_reference(corpus_file, read_chars, text):
    with mock.patch.object(corpus_module, "READ_CHARS", read_chars):
        built = _loaded_messages(corpus_file, text)
    # The reader skips one byte-order mark at the start of the file.
    assert built == _reference_messages(_universal_lines(text.removeprefix("\ufeff")))


# Markers of dropped tokens and pieces of them, so one token often holds
# "www." or "://" somewhere other than its start, or a marker that only looks
# like one; plus whitespace that is and is not a line break.
MARKER_FRAGMENTS = ["@", "#", "w", "ww", "www.", "WWW.", ":", "/", ":/", "//", "://", "//:",
                    ".", "x", "é", "Σ", " ", "\t", "\n", "\x85", "\u3000", "\u2028"]
marker_text = st.lists(st.sampled_from(MARKER_FRAGMENTS)).map("".join)


@given(marker_text)
def test_scrub_of_marker_dense_text_matches_reference(raw):
    assert scrub_message(raw) == _scrub_reference(raw)


@pytest.mark.parametrize("read_chars", [1, 2, 3, 5, 8, corpus_module.READ_CHARS])
@given(text=marker_text)
@settings(deadline=None)
def test_load_corpus_of_marker_dense_text_matches_reference(corpus_file, read_chars, text):
    with mock.patch.object(corpus_module, "READ_CHARS", read_chars):
        built = _loaded_messages(corpus_file, text)
    assert built == _reference_messages(text.split("\n"))


@pytest.mark.parametrize(
    "token",
    ["a:://b", "x://", "://", "a://b://c", ":///", "//:x", "www.", "wwww.x", "xwww.y",
     "a@b", "@", "#", "\u3000@x", "\x85www.x"],
)
def test_edge_tokens_match_reference(tmp_path, token):
    for raw in (token, f"keep {token} end", f"{token}\t{token}\n{token}"):
        assert scrub_message(raw) == _scrub_reference(raw)
        text = f"{raw}\nfirst {raw}\nlast"
        assert _loaded_messages(tmp_path / "corpus.txt", text) == _reference_messages(
            text.split("\n")
        )


def _scrub_and_routes(raw):
    """scrub_message(raw), and whether its tokens were dropped as str or as bytes."""
    with mock.patch.object(corpus_module, "_drop_tokens", wraps=corpus_module._drop_tokens) as drop:
        scrubbed = scrub_message(raw)
    return scrubbed, [type(call.args[0]) for call in drop.call_args_list]


# Every non-ASCII text is scrubbed as bytes, whatever its non-ASCII
# characters: a lone surrogate, marks («, —, …), letters (é, 日), capitals
# and a final sigma (É, Σ), non-ASCII whitespace (\u3000, \x85, \u2028,
# \xa0) and the ASCII separator \x1c.
BYTE_ROUTE_FRAGMENTS = MARKER_FRAGMENTS + ["日", "«", "—", "…", "\udc80", "É", "\xa0", "\x1c"]
byte_route_text = st.lists(
    st.sampled_from(BYTE_ROUTE_FRAGMENTS) | st.sampled_from(string.ascii_letters + string.digits)
).map("".join)


@given(byte_route_text)
@example("Keep «@drop» —#x… é@x 日www.y a://b —… ")
@example("ΑΣ\u3000@Drop\x1cWWW.x\xa0Σ#É É://x\x85kept")
def test_non_ascii_text_is_scrubbed_as_bytes(raw):
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


# Each of these makes a plain bytes scrub differ from the scrub of the text:
# bytes.lower leaves É, Σ (final or not), the Kelvin sign and İ as they
# are, where str.lower makes the last two k and i plus a combining dot, and
# the bytes patterns take \x1c, \xa0, \u2028 and \x85 for part of a token.
# So the scrub lowers such text as str and makes such whitespace spaces
# before it scrubs the bytes.
@pytest.mark.parametrize("char", ["É", "Σ", "\x1c", "\xa0", "\u2028", "\x85", "\u212a", "İ"])
def test_text_whose_bytes_scrub_differently_is_scrubbed_as_str(char):
    raw = f"Keep @drop{char}kept #x{char}y www.x{char}y a://b{char}z é!{char}end{char}"
    expected = _scrub_reference(raw)
    scrubbed, routes = _scrub_and_routes(raw)
    assert scrubbed == expected
    assert routes == [bytes]
    data = raw.encode("utf-8")
    as_bytes = corpus_module._delete_marks(
        corpus_module._drop_tokens(data.lower(), corpus_module._BYTE_DROPS),
        corpus_module._wide_chars(data),
    )
    assert " ".join(as_bytes.split()) != expected


class _RecordedRule:
    """A compiled drop rule that logs its str rule each time its sub runs."""

    def __init__(self, compiled, log):
        self.pattern, self._compiled, self._log = compiled.pattern, compiled, log

    def sub(self, repl, text):
        pattern = self.pattern
        self._log.append(pattern.decode() if isinstance(pattern, bytes) else pattern)
        return self._compiled.sub(repl, text)


def _passes_run(run):
    """run()'s result, and the drop rules whose passes it ran, in order."""
    log = []

    def recorded(drops):
        return tuple((trigger, _RecordedRule(compiled, log)) for trigger, compiled in drops)

    with mock.patch.object(
        corpus_module, "_STR_DROPS", recorded(corpus_module._STR_DROPS)
    ), mock.patch.object(corpus_module, "_BYTE_DROPS", recorded(corpus_module._BYTE_DROPS)):
        result = run()
    return result, log


AT, HASH, WWW, URL_TAIL, URL_HEAD = (rule for _, rule in corpus_module._DROP_RULES)


@pytest.mark.parametrize(
    "raw, route, passes",
    [
        ("Clean text, with marks! But no trigger", str, []),
        ("«Caseless» — non-ASCII … marks", bytes, []),
        ("Only a #tag here", str, [HASH]),
        ("«Only» a #tag — here", bytes, [HASH]),
        ("Ten: 10:30, a:/b and :/ /:", str, []),
        ("Stops. And colons: 10:30", str, [WWW]),
        ("«Stops.» and — colons: a:/b", bytes, [WWW]),
        ("Drop @a #b www.c d://e", str, [AT, HASH, WWW, URL_TAIL, URL_HEAD]),
        ("«Drop» @a #b www.c d://e", bytes, [AT, HASH, WWW, URL_TAIL, URL_HEAD]),
    ],
)
def test_a_drop_pass_runs_only_on_text_that_holds_its_trigger(raw, route, passes):
    (scrubbed, routes), ran = _passes_run(lambda: _scrub_and_routes(raw))
    assert scrubbed == _scrub_reference(raw)
    assert routes == [route]
    assert ran == passes


def test_load_corpus_of_clean_text_runs_no_drop_pass(tmp_path):
    clean = synth_lines(4000, 11)
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(clean) + "\n", encoding="utf-8")
    assert path.stat().st_size > 2 * corpus_module.READ_CHARS
    loaded, ran = _passes_run(lambda: load_corpus(path))
    assert ran == []
    assert corpus_lines(loaded) == tuple(clean)


def test_each_drop_trigger_is_a_mark_of_the_literal_its_rule_begins_with():
    """Every match of a rule begins with its literal, so a text without a
    character of that literal has no match; an ASCII mark is one that
    scrubbed text never holds. Both URL passes run behind the tail's check."""
    for trigger, rule in corpus_module._DROP_RULES:
        # Escaped and plain characters up to the first group, class or repeat.
        head = re.match(r"(?:\\\W|[^\\()\[\]?*+{}.|^$])*", rule)[0]
        literal = re.sub(r"\\(.)", r"\1", head)
        assert re.match(rule, literal), rule
        assert trigger in literal and trigger.encode() in corpus_module._ASCII_MARKS, rule
    assert corpus_module._DROP_RULES[-2][0] == corpus_module._DROP_RULES[-1][0]
    for drops, encode in ((corpus_module._STR_DROPS, str), (corpus_module._BYTE_DROPS, str.encode)):
        assert [(trigger, compiled.pattern) for trigger, compiled in drops] == [
            (encode(trigger), encode(rule)) for trigger, rule in corpus_module._DROP_RULES
        ]


@pytest.mark.parametrize(
    "space", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]
)
def test_whitespace_that_is_no_line_break_stays_inside_the_line(tmp_path, space):
    line = space.join(["Keep", "@Drop", "#drop", "WWW.Drop", "X://drop", "ΑΣ", "end!"])
    path = tmp_path / "corpus.txt"
    path.write_bytes(f"first line\r\n{line}\rlast".encode("utf-8"))
    expected = (("first", "line"), ("keep", "ας", "end"), ("last",))
    assert _tokens(load_corpus(path)) == expected
    assert _reference_messages(["first line", line, "last"]) == expected


def test_final_sigma_at_each_line_end_without_trailing_newline(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes("ΦΑΣ\nΦΑΣ\r\nΦΑΣ\rΦΑΣ".encode("utf-8"))
    assert _tokens(load_corpus(path)) == (("φας",),) * 4


def test_lines_keep_the_scrubs_whitespace_and_readers_split_it(tmp_path):
    # The dropped @mention and the lone punctuation leave their spaces behind.
    # A read that is not ASCII is scrubbed as bytes, which makes its
    # non-ASCII whitespace and \x1c-\x1f spaces and keeps its tabs.
    raw = "one @two\tthree !! four\na  b\nfive\nÜno\u3000@x\x1cthree\n"
    path = tmp_path / "corpus.txt"
    path.write_text(raw, encoding="utf-8")
    corpus = load_corpus(path)
    assert corpus_lines(corpus) == ("one \tthree  four", "a  b", "five", "üno  three")
    assert _tokens(corpus) == _reference_messages(raw.split("\n"))
    assert list(corpus.vocabulary.items()) == [
        ("one", 1), ("three", 2), ("four", 1), ("a", 1), ("b", 1), ("five", 1), ("üno", 1)
    ]
    assert corpus.vocabulary.total() == 8
    assert tuple(corpus.cover_pool) == ("one \tthree  four",)


def test_vocabulary_is_the_count_of_every_lines_words_in_order(tmp_path):
    # Raw chatter over more than two reads: its dropped tokens and runs of
    # tabs and spaces leave whitespace inside and around the loaded lines.
    clean = synth_lines(n_messages=2348, seed=5, vocab_size=800)
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(raw_lines(clean, seed=5)) + "\n", encoding="utf-8")
    corpus = load_corpus(path)
    assert len(corpus) == len(clean) and len(corpus.texts) > 2
    assert sum(line != " ".join(line.split()) for line in corpus_lines(corpus)) > 1024
    expected = Counter(chain.from_iterable(map(str.split, corpus_lines(corpus))))
    assert list(corpus.vocabulary.items()) == list(expected.items())


def _covers(lines):
    """Brute force: the lines with at least MIN_COVER_TOKENS tokens."""
    return tuple(line for line in lines if len(line.split()) >= corpus_module.MIN_COVER_TOKENS)


@pytest.mark.parametrize("read_chars", [1, 2, 3, 5, 8, corpus_module.READ_CHARS])
@given(text=_hazard_text(st.sampled_from("ab \t\u3000@")))
@settings(deadline=None)
def test_cover_pool_holds_the_lines_with_enough_tokens(corpus_file, read_chars, text):
    corpus_file.write_bytes(text.encode("utf-8"))
    try:
        with mock.patch.object(corpus_module, "READ_CHARS", read_chars):
            corpus = load_corpus(corpus_file)
    except EmptyCorpusError:
        return
    assert tuple(corpus.cover_pool) == _covers(corpus_lines(corpus))


# Whitespace that str.split splits on and no line break of a Corpus: ASCII
# controls, the \x1c-\x1f separators, NEL, no-break, em and ideographic spaces.
POOL_SPACES = ["\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ",
               "\xa0", "\u2003", "\u3000"]
_pool_line = st.lists(
    st.lists(st.sampled_from(POOL_SPACES), max_size=2).map("".join)
    | st.sampled_from(["a", "bc"]), max_size=7
).map("".join)


# Lines given in texts of at most 1 to 3 lines, cut at drawn points, and
# cut again at a drawn READ_CHARS, so that texts hold uneven numbers of
# covers.
@pytest.mark.parametrize("most", [1, 2, 3])
@given(
    lines=st.lists(_pool_line, max_size=12),
    cuts=st.lists(st.booleans(), max_size=12),
    read_chars=st.integers(1, 16),
    order=st.randoms(use_true_random=False),
)
# Blank lines and lines of one and two tokens around covers of each spacing.
@example(
    lines=["", "a bc\ta", "bc", "\u3000a\x1cbc\x85a ", "a bc", " ", "bc\ra\xa0abc", "a\x0bbc"],
    cuts=[],
    read_chars=4,
    order=random.Random(0),
)
@settings(deadline=None)
def test_cover_pool_of_lines_matches_brute_force_in_any_order(
    most, lines, cuts, read_chars, order
):
    try:
        corpus = corpus_of(texts_of(lines, most, cuts), read_chars)
    except EmptyCorpusError:
        return
    expected = _covers(lines)
    pool = corpus.cover_pool
    assert len(pool) == len(expected)
    ranks = list(range(len(expected)))
    order.shuffle(ranks)
    assert {k: pool[k] for k in ranks} == dict(enumerate(expected))
    with pytest.raises(IndexError):
        pool[len(expected)]
    with pytest.raises(IndexError):
        pool[-len(expected) - 1]
    if expected:
        assert pool[-1] == expected[-1]
        assert pool[-len(expected)] == expected[0]
    # A fresh corpus draws what a draw over the brute-force tuple draws, and
    # rejects the same covers.
    codebook = Codebook(("0",), {"0": "abc"}, (1, None), 0)
    for seed in range(4):
        fresh = corpus_of(texts_of(lines, most, cuts), read_chars)
        assert _draw_outcome(draw_cover, fresh, codebook, seed) == _draw_outcome(
            _reference_draw, expected, codebook, seed
        )


def _reference_draw(covers, codebook, rng):
    """draw_cover over a tuple of cover lines."""
    if not covers:
        raise SteganizeError(0, NO_COVERS)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        cover = tuple(covers[rng.randrange(len(covers))].split())
        if not contains_codeword(cover, codebook):
            return attempt, cover
    raise SteganizeError(MAX_ATTEMPTS, "every drawn cover contained a codeword")


def _draw_outcome(draw, covers, codebook, seed):
    try:
        return draw(covers, codebook, random.Random(seed))
    except SteganizeError as exc:
        return str(exc)


def test_loaded_corpus_holds_no_per_token_objects(tmp_path):
    # Texts of about one read each: a tuple of token strings per message held
    # 11x the file size, a tuple of lines 1.8x, and the texts hold about 1.02x. The
    # word counts and an index of the covers add under half as much again,
    # where a tuple of cover lines, beside the lines, took it to 2.3x.
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(synth_lines(20_000, 3)) + "\n", encoding="utf-8")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = load_corpus(path)
        retained, peak = (traced - before for traced in tracemalloc.get_traced_memory())
        corpus.vocabulary
        assert len(corpus.cover_pool) > 19_000
        counted = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(corpus) == 20_000
    assert retained <= 1.25 * size
    assert counted <= 1.9 * size
    # The copies a load makes of its text on the way are bounded by the read
    # size, not by the file: default reads stay near a fifth of this file
    # (1.4 MB), where 256K-character reads pass 3/4 of it and reading the
    # whole file at once passes 12 times it.
    assert peak - retained <= size // 2


def test_the_codebook_and_encode_paths_build_no_line_tuple(tmp_path):
    # What gen-codebook and encode do: load, count the words, draw a
    # codebook from them, and hide one secret. No step holds the lines, or
    # the cover lines, in a tuple or list of their own, for good or on the
    # way: one for all 20,000 lines would take about 1.6x the file size.
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(synth_lines(20_000, 3)) + "\n", encoding="utf-8")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        codebook = select_codebook(corpus.vocabulary, (14, None), DIGITS, seed=3)
        held, peak = tracemalloc.get_traced_memory()
        codebook_transient = peak - held
        tracemalloc.reset_peak()
        result = steganize("2718", codebook, corpus, seed=5)
        held, peak = tracemalloc.get_traced_memory()
        encode_transient = peak - held
    finally:
        tracemalloc.stop()
    assert decode(result.stego, codebook) == "2718"
    held = [*vars(corpus).values(), *vars(corpus.cover_pool).values()]
    assert max(len(value) for value in held if isinstance(value, (tuple, list))) < 100
    # What each step takes on the way and lets go of. The codebook path
    # peaks while the word count splits one read-sized text, at about 0.53x
    # this file; the encode stays under a sixth of it, where a tuple of the
    # cover lines made on the way to one draw takes it to 1.8x.
    assert codebook_transient <= size * 2 // 3
    assert encode_transient <= size // 4


def test_the_cut_yields_each_text_as_its_last_piece_arrives():
    taken = []

    def pieces():
        for piece in ["ab", "c\nd", "\n", "efg\nh", "i\n"]:
            taken.append(piece)
            yield piece

    with mock.patch.object(corpus_module, "READ_CHARS", 3):
        texts = corpus_module._cut(pieces())
        assert next(texts) == "abc"
        assert taken == ["ab", "c\nd"]
        # A final line break ends the last line and starts no other.
        assert list(texts) == ["d\nefg", "hi"]


def test_a_line_longer_than_many_reads_is_scrubbed_once(tmp_path):
    long_line = "Wörd! @drop " * 833 + "Wörd"
    assert len(long_line) == 10_000
    path = tmp_path / "corpus.txt"
    path.write_bytes(f"first line\r\n{long_line}\r\nlast".encode("utf-8"))
    with mock.patch.object(corpus_module, "READ_CHARS", 4), mock.patch.object(
        corpus_module, "_scrub_text", wraps=corpus_module._scrub_text
    ) as scrub:
        corpus = load_corpus(path)
    assert _tokens(corpus) == (("first", "line"), ("wörd",) * 834, ("last",))
    # Its pieces are joined once, when the read that ends it arrives.
    assert scrub.call_args_list.count(mock.call(long_line)) == 1


def test_ascii_marks_are_the_ascii_punctuation():
    assert corpus_module._ASCII_MARKS == bytes(c for c in range(128) if _is_mark(chr(c)))
    assert corpus_module._ASCII_TABLE == {c: None if _is_mark(chr(c)) else c for c in range(128)}


def _delete_marks(text):
    """corpus._delete_marks of text's UTF-8 bytes and its non-ASCII characters."""
    data = text.encode("utf-8", "surrogatepass")
    return corpus_module._delete_marks(data, corpus_module._wide_chars(data))


# The sha256 of the UTF-8 text of Unicode 14.0.0's punctuation, in code
# point order.
PUNCTUATION_SHA256 = "9487e554c8d34f7d4b752bd82a35ae45fd8e66b96291572d57233805e741e046"


def test_punctuation_deletion_matches_the_category_rule_at_every_code_point(capsys):
    everything = "".join(map(chr, range(0x110000)))
    table = corpus_module._PUNCTUATION
    runtime = {ord(char) for char in everything if unicodedata.category(char).startswith("P")}
    if CATEGORY_RULE:
        assert table == runtime
    else:
        marks = "".join(map(chr, sorted(table))).encode("utf-8")
        assert hashlib.sha256(marks).hexdigest() == PUNCTUATION_SHA256
        differ = sorted(table ^ runtime)
        with capsys.disabled():
            print(
                f"\nUnicode {unicodedata.unidata_version} and the table's 14.0.0 differ"
                f" on {len(differ)} code points:",
                " ".join(f"U+{code:04X}" for code in differ),
            )
        # Python 3.10's Unicode 13.0 has every mark that 14.0 added unassigned.
        if unicodedata.unidata_version == "13.0.0":
            assert all(unicodedata.category(chr(code)) == "Cn" for code in differ)
    kept = [code not in table for code in range(0x110000)]
    # Fed as one text, which holds letters, every non-ASCII mark there is
    # goes in a str.replace pass of its own.
    assert _delete_marks(everything) == "".join(compress(everything, kept))
    # Fed in pieces of 16 code points, each deletes its marks by bytes and by
    # replace when a non-ASCII letter is added to it, and alone by one
    # bytes.translate when its non-ASCII characters are all marks. The
    # pieces start 8 code points off a multiple of 16, so one holds the
    # surrogate pair U+DBFF U+DC00.
    for start in range(-8, len(everything), 16):
        cut = slice(max(start, 0), start + 16)
        expected = "".join(compress(everything[cut], kept[cut]))
        assert _delete_marks(everything[cut] + "é") == expected + "é", hex(cut.start)
        assert _delete_marks(everything[cut]) == expected, hex(cut.start)


def test_load_corpus_of_reads_alternating_ascii_and_marked_text(tmp_path):
    """Each text is exactly one section of lines, in turn: ASCII only; raw
    chatter, whose ideographic spaces become spaces, with a dropped #café
    token on some lines, so that its few distinct marks go one str.replace
    each; lines with hundreds of distinct marks and the letter é, whose
    marks also go one str.replace each; and the same lines without é, whose
    non-ASCII bytes all go in one bytes.translate. Every non-ASCII read is
    scrubbed as bytes."""
    read_chars = corpus_module.READ_CHARS
    clean = synth_lines(4000, 11)
    noisy = [line + " #café" * (i % 50 == 0) for i, line in enumerate(raw_lines(clean, 11))]
    many = [chr(c) for c in range(0x80, 0x3100) if _is_mark(chr(c))]
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
        # Spaces pad the section to READ_CHARS characters and its final
        # line break, which ends a text.
        raw[-1] += " " * (read_chars + 1 - size)
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(raw) + "\n", encoding="utf-8")
    with mock.patch.object(
        corpus_module, "_scrub_text", wraps=corpus_module._scrub_text
    ) as scrub, mock.patch.object(
        corpus_module, "_drop_tokens", wraps=corpus_module._drop_tokens
    ) as drop:
        loaded = load_corpus(path)
    texts = [call.args[0] for call in scrub.call_args_list]
    assert [len(text) for text in texts[:8]] == [read_chars] * 8
    assert [text.isascii() for text in texts[:8]] == [True, False, False, False] * 2
    routes = [type(call.args[0]) for call in drop.call_args_list]
    assert routes[:8] == [str, bytes, bytes, bytes] * 2
    # The non-ASCII characters of each marked section, but for its spaces.
    wide = [{c for c in set(text) if not c.isascii() and not c.isspace()} for text in texts[1:4]]
    wide_marks = [sum(map(_is_mark, chars)) for chars in wide]
    assert 0 < wide_marks[0] < 100 < wide_marks[1] == wide_marks[2]
    # Chatter holds "\u3000", which is whitespace, and "é", which is no mark;
    # so does the second section.
    assert "\u3000" in texts[1] and "é" in wide[0] and "é" in wide[1]
    assert [marks == len(chars) for marks, chars in zip(wide_marks, wide)] == [False, False, True]
    assert _tokens(loaded) == _reference_messages(raw)


def _containing_reference(texts, words):
    """Brute force: the lines that hold a token and one of words, up to the
    first text in which more than half the lines, blank ones counted, hold
    one word, and every line that holds a token from there."""
    texts = [text.split("\n") for text in texts]
    tail = min(
        (
            number
            for number, lines in enumerate(texts)
            for word in words
            if 2 * sum(word in line for line in lines) > len(lines)
        ),
        default=len(texts),
    )
    return tuple(
        line
        for number, lines in enumerate(texts)
        for line in lines
        if line.strip() and (number >= tail or any(word in line for word in words))
    )


# Short tokens over two letters, so that a word is often a substring of a
# longer token, repeats within a line, or runs from one line into the next;
# "c" occurs in no line. Blank lines count in the half that stops a search.
_short_text = st.text("ab", min_size=1, max_size=3)
_containing_lines = st.lists(
    st.lists(_short_text, max_size=4).map(" ".join) | st.just(" "), min_size=1, max_size=12
)


# The lines are given in texts of at most `most` lines, cut at drawn points,
# and the corpus cuts them again at a drawn READ_CHARS.
@pytest.mark.parametrize("most", [1, 2, 3, 1024])
@given(
    lines=_containing_lines,
    cuts=st.lists(st.booleans(), max_size=12),
    read_chars=st.integers(1, 16),
    words=st.sets(st.one_of(_short_text, st.just("c"), st.just("b a")), max_size=3),
)
# In texts of 2 lines, "a" is in one line of each of the first two texts,
# then in both lines of the third, so every line from there on is taken.
@example(
    lines=["ab", "xx", "ba", "bb", "aa", "ax", "cb", "xx"], cuts=[], read_chars=3, words={"a"}
)
# "ba" and "yz" occur only across the end of a line.
@example(lines=["x b", "a y", "z"], cuts=[], read_chars=16, words={"ba", "yz", "a y"})
@example(lines=["x b", "a y", "z"], cuts=[], read_chars=1, words={"ba", "yz", "a y"})
# In texts of 2 lines, "a" is in one line of the first text and both of the
# third, and "b" in both lines of the second, so the two words take their
# tails in different texts and every line from the second text on is taken.
@example(
    lines=["a", "x", "b", "b", "a", "a", "x", "x"], cuts=[], read_chars=2, words={"a", "b"}
)
# In texts of 2 lines, "b" takes every line from the second text on, and "c"
# is only in lines after that.
@example(
    lines=["a", "x", "b", "b", "c", "x", "x c", "x"],
    cuts=[],
    read_chars=2,
    words={"a", "b", "c"},
)
# In one text, "a" is in two of the three lines that hold a token but in no
# more than half of all six, so the search takes only its lines.
@example(lines=["a", "b", "", "a", " ", ""], cuts=[], read_chars=16, words={"a"})
@settings(deadline=None)
def test_containing_matches_brute_force_and_searches_each_word_once(
    most, lines, cuts, read_chars, words
):
    parts = texts_of(lines, most, cuts)
    if not any(map(str.strip, lines)):
        with pytest.raises(EmptyCorpusError):
            corpus_of(parts, read_chars)
        return
    corpus = corpus_of(parts, read_chars)
    texts = tuple(corpus.containing(words))
    held = text_lines(texts)
    assert held == _containing_reference(corpus.texts, words)
    # Every line that holds a word as a token, and possibly more.
    tokens = [line for line in lines if not words.isdisjoint(line.split())]
    assert set(tokens) <= set(held)
    # A text with no hit gives nothing; from the first text in which
    # more than half the lines hold one word, the corpus's own texts.
    stop = next(
        (
            number
            for number, text in enumerate(corpus.texts)
            for word in words
            if 2 * sum(word in line for line in text.split("\n")) > text.count("\n") + 1
        ),
        len(corpus.texts),
    )
    tail = corpus.texts[stop:]
    assert all(texts) and len(texts) >= len(tail)
    assert all(map(operator.is_, texts[len(texts) - len(tail) :], tail))
    # A repeated request, alone or with words asked for before, gives
    # the same texts.
    assert tuple(corpus.containing(words)) == texts
    for word in words:
        assert text_lines(corpus.containing([word])) == _containing_reference(
            corpus.texts, [word]
        )


def _reference_cut(lines, read_chars):
    """Brute force: lines joined into texts, each ended by the first line
    break at or after read_chars characters from its start, less the texts
    that hold no token."""
    texts, text = [], None
    for line in lines:
        text = line if text is None else f"{text}\n{line}"
        if len(text) >= read_chars:
            texts.append(text)
            text = None
    if text is not None:
        texts.append(text)
    return tuple(text for text in texts if not text.isspace() and text)


# Clean lines, blank ones among them, whose tokens are often substrings of
# other tokens.
_clean_lines = st.lists(
    st.lists(st.sampled_from(["a", "b", "ab"]), max_size=4).map(" ".join) | st.just(" "),
    max_size=12,
)


@given(
    lines=_clean_lines,
    most=st.integers(1, 4),
    cuts=st.lists(st.booleans(), max_size=12),
    read_chars=st.integers(1, 24),
    words=st.sets(st.sampled_from(["a", "b", "ab", "z"]), max_size=2),
)
@settings(deadline=None)
def test_a_corpus_of_any_cut_reads_as_the_loaded_file(
    corpus_file, lines, most, cuts, read_chars, words
):
    # Any cut of clean lines into texts, from one text to one text a line,
    # is the corpus of the lines one a text and of the file of those lines:
    # the same texts, and so the same search.
    corpus_file.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    makers = (
        lambda: Corpus(texts_of(lines, most, cuts)),
        lambda: Corpus(lines),
        lambda: load_corpus(corpus_file),
    )
    with mock.patch.object(corpus_module, "READ_CHARS", read_chars):
        if not any(map(str.strip, lines)):
            for make in makers:
                with pytest.raises(EmptyCorpusError):
                    make()
            return
        cut, corpus, loaded = (make() for make in makers)
    assert cut.texts == corpus.texts == loaded.texts == _reference_cut(lines, read_chars)
    searches = [list(each.containing(words)) for each in (cut, corpus, loaded)]
    assert searches[0] == searches[1] == searches[2]


def test_containing_refuses_the_empty_word():
    for words in ([""], ["a", ""], ["\n"], ["a\nb"], ["a", "b\n"]):
        with pytest.raises(ValueError, match="empty word or a line break"):
            Corpus(["a", "b"]).containing(words)
