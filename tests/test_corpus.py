import tracemalloc
import unicodedata
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsteg import Corpus, EmptyCorpusError, load_corpus, scrub_message
from wordsteg import corpus as corpus_module

from synthcorpus import synth_lines


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
    assert corpus.total_tokens == 9
    assert corpus.vocabulary == {"the": 2, "cat": 3, "sat": 2, "ran": 1, "a": 1}


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


def test_vocabulary_counts_sum_to_total_tokens(desk_corpus):
    assert sum(desk_corpus.vocabulary.values()) == desk_corpus.total_tokens
    observed = set()
    for line in desk_corpus.lines:
        observed.update(line.split())
    assert observed == set(desk_corpus.vocabulary)


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


# Small blocks make hypothesis's short inputs cross block boundaries.
@pytest.mark.parametrize("chunk_lines", [1, 2, 3, corpus_module._CHUNK_LINES])
@given(text=_hazard_text(st.characters(exclude_categories=("Cs",))))
@settings(deadline=None)
def test_load_corpus_matches_per_line_reference(tmp_path_factory, chunk_lines, text):
    path = tmp_path_factory.mktemp("whole") / "corpus.txt"
    # Bytes on disk, so "\r" and "\r\n" reach the reader untranslated.
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(corpus_module, "_CHUNK_LINES", chunk_lines):
        built = _messages_or_none(lambda: load_corpus(path))
    assert built == _reference_messages(_universal_lines(text))


@pytest.mark.parametrize("chunk_lines", [1, 2, 3, corpus_module._CHUNK_LINES])
@given(lines=st.lists(_hazard_text(st.characters(exclude_categories=()))))
def test_from_lines_matches_per_line_reference(chunk_lines, lines):
    # Any code point, surrogates too; an element holding "\n" is one message.
    with mock.patch.object(corpus_module, "_CHUNK_LINES", chunk_lines):
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


@pytest.mark.parametrize("chunk_lines", [1, 2, 3, corpus_module._CHUNK_LINES])
@given(lines=st.lists(marker_text))
def test_from_lines_of_marker_dense_text_matches_reference(chunk_lines, lines):
    with mock.patch.object(corpus_module, "_CHUNK_LINES", chunk_lines):
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
    assert corpus.total_tokens == 6
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
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = load_corpus(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(corpus) == 20_000
    assert retained <= 3 * path.stat().st_size
