import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordsteg import Corpus, EmptyCorpusError, load_corpus, scrub_message, tokenize


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
    tokens = tokenize(scrub_message(raw))
    assert all(tokens)
    assert tokenize(" ".join(tokens)) == tokens


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
    assert corpus.messages[0].tokens == ("the", "cat", "sat")
    assert corpus.messages[0].source_id == 2


def test_load_corpus_limit_caps_usable_messages(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("one two\nthree four\nfive six\n", encoding="utf-8")
    corpus = load_corpus(path, limit=1)
    assert len(corpus) == 1
    assert corpus.messages[0].tokens == ("one", "two")


def test_load_corpus_limit_counts_messages_not_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("@skip\n#skip\nkept line\nalso kept\n", encoding="utf-8")
    corpus = load_corpus(path, limit=1)
    assert len(corpus) == 1
    assert corpus.messages[0].tokens == ("kept", "line")


@pytest.mark.parametrize("limit", [0, -5])
def test_from_lines_rejects_limit_below_one(limit):
    with pytest.raises(ValueError, match="limit must be >= 1"):
        Corpus.from_lines(["one two"], limit=limit)


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
    for message in desk_corpus.messages:
        observed.update(message.tokens)
    assert observed == set(desk_corpus.vocabulary)


def test_messages_are_immutable(toy_corpus):
    message = toy_corpus.messages[0]
    with pytest.raises(AttributeError):
        message.tokens = ("x",)


def test_from_lines_matches_load_corpus(tmp_path):
    lines = ["Ana & Bo!", "@x y", "plain words here"]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    from_file = load_corpus(path)
    from_lines = Corpus.from_lines(lines)
    assert from_file.messages == from_lines.messages
