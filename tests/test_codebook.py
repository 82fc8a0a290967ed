import inspect
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsteg.codebook import (
    DIGITS,
    Codebook,
    band_words,
    format_band,
    load_codebook,
    parse_band,
    save_codebook,
    select_codebook,
)
from wordsteg.corpus import scrub_message
from wordsteg.errors import CodebookValidationError, FormatError, InsufficientBandError


def _fields(codebook):
    """What a saved codebook records, to compare two codebooks by."""
    return codebook.alphabet, codebook.forward, codebook.band, codebook.seed


@pytest.mark.parametrize(
    "text,expected",
    [
        ("4-6", (4, 6)),
        ("14+", (14, None)),
        (" 8-12 ", (8, 12)),
        ("1-1", (1, 1)),
    ],
)
def test_parse_band(text, expected):
    assert parse_band(text) == expected


@pytest.mark.parametrize("text", ["", "7", "x+", "4-", "-6", "6-4", "0-3", "0+"])
def test_parse_band_rejects_junk(text):
    # Each input names its own fault: syntax, order, or a lower bound below 1.
    message = {
        "6-4": "band bounds out of order: '6-4'",
        "0-3": "band lower bound must be at least 1, got '0-3'",
        "0+": "band lower bound must be at least 1, got '0+'",
    }.get(text, f"band must look like 'lo-hi' or 'lo+', got {text!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_band(text)


@pytest.mark.parametrize("band", [(4, 6), (14, None), (1, 1)])
def test_format_band_round_trips(band):
    assert parse_band(format_band(band)) == band


def test_band_words_inclusive_and_sorted(toy_corpus):
    assert band_words(toy_corpus.vocabulary, (2, 3)) == ["cat", "sat", "the"]
    assert band_words(toy_corpus.vocabulary, (3, None)) == ["cat"]
    assert band_words(toy_corpus.vocabulary, (4, None)) == []


def test_select_codebook_requires_its_seed():
    # A default seed would let anyone who holds the corpus redo the draw.
    seed = inspect.signature(select_codebook).parameters["seed"]
    assert seed.default is inspect.Parameter.empty
    assert seed.kind is inspect.Parameter.KEYWORD_ONLY


def test_select_codebook_draws_from_the_band(desk_corpus):
    codebook = select_codebook(desk_corpus.vocabulary, (6, 8), DIGITS, seed=2)
    for word in codebook.forward.values():
        assert 6 <= desk_corpus.vocabulary[word] <= 8


def test_select_codebook_insufficient_band(toy_corpus):
    with pytest.raises(
        InsufficientBandError,
        match=r"^frequency band 1\+ holds 5 candidate words, need 10$",
    ):
        select_codebook(toy_corpus.vocabulary, (1, None), DIGITS, seed=0)


def test_select_codebook_empty_band(toy_corpus):
    with pytest.raises(
        InsufficientBandError,
        match=r"^frequency band 5\+ holds 0 candidate words, need 1$",
    ):
        select_codebook(toy_corpus.vocabulary, (5, None), ("0",), seed=0)


@pytest.mark.parametrize(
    "alphabet, message",
    [((), "alphabet is empty"), (("0", "0"), "alphabet contains duplicate symbols")],
)
def test_select_codebook_checks_the_alphabet_as_codebook_does(toy_corpus, alphabet, message):
    # The band is thin as well; the alphabet is checked first.
    with pytest.raises(CodebookValidationError, match=f"^{message}$"):
        select_codebook(toy_corpus.vocabulary, (5, None), alphabet, seed=0)
    assert issubclass(CodebookValidationError, ValueError)


@pytest.mark.parametrize("symbol", ["", "12"])
def test_every_codebook_refuses_a_symbol_that_is_not_one_character(
    tmp_path, toy_corpus, symbol
):
    # One rule, check_alphabet, for a codebook built, drawn or loaded.
    message = f"^symbol {re.escape(repr(symbol))} is not one character$"
    with pytest.raises(CodebookValidationError, match=message):
        Codebook(("0", symbol), {"0": "cat", symbol: "sat"}, (1, None), 0)
    with pytest.raises(CodebookValidationError, match=message):
        select_codebook(toy_corpus.vocabulary, (1, None), ["0", symbol], seed=0)
    path = tmp_path / "codebook.json"
    doc = {"version": 1, "alphabet": [symbol], "forward": {symbol: "cat"}, "band": [1, None],
           "seed": 0}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CodebookValidationError, match=message):
        load_codebook(path)


def test_codebook_keeps_its_alphabet_as_a_string(toy_corpus):
    assert DIGITS == "0123456789"
    codebook = Codebook(["1", "2"], {"2": "good", "1": "really"}, (1, None), 0)
    assert codebook.alphabet == "12"
    drawn = select_codebook(toy_corpus.vocabulary, (1, None), ("a", "b"), seed=0)
    assert drawn.alphabet == "ab"
    assert select_codebook(toy_corpus.vocabulary, (1, None), "ab", seed=0).forward == drawn.forward


def test_select_codebook_rejects_inverted_band(toy_corpus):
    with pytest.raises(ValueError):
        select_codebook(toy_corpus.vocabulary, (6, 4), ("0",), seed=0)


def test_forward_and_unmap_word(two_word_codebook):
    assert two_word_codebook.forward["2"] == "good"
    assert two_word_codebook.forward["1"] == "really"
    assert two_word_codebook.inverse["good"] == "2"
    assert two_word_codebook.inverse.get("trash") is None


def test_codebook_rejects_duplicate_codewords():
    with pytest.raises(CodebookValidationError):
        Codebook(("0", "1"), {"0": "same", "1": "same"}, (1, None), 0)


def test_codebook_rejects_alphabet_mismatch():
    with pytest.raises(CodebookValidationError):
        Codebook(("0", "1"), {"0": "a"}, (1, None), 0)


def test_codebook_rejects_multi_token_codeword():
    with pytest.raises(CodebookValidationError):
        Codebook(("0",), {"0": "two words"}, (1, None), 0)


def test_codebook_rejects_empty_codeword():
    with pytest.raises(CodebookValidationError):
        Codebook(("0",), {"0": ""}, (1, None), 0)


def test_codebook_rejects_unscrubbed_codeword(tmp_path):
    # Decode scrubs its input first, so these codewords could never match.
    with pytest.raises(CodebookValidationError):
        Codebook(("0", "1"), {"0": "Really", "1": "good"}, (1, None), 0)
    path = tmp_path / "codebook.json"
    doc = {
        "version": 1,
        "alphabet": ["0", "1"],
        "forward": {"0": "really", "1": "good!"},
        "band": [1, None],
        "seed": 0,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CodebookValidationError):
        load_codebook(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "codebook.json"
    # json.load raises RecursionError, not ValueError, on the nested file.
    for raw in [b"]", b'{"version": 1, "seed": "\xff"}', b"[" * 100_000 + b"]" * 100_000]:
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            load_codebook(path)


def test_load_rejects_missing_version(tmp_path):
    path = tmp_path / "codebook.json"
    path.write_text(
        json.dumps({"alphabet": ["0"], "forward": {"0": "x"}, "band": [1, 1], "seed": 0}),
        encoding="utf-8",
    )
    with pytest.raises(FormatError):
        load_codebook(path)


def test_load_rejects_duplicate_codewords(tmp_path):
    path = tmp_path / "codebook.json"
    doc = {
        "version": 1,
        "alphabet": ["0", "1"],
        "forward": {"0": "x", "1": "x"},
        "band": [1, None],
        "seed": 0,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CodebookValidationError):
        load_codebook(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "codebook.json"
    valid = {"version": 1, "alphabet": ["0"], "forward": {"0": "x"}, "band": [1, 1], "seed": 0}
    corrupt = [
        {"version": 1, "alphabet": ["0"]},
        {**valid, "forward": ["x"]},
        # Values of another JSON type than save_codebook writes, which a
        # coercing loader would turn into a different, valid codebook.
        {**valid, "seed": 7.9},
        {**valid, "seed": True},
        {**valid, "seed": "7"},
        {**valid, "band": [4, 6.7]},
        {**valid, "band": [True, None]},
        {**valid, "band": [1]},
        {**valid, "alphabet": "0"},
        {**valid, "alphabet": [0], "forward": {"0": "x"}},
        {**valid, "forward": {"0": 5}},
        {**valid, "version": True},
        {**valid, "version": 1.0},
    ]
    for doc in corrupt:
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FormatError):
            load_codebook(path)
    # Well-typed but empty: a codebook with no symbols can hide nothing.
    path.write_text(json.dumps({**valid, "alphabet": [], "forward": {}}), encoding="utf-8")
    with pytest.raises(CodebookValidationError, match="alphabet is empty"):
        load_codebook(path)


def test_load_rejects_band_out_of_order(tmp_path):
    path = tmp_path / "codebook.json"
    doc = {
        "version": 1,
        "alphabet": ["0"],
        "forward": {"0": "x"},
        "band": [9, 6],
        "seed": 0,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CodebookValidationError):
        load_codebook(path)


def test_interrupted_save_keeps_the_previous_file(tmp_path, two_word_codebook):
    path = tmp_path / "codebook.json"
    save_codebook(two_word_codebook, path)
    before = path.read_bytes()
    # json.dump has written part of the document when it meets the seed.
    unwritable = Codebook(("1",), {"1": "good"}, (1, None), seed=object())
    with pytest.raises(TypeError):
        save_codebook(unwritable, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["codebook.json"]


codewords = st.text(
    st.characters(categories=("Ll", "Lo", "Nd")), min_size=1, max_size=8
).filter(lambda word: scrub_message(word) == word)


@st.composite
def codebooks(draw):
    # One-character symbols, drawn from what st.text draws: any but a surrogate.
    symbol = st.characters(codec="utf-8")
    alphabet = "".join(draw(st.lists(symbol, min_size=1, max_size=12, unique=True)))
    words = draw(
        st.lists(codewords, min_size=len(alphabet), max_size=len(alphabet), unique=True)
    )
    lo = draw(st.integers(1, 10**6))
    hi = draw(st.none() | st.integers(lo, 2 * 10**6))
    seed = draw(st.integers(-(2**63), 2**63))
    return Codebook(alphabet, dict(zip(alphabet, words)), (lo, hi), seed)


@pytest.fixture(scope="module")
def codebook_file(tmp_path_factory):
    return tmp_path_factory.mktemp("codebook") / "codebook.json"


@given(codebook=codebooks())
@settings(deadline=None)
def test_save_load_round_trip_property(codebook_file, codebook):
    save_codebook(codebook, codebook_file)
    assert _fields(load_codebook(codebook_file)) == _fields(codebook)


@given(codebook=codebooks(), data=st.data())
@settings(deadline=None)
def test_truncated_codebook_never_loads_a_different_one(codebook_file, codebook, data):
    save_codebook(codebook, codebook_file)
    raw = codebook_file.read_bytes()
    codebook_file.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    try:
        loaded = load_codebook(codebook_file)
    except (FormatError, CodebookValidationError):
        return
    assert _fields(loaded) == _fields(codebook)  # only the trailing newline was cut


@given(codebook=codebooks(), data=st.data())
@settings(deadline=None)
def test_byte_flipped_codebook_fails_loudly_or_changes_one_value(
    codebook_file, codebook, data
):
    save_codebook(codebook, codebook_file)
    raw = bytearray(codebook_file.read_bytes())
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    codebook_file.write_bytes(raw)
    try:
        loaded = load_codebook(codebook_file)
    except (FormatError, CodebookValidationError):
        return
    # The format has no checksum, so a flip inside one codeword, a band bound
    # or the seed can still load. Symbols and their slots never change
    # silently, and at most one value differs from what was saved.
    assert loaded.alphabet == codebook.alphabet
    changed = [s for s in codebook.alphabet if loaded.forward[s] != codebook.forward[s]]
    changed += [f for f in ("band", "seed") if getattr(loaded, f) != getattr(codebook, f)]
    assert len(changed) <= 1
