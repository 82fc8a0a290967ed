import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import wordsteg
from wordsteg import cli
from wordsteg import codebook as codebook_module
from wordsteg import corpus as corpus_module
from wordsteg.cli import main
from wordsteg.codebook import load_codebook
from wordsteg.codec import steganize
from wordsteg.corpus import _PUNCTUATION, load_corpus, scrub_message
from wordsteg.errors import (
    CodebookValidationError,
    EmptyCorpusError,
    FormatError,
    InsufficientBandError,
    SteganizeError,
)
from wordsteg.evaluate import build_pairs, run_band_experiment, run_density_experiment

from synthcorpus import CLOSERS, OPENERS, raw_lines, synth_lines

def write_two_word_codebook(path):
    doc = {
        "version": 1,
        "alphabet": ["1", "2"],
        "forward": {"2": "good", "1": "really"},
        "band": [1, None],
        "seed": 0,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture(scope="session")
def cli_files(small_corpus_path, tmp_path_factory):
    """Codebooks built once through the real CLI."""
    base = tmp_path_factory.mktemp("cli")
    cb_common = base / "cb14.json"
    cb_rare = base / "cb46.json"
    assert (
        main(
            ["gen-codebook", "--corpus", str(small_corpus_path), "--band", "14+",
             "--seed", "3", "--out", str(cb_common)]
        )
        == 0
    )
    assert (
        main(
            ["gen-codebook", "--corpus", str(small_corpus_path), "--band", "4-6",
             "--seed", "3", "--out", str(cb_rare)]
        )
        == 0
    )
    return {
        "corpus": str(small_corpus_path),
        "cb_common": str(cb_common),
        "cb_rare": str(cb_rare),
        "dir": base,
    }


@pytest.mark.parametrize("verb", ["gen-codebook", "encode"])
def test_bad_bytes_past_the_first_read_exit_2_and_write_nothing(cli_files, tmp_path, capsys, verb):
    # The bad byte lies past the first 8 KB of the file, and the reader has
    # scrubbed many small reads before it reaches it.
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(("the cat sat on the mat\n" * 500).encode("utf-8") + b"bad \xff byte\n")
    out = tmp_path / "out.json"
    argv = {
        "gen-codebook": ["gen-codebook", "--band", "1+"],
        "encode": ["encode", "--secret", "1", "--codebook", cli_files["cb_common"]],
    }[verb]
    with mock.patch.object(corpus_module, "READ_CHARS", 64):
        code = main(argv + ["--corpus", str(corpus), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "can't decode byte 0xff" in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_gen_codebook_lists_its_band_once(cli_files, tmp_path, capsys):
    # The printed occupancy and the draw read one list of the band's words.
    listed = []
    original = codebook_module.band_words

    def band_words(counts, band):
        listed.append(band)
        return original(counts, band)

    out = tmp_path / "cb.json"
    argv = ["gen-codebook", "--corpus", cli_files["corpus"], "--band", "14+", "--seed", "3",
            "--out", str(out)]
    with mock.patch.object(cli, "band_words", band_words), mock.patch.object(
        codebook_module, "band_words", band_words
    ):
        assert main(argv) == 0
    assert listed == [(14, None)]
    vocabulary = corpus_module.load_corpus(cli_files["corpus"]).vocabulary
    occupancy = sum(count >= 14 for count in vocabulary.values())
    assert f" occupancy={occupancy} " in capsys.readouterr().out
    assert out.read_bytes() == Path(cli_files["cb_common"]).read_bytes()


def test_eval_band_names_the_empty_pool(tmp_path, capsys):
    # No message has 3 tokens, so every trial fails for the reason encode,
    # eval density and eval distinguish give.
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\nc d\n", encoding="utf-8")
    argv = ["eval", "band", "--corpus", str(corpus), "--bands", "1+", "--alphabet", "01",
            "--trials", "5", "--format", "json"]
    assert main(argv) == 0
    row, = json.loads(capsys.readouterr().out)
    assert row == {
        "band": "1+", "trials": 5, "errors": 0, "failures": 5, "skipped": False,
        "reason": "no covers with >= 3 tokens after 0 attempts",
    }
    assert main(argv[:-2]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[1].split() == "1+ 5 0 5 False no covers with >= 3 tokens after 0 attempts".split()


def test_decode_reads_stdin(cli_files, capsys, monkeypatch):
    code = main(
        ["encode", "--secret", "27", "--codebook", cli_files["cb_common"],
         "--corpus", cli_files["corpus"], "--seed", "4"]
    )
    stego = capsys.readouterr().out.strip()
    assert code == 0

    monkeypatch.setattr("sys.stdin", io.StringIO(stego))
    code = main(["decode", "--codebook", cli_files["cb_common"]])
    piped = capsys.readouterr().out
    assert code == 0

    code = main(["decode", "--codebook", cli_files["cb_common"], stego])
    direct = capsys.readouterr().out
    assert piped == direct == "27\n"


def test_decode_scrubs_raw_input(tmp_path, capsys):
    cb_path = tmp_path / "cb.json"
    write_two_word_codebook(cb_path)
    raw = "Poor cast off to the GOOD trash heap, when no longer REALLY usefull!"
    code = main(["decode", "--codebook", str(cb_path), raw])
    assert code == 0
    assert capsys.readouterr().out == "21\n"


def test_decode_reads_a_codeword_before_a_unicode_14_mark(tmp_path, capsys):
    # U+2E53 is punctuation in Unicode 14.0, which the scrub follows on every
    # Python, so "good⹓" is the codeword "good" on each of them.
    cb_path = tmp_path / "cb.json"
    write_two_word_codebook(cb_path)
    code = main(["decode", "--codebook", str(cb_path), "poor cast off to the good⹓ trash heap"])
    assert code == 0
    assert capsys.readouterr().out == "2\n"


def test_decode_missing_codebook_exits_2(tmp_path, capsys):
    code = main(["decode", "--codebook", str(tmp_path / "nope.json"), "text"])
    assert code == 2


def test_decode_codebook_nested_too_deeply_exits_2(tmp_path, capsys):
    cb_path = tmp_path / "deep.json"
    cb_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code = main(["decode", "--codebook", str(cb_path), "text"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _write_codebook(path, alphabet):
    """A version-1 codebook file written by hand, since no Codebook holds a
    symbol that is not one character."""
    forward = {symbol: f"w{number + 1:04d}" for number, symbol in enumerate(alphabet)}
    doc = {"version": 1, "alphabet": alphabet, "forward": forward, "band": [1, None], "seed": 0}
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("symbol", ["", "12"])
def test_decode_refuses_a_symbol_that_is_not_one_character(tmp_path, capsys, symbol):
    cb_path = tmp_path / "cb.json"
    _write_codebook(cb_path, [symbol, "1"])
    code = main(["decode", "--codebook", str(cb_path), "w0000 w0001 w0002 w0003"])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: symbol {symbol!r} is not one character\n")


@pytest.mark.parametrize("symbol", ["", "12"])
def test_encode_refuses_a_symbol_that_is_not_one_character(cli_files, tmp_path, capsys, symbol):
    cb_path = tmp_path / "cb.json"
    _write_codebook(cb_path, ["1", symbol])
    out = tmp_path / "stego.json"
    code = main(
        ["encode", "--secret", "1", "--codebook", str(cb_path),
         "--corpus", cli_files["corpus"], "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr() == ("", f"error: symbol {symbol!r} is not one character\n")
    assert not out.exists()


@pytest.mark.parametrize("symbol", ["", "12"])
@pytest.mark.parametrize("experiment", ["density", "distinguish"])
def test_eval_refuses_a_symbol_that_is_not_one_character(
    cli_files, tmp_path, capsys, experiment, symbol
):
    # The rule is the codebook's own, so every verb that loads one refuses it.
    cb_path = tmp_path / "cb.json"
    _write_codebook(cb_path, [symbol])
    out = tmp_path / "result"
    code = main(
        ["eval", experiment, "--corpus", cli_files["corpus"], "--codebook", str(cb_path),
         "--trials", "5", "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr() == ("", f"error: symbol {symbol!r} is not one character\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cb.json"]


def test_encode_names_an_unknown_symbol_before_it_reads_the_corpus(cli_files, tmp_path, capsys):
    # The corpus path does not exist: the symbol is named, not the missing file.
    code = main(
        ["encode", "--secret", "2x", "--codebook", cli_files["cb_common"],
         "--corpus", str(tmp_path / "nope.txt")]
    )
    assert code == 2
    assert capsys.readouterr() == ("", "error: secret symbols ['x'] are not in the alphabet\n")


def test_encode_writes_result_artifact(cli_files, tmp_path, capsys):
    out = tmp_path / "stego.json"
    code = main(
        ["encode", "--secret", "88", "--codebook", cli_files["cb_common"],
         "--corpus", cli_files["corpus"], "--seed", "2", "--out", str(out)]
    )
    stego_line = capsys.readouterr().out.strip()
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["tool"] == "wordsteg"
    assert doc["seed"] == 2
    assert doc["results"]["stego"] == stego_line
    # The results are the library's record for the same seed, field by field,
    # with the token tuples joined and the positions as a JSON list.
    result = steganize(
        "88", load_codebook(cli_files["cb_common"]), load_corpus(cli_files["corpus"]), seed=2
    )
    assert doc["results"] == {
        "stego": " ".join(result.stego),
        "cover": " ".join(result.cover),
        "inserted_positions": list(result.inserted_positions),
        "attempts": result.attempts,
        "density": result.density,
    }
    # No timestamp or other run-dependent key: a rerun rewrites the same bytes.
    assert sorted(doc) == ["config", "results", "seed", "tool", "tool_version"]
    # Every value is pinned, so the secret "88" is nowhere in the config: the
    # paths are the test's own, and only the secret's length is recorded.
    assert doc["config"] == {
        "codebook": cli_files["cb_common"],
        "corpus": cli_files["corpus"],
        "secret_len": 2,
    }


def _fake_urandom(monkeypatch, *seeds):
    """Make os.urandom return each seed in turn, as 8 big-endian bytes; a
    call past the last fails the test. Returns the seeds not yet drawn."""
    left = list(seeds)

    def urandom(size):
        assert size == 8 and left, "unexpected os.urandom call"
        return left.pop(0).to_bytes(8, "big")

    monkeypatch.setattr(os, "urandom", urandom)
    return left


def test_encode_without_seed_sends_the_cover_of_a_fresh_seed(
    cli_files, tmp_path, capsys, monkeypatch
):
    # Two calls on one corpus and codebook draw two seeds, so they do not
    # send one cover twice; --out records each seed and stdout shows none.
    left = _fake_urandom(monkeypatch, 2**64 - 1, 12345)
    argv = ["encode", "--secret", "3141", "--codebook", cli_files["cb_common"],
            "--corpus", cli_files["corpus"]]
    sent = []
    for number in range(2):
        out = tmp_path / f"stego{number}.json"
        assert main([*argv, "--out", str(out)]) == 0
        sent.append((capsys.readouterr().out, json.loads(out.read_text(encoding="utf-8"))))
    assert left == []
    assert [doc["seed"] for _, doc in sent] == [2**64 - 1, 12345]
    assert sent[0][0] != sent[1][0]
    for stego, doc in sent:
        assert str(doc["seed"]) not in stego
        assert main([*argv, "--seed", str(doc["seed"])]) == 0
        assert capsys.readouterr().out == stego


def test_gen_codebook_without_seed_records_the_drawn_one(
    cli_files, tmp_path, capsys, monkeypatch
):
    left = _fake_urandom(monkeypatch, 2**64 - 1)
    argv = ["gen-codebook", "--corpus", cli_files["corpus"], "--band", "14+", "--out"]
    assert main([*argv, str(tmp_path / "drawn.json")]) == 0
    printed = capsys.readouterr().out
    assert left == []
    assert load_codebook(tmp_path / "drawn.json").seed == 2**64 - 1
    assert main([*argv, str(tmp_path / "given.json"), "--seed", str(2**64 - 1)]) == 0
    assert capsys.readouterr().out.replace("given", "drawn") == printed
    assert (tmp_path / "drawn.json").read_bytes() == (tmp_path / "given.json").read_bytes()


def test_a_given_seed_and_the_eval_verbs_draw_no_seed(cli_files, tmp_path, monkeypatch):
    # So every pinned output keeps its bytes: the golden and README commands
    # pass --seed, and the eval verbs' seed defaults to 0.
    _fake_urandom(monkeypatch)
    files = ["--corpus", cli_files["corpus"], "--out", str(tmp_path / "out")]
    assert main(["gen-codebook", "--band", "14+", "--seed", "3", *files]) == 0
    assert (tmp_path / "out").read_bytes() == Path(cli_files["cb_common"]).read_bytes()
    codebook = ["--codebook", cli_files["cb_common"]]
    assert main(["encode", "--secret", "21", *codebook, "--seed", "0", *files]) == 0
    for verb in (["eval", "band"], ["eval", "density", *codebook],
                 ["eval", "distinguish", *codebook]):
        assert main([*verb, "--trials", "5", *files]) == 0
        assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["seed"] == 0


def test_encode_exhaustion_exits_4(tmp_path, capsys):
    corpus = tmp_path / "tiny.txt"
    words = " ".join(f"c{i}" for i in range(10))
    corpus.write_text((words + "\n") * 5, encoding="utf-8")
    codebook = tmp_path / "cb.json"
    assert (
        main(["gen-codebook", "--corpus", str(corpus), "--band", "5-5",
              "--out", str(codebook)])
        == 0
    )
    # Every cover holds a codeword, so the whole budget of draws is spent.
    code = main(
        ["encode", "--secret", "7", "--codebook", str(codebook),
         "--corpus", str(corpus)]
    )
    assert code == 4
    assert capsys.readouterr().err == (
        "error: every drawn cover contained a codeword after 1000 attempts\n"
    )


def test_encode_empty_out_exits_2_and_prints_no_stego(cli_files, capsys):
    # A given --out is a path even when empty, as it is for gen-codebook.
    code = main(
        ["encode", "--secret", "21", "--codebook", cli_files["cb_common"],
         "--corpus", cli_files["corpus"], "--out", ""]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize(
    "exc, code",
    [
        (InsufficientBandError("thin band"), 3),
        (SteganizeError(7, "no cover"), 4),
        (FormatError("bad file"), 2),
        (CodebookValidationError("bad codebook"), 2),
        (EmptyCorpusError("no messages"), 2),
        (OSError("disk gone"), 2),
        (ValueError("bad value"), 2),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_each_handled_error_prints_once_and_exits_with_its_code(
    monkeypatch, capsys, exc, code
):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_decode", fail)
    assert main(["decode", "--codebook", "CB", "text"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"


def test_unhandled_error_propagates(monkeypatch):
    def fail(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_decode", fail)
    with pytest.raises(KeyError):
        main(["decode", "--codebook", "CB", "text"])


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--secret", "21", "--codebook", "CB", "--corpus", "CORPUS"],
        ["gen-codebook", "--corpus", "CORPUS", "--band", "14+"],
        ["eval", "band", "--corpus", "CORPUS", "--bands", "14+", "--trials", "5"],
    ],
    ids=["encode", "gen-codebook", "eval-band"],
)
def test_out_in_missing_directory_exits_2(cli_files, tmp_path, capsys, argv):
    # Nothing is printed before the artifact is written, and the error names
    # the path the user gave, not the temporary file the write went through.
    names = {"CB": cli_files["cb_common"], "CORPUS": cli_files["corpus"]}
    out = str(tmp_path / "nodir" / "result")
    assert main([*(names.get(arg, arg) for arg in argv), "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err
    assert out in captured.err
    assert ".tmp" not in captured.err


def test_eval_failed_csv_write_leaves_no_json(cli_files, tmp_path, capsys):
    # <out>.csv is a directory, so the CSV cannot be moved into place; the
    # JSON must not outlive it.
    out = tmp_path / "pair"
    (tmp_path / "pair.csv").mkdir()
    code = main(
        ["eval", "band", "--corpus", cli_files["corpus"],
         "--bands", "14+", "--trials", "5", "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{out}.csv" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.csv"]
    assert list((tmp_path / "pair.csv").iterdir()) == []


def test_eval_failed_json_write_leaves_no_csv(cli_files, tmp_path, capsys):
    # <out>.json is a directory, so the JSON cannot be moved into place after
    # the CSV was; the new CSV must not outlive it.
    out = tmp_path / "pair"
    (tmp_path / "pair.json").mkdir()
    code = main(
        ["eval", "band", "--corpus", cli_files["corpus"],
         "--bands", "14+", "--trials", "5", "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{out}.json" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.json"]
    assert list((tmp_path / "pair.json").iterdir()) == []


def test_eval_failed_json_write_keeps_an_earlier_csv(cli_files, tmp_path, capsys, monkeypatch):
    # The JSON write raises before either file is moved into place, so the
    # CSV of an earlier run keeps its bytes and no new file is left.
    out = tmp_path / "pair"
    (tmp_path / "pair.csv").write_bytes(b"earlier,run\r\n1,2\r\n")

    def fail(handle, doc):
        raise OSError(28, "No space left on device", f"{out}.json")

    monkeypatch.setattr(cli, "write_json", fail)
    code = main(
        ["eval", "band", "--corpus", cli_files["corpus"],
         "--bands", "14+", "--trials", "5", "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No space left on device" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.csv"]
    assert (tmp_path / "pair.csv").read_bytes() == b"earlier,run\r\n1,2\r\n"


def test_eval_band_writes_json_and_csv(cli_files, tmp_path, capsys):
    out = tmp_path / "bands"
    code = main(
        ["eval", "band", "--corpus", cli_files["corpus"],
         "--bands", "4-6,14+", "--trials", "25", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((tmp_path / "bands.json").read_text(encoding="utf-8"))
    assert [row["band"] for row in doc["results"]] == ["4-6", "14+"]
    assert set(doc["config"]) == {"corpus", "bands", "alphabet", "trials"}
    csv_lines = (tmp_path / "bands.csv").read_text(encoding="utf-8").strip().splitlines()
    assert csv_lines[0] == "band,trials,errors,failures,skipped,reason"
    assert len(csv_lines) == 3
    table = capsys.readouterr().out
    assert "band" in table and "errors" in table


def test_eval_band_skips_thin_bands_without_failing(cli_files, capsys):
    code = main(
        ["eval", "band", "--corpus", cli_files["corpus"],
         "--bands", "99999+,4-6", "--trials", "10", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["skipped"] is True
    assert rows[1]["skipped"] is False


def test_eval_density_writes_points(cli_files, tmp_path, capsys):
    out = tmp_path / "density"
    code = main(
        ["eval", "density", "--corpus", cli_files["corpus"],
         "--codebook", cli_files["cb_common"], "--densities", "0.0,0.2",
         "--trials", "40", "--seed", "1", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["target_density"] for row in rows] == [0.0, 0.2]
    assert all(row["kl_nats"] >= 0 for row in rows)
    doc = json.loads((tmp_path / "density.json").read_text(encoding="utf-8"))
    assert doc["seed"] == 1
    assert set(doc["config"]) == {"corpus", "codebook", "densities", "trials"}
    assert doc["results"] == rows
    assert (tmp_path / "density.csv").exists()


def test_eval_distinguish_blind_baseline(cli_files, tmp_path, capsys):
    out = tmp_path / "pairs"
    code = main(
        ["eval", "distinguish", "--corpus", cli_files["corpus"],
         "--codebook", cli_files["cb_common"], "--trials", "80", "--secret-len", "0",
         "--seed", "1", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["pairs"] == 80
    # Identical pairs leave nothing to detect.
    assert 0.3 <= row["accuracy"] <= 0.7
    doc = json.loads((tmp_path / "pairs.json").read_text(encoding="utf-8"))
    assert set(doc["config"]) == {"corpus", "codebook", "secret_len", "trials"}
    assert doc["results"] == [row]


def test_eval_distinguish_dense_rare_words(cli_files, capsys):
    code = main(
        ["eval", "distinguish", "--corpus", cli_files["corpus"],
         "--codebook", cli_files["cb_rare"], "--trials", "60",
         "--seed", "1", "--format", "json"]
    )
    assert code == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["accuracy"] > 0.7


@pytest.mark.parametrize("experiment", ["density", "distinguish"])
def test_eval_empty_alphabet_codebook_exits_2(cli_files, tmp_path, capsys, experiment):
    cb_path = tmp_path / "cb.json"
    doc = {"version": 1, "alphabet": [], "forward": {}, "band": [1, None], "seed": 0}
    cb_path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(
        ["eval", experiment, "--corpus", cli_files["corpus"], "--codebook", str(cb_path),
         "--trials", "5"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error: alphabet is empty" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "alphabet, message",
    [("", "alphabet is empty"), ("00", "alphabet contains duplicate symbols")],
)
@pytest.mark.parametrize("verb", [["gen-codebook", "--band"], ["eval", "band", "--bands"]])
def test_bad_alphabet_exits_2_before_a_thin_band(
    cli_files, tmp_path, capsys, verb, alphabet, message
):
    # No corpus word occurs 5000 times, so the band is thin too; the error
    # still names the alphabet, with the message a loaded codebook gives.
    code = main(
        [*verb, "5000+", "--corpus", cli_files["corpus"], "--alphabet", alphabet,
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message, library",
    [
        (["eval", "band", "--bands", "4-x"], "band must look like 'lo-hi' or 'lo+', got '4-x'",
         None),
        (["gen-codebook", "--band", "six-ish", "--out", "nope.json"],
         "band must look like 'lo-hi' or 'lo+', got 'six-ish'", None),
        (["eval", "density", "--codebook", "nope.json", "--densities", "0.1,x"],
         "--densities items must be numbers, got 'x'", None),
        (["eval", "density", "--codebook", "nope.json", "--densities", ""],
         "--densities items must be numbers, got ''", None),
        (["eval", "density", "--codebook", "nope.json", "--densities", "0.1,"],
         "--densities items must be numbers, got ''", None),
        # Every item is parsed before any is range-checked, so 1.5 is not named.
        (["eval", "density", "--codebook", "nope.json", "--densities", "0.1,1.5,x"],
         "--densities items must be numbers, got 'x'", None),
        (["eval", "density", "--codebook", "nope.json", "--densities", "0.1,1.5"],
         "target density 1.5 outside [0, 1)",
         lambda corpus, codebook: run_density_experiment(corpus, codebook, [0.1, 1.5], 500)),
        (["eval", "density", "--codebook", "nope.json", "--densities", "1.0"],
         "target density 1.0 outside [0, 1)",
         lambda corpus, codebook: run_density_experiment(corpus, codebook, [1.0], 500)),
        # argparse takes "-0.1" as the flag's value, not as an option.
        (["eval", "density", "--codebook", "nope.json", "--densities", "-0.1"],
         "target density -0.1 outside [0, 1)",
         lambda corpus, codebook: run_density_experiment(corpus, codebook, [-0.1], 500)),
        # A bad target is named before a bad trials count.
        (["eval", "density", "--codebook", "nope.json", "--densities", "1.5", "--trials", "0"],
         "target density 1.5 outside [0, 1)",
         lambda corpus, codebook: run_density_experiment(corpus, codebook, [1.5], trials=0)),
        (["eval", "density", "--codebook", "nope.json", "--densities", "nan"],
         "target density nan outside [0, 1)",
         lambda corpus, codebook: run_density_experiment(corpus, codebook, [math.nan], 500)),
        (["eval", "band", "--trials", "0"], "trials must be >= 1",
         lambda corpus, codebook: run_band_experiment(corpus, [(1, None)], trials=0)),
        (["eval", "density", "--codebook", "nope.json", "--trials", "0"], "trials must be >= 1",
         lambda corpus, codebook: run_density_experiment(
             corpus, codebook, [0.0, 0.05, 0.1, 0.2, 0.3], trials=0)),
        (["eval", "distinguish", "--codebook", "nope.json", "--trials", "0"],
         "trials must be >= 1",
         lambda corpus, codebook: build_pairs(corpus, codebook, trials=0, secret_len=2)),
        (["eval", "distinguish", "--codebook", "nope.json", "--secret-len", "-3"],
         "secret_len must be >= 0",
         lambda corpus, codebook: build_pairs(corpus, codebook, trials=200, secret_len=-3)),
        (["gen-codebook", "--band", "14+", "--alphabet", "", "--out", "nope.json"],
         "alphabet is empty", None),
        (["eval", "band", "--alphabet", "00"], "alphabet contains duplicate symbols", None),
    ],
    ids=["band", "gen-codebook-band", "density", "density-empty", "density-trailing-comma",
         "density-parsed-first", "density-range", "density-one", "density-negative",
         "density-range-before-trials", "density-nan", "band-trials",
         "density-trials", "distinguish-trials", "distinguish-secret-len",
         "gen-codebook-alphabet", "band-alphabet"],
)
def test_bad_list_flag_is_reported_before_any_file_is_read(
    tmp_path, capsys, toy_corpus, two_word_codebook, argv, message, library
):
    code = main([*argv, "--corpus", str(tmp_path / "nope.txt")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # A size rule has one definition: the experiment the flag feeds rejects
    # the same value with the same text.
    if library is not None:
        with pytest.raises(ValueError) as excinfo:
            library(toy_corpus, two_word_codebook)
        assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-codebook", "--band", "14+", "--out", "nope.json"],
        ["encode", "--secret", "1", "--codebook", "nope.json"],
        ["eval", "band"],
        ["eval", "density", "--codebook", "nope.json"],
        ["eval", "distinguish", "--codebook", "nope.json"],
    ],
    ids=["gen-codebook", "encode", "band", "density", "distinguish"],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    # random.Random seeds with abs(), so -3 would draw what 3 draws. The
    # refusal is argparse's, before the missing corpus is opened.
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--corpus", str(tmp_path / "nope.txt"), "--seed", "-3"])
    assert excinfo.value.code == 2
    message = "argument --seed: must be a non-negative integer, got '-3'"
    assert message in capsys.readouterr().err


# Each verb's stdout, run in a directory of its own so relative paths print
# alike. The second codebook, from band 3000+, holds the corpus's two most
# frequent words, so the word search stops early on every form, and encode
# and eval distinguish count over nearly every message.
RAW_CLEAN_VERBS = [
    ["gen-codebook", "--corpus", "corpus.txt", "--band", "14+", "--seed", "3",
     "--out", "codebook.json"],
    ["encode", "--secret", "2718", "--codebook", "codebook.json", "--corpus", "corpus.txt",
     "--seed", "5"],
    ["eval", "band", "--corpus", "corpus.txt", "--trials", "60", "--seed", "2"],
    ["eval", "density", "--corpus", "corpus.txt", "--codebook", "codebook.json",
     "--trials", "40", "--seed", "2", "--format", "csv"],
    ["eval", "distinguish", "--corpus", "corpus.txt", "--codebook", "codebook.json",
     "--trials", "30", "--seed", "2", "--format", "json"],
    ["gen-codebook", "--corpus", "corpus.txt", "--band", "3000+", "--alphabet", "01",
     "--seed", "3", "--out", "common.json"],
    ["encode", "--secret", "1001", "--codebook", "common.json", "--corpus", "corpus.txt",
     "--seed", "5"],
    ["eval", "distinguish", "--corpus", "corpus.txt", "--codebook", "common.json",
     "--trials", "20", "--format", "json"],
]


@pytest.fixture(scope="module")
def corpus_forms():
    """Eight forms of one corpus, each a (lines, line end) pair, that scrub to
    the same messages.

    The 3000 messages (about 218K characters clean, 328K raw) cross the
    corpus reader's 64K-character reads, and each form's texts end at the
    first line break at or after 64K characters. Each text takes one route
    through the scrub, and runs the drop passes whose trigger it holds ("@",
    "#", "." for www., ":" for the "://" search and the two URL passes):
    - clean is ASCII, runs no drop pass and loses its marks in one
      str.translate;
    - stops glues ASCII "." and ":" after some clean words, so it runs the
      www. pass and the "://" search but not the "@" or "#" pass;
    - raw and crlf (LF or CRLF line ends) are scrubbed as UTF-8 bytes; their
      ideographic spaces become spaces, so their only other non-ASCII
      characters are marks, which go in one bytes.translate; they hold
      @mentions, #tags and URLs, so they run every drop pass;
    - marks adds lone marks, 40 distinct non-ASCII ones and 10 ASCII, to the
      clean lines, so it is scrubbed as bytes and every non-ASCII byte goes
      in one bytes.translate;
    - cased adds to each marks line a dropped @Émile, an ideographic space
      and the ASCII separator \\x1f, so it is lowered as str, then scrubbed as
      bytes, where the one lookup of its non-ASCII characters and separators
      makes both spaces; É is no mark, so each distinct non-ASCII mark goes
      in one str.replace;
    - accents adds a dropped #café and one or two lone marks from a set of
      six, so it runs the "#" pass and deletes each distinct non-ASCII mark
      with one str.replace;
    - gaps puts three lines that hold no message after every seventh clean
      line (empty, blank, and one that scrubs to nothing), so its texts keep
      blank lines inside and at their edges, where the word search, the word
      and gram counts and the cover pool must pass them by.
    """
    clean = synth_lines(3000, 23)
    lone = "、。「」،؟‐‹›†‡§¶〈〉《》【】〔〕・‘’‚„‰′″‼⁇※" + OPENERS + CLOSERS
    assert all(ord(mark) in _PUNCTUATION for mark in lone)
    assert sum(not mark.isascii() for mark in set(lone)) == 40
    rng = random.Random(23)
    marked = []
    cased = []
    for line in clean:
        words = line.split()
        for _ in range(2):
            words.insert(rng.randrange(len(words) + 1), rng.choice(lone))
        marked.append(" ".join(words))
        words.insert(rng.randrange(len(words) + 1), "@Émile")
        gap = rng.randrange(1, len(words))
        # At least four words, so a space is left for the separator.
        spaced = " ".join(words[:gap]) + "\u3000" + " ".join(words[gap:])
        cased.append(spaced.replace(" ", "\x1f", 1))
    assert all("\u3000" in m and "\x1f" in m for m in cased)
    stops = []
    for line in clean:
        words = line.split()
        for _ in range(2):
            words[rng.randrange(len(words))] += rng.choice(".:")
        stops.append(" ".join(words))
    assert not any("@" in s or "#" in s for s in stops)
    few = "«»¿¡“”"
    assert len(set(few)) == 6
    accents = []
    for line in clean:
        words = line.split()
        words.insert(rng.randrange(len(words) + 1), "#café")
        for _ in range(rng.randint(1, 2)):
            words.insert(rng.randrange(len(words) + 1), rng.choice(few))
        accents.append(" ".join(words))
    blanks = ["", "  \t\u3000 ", "@user #tag https://t.co/x"]
    gaps = []
    for i, line in enumerate(clean, 1):
        gaps.append(line)
        if i % 7 == 0:
            gaps.extend(blanks)
    raw = raw_lines(clean, 23)
    return {
        "clean": (clean, "\n"), "stops": (stops, "\n"), "raw": (raw, "\n"),
        "crlf": (raw, "\r\n"), "marks": (marked, "\n"), "cased": (cased, "\n"),
        "accents": (accents, "\n"), "gaps": (gaps, "\n"),
    }


def _print_all(workdir, lines, end):
    """Each RAW_CLEAN_VERBS stdout, then both codebook files, run in workdir
    on a corpus file of `lines`."""
    workdir.mkdir()
    with open(workdir / "corpus.txt", "w", encoding="utf-8", newline="") as handle:
        handle.write(end.join(lines) + end)
    outputs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        for argv in RAW_CLEAN_VERBS:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0, argv
            outputs.append(out.getvalue())
    return outputs + [(workdir / name).read_bytes() for name in ("codebook.json", "common.json")]


@pytest.fixture(scope="module")
def clean_outputs(corpus_forms, tmp_path_factory):
    outputs = _print_all(tmp_path_factory.mktemp("forms") / "clean", *corpus_forms["clean"])
    assert all(outputs)
    assert "w0000" in json.loads(outputs[-1])["forward"].values()
    return outputs


@pytest.mark.parametrize("form", ["stops", "raw", "crlf", "marks", "cased", "accents", "gaps"])
def test_raw_and_clean_corpora_print_the_same(corpus_forms, clean_outputs, tmp_path, form):
    lines, end = corpus_forms[form]
    # Line by line, the form scrubs to the clean messages, plus lines that
    # scrub to nothing.
    assert [m for m in map(scrub_message, lines) if m] == corpus_forms["clean"][0]
    assert _print_all(tmp_path / form, lines, end) == clean_outputs


def test_usage_error_exits_2(capsys):
    # No flag stands in for a constant: encode has no --max-attempts (the
    # cover budget is codec.MAX_ATTEMPTS) and no --limit (every verb reads the
    # whole corpus), eval density has no --smoothing (the KL is add-one
    # smoothed) and eval distinguish has no --min-density (--secret-len sizes
    # each secret).
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    encode = ["encode", "--secret", "1", "--codebook", "CB", "--corpus", "CORPUS"]
    for argv, flag in (
        (encode, "--max-attempts 5"),
        (encode, "--limit 5"),
        (["eval", "density", "--codebook", "CB", "--corpus", "CORPUS"], "--smoothing 1"),
        (["eval", "distinguish", "--codebook", "CB", "--corpus", "CORPUS"],
         "--min-density 0.3"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *flag.split()])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "wordsteg" in capsys.readouterr().out


def _run_python(*argv, cwd, launcher=(), **options):
    """Run python with argv in a child process on the package under test.

    launcher goes before python on the command line and options go to
    subprocess.run; stdout and stderr are captured unless options say
    otherwise. The child's stdout is block-buffered whatever
    PYTHONUNBUFFERED says here, so only its final flush delivers its output.
    """
    paths = [str(Path(wordsteg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.pop("PYTHONUNBUFFERED", None)
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options}
    return subprocess.run(
        [*launcher, sys.executable, *argv], cwd=cwd, env=env, text=True, timeout=60, **options
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    missing = _run_python(
        "-m", "wordsteg.cli", "gen-codebook", "--corpus", "nope.txt", "--band", "14+",
        "--out", "x.json", cwd=tmp_path,
    )
    assert missing.returncode == 2
    assert "error:" in missing.stderr
    assert not (tmp_path / "x.json").exists()
    version = _run_python("-m", "wordsteg.cli", "--version", cwd=tmp_path)
    assert version.returncode == 0
    assert version.stdout == f"wordsteg {wordsteg.__version__}\n"


def _exhausted_encode(directory):
    """An encode whose every cover holds a codeword (exit 4), as in
    test_encode_exhaustion_exits_4."""
    corpus = directory / "tiny.txt"
    corpus.write_text((" ".join(f"c{i}" for i in range(10)) + "\n") * 5, encoding="utf-8")
    codebook = directory / "tiny.json"
    assert main(["gen-codebook", "--corpus", str(corpus), "--band", "5-5",
                 "--out", str(codebook)]) == 0
    return ["encode", "--secret", "7", "--codebook", str(codebook), "--corpus", str(corpus)]


@pytest.mark.parametrize(
    "case",
    ["gen-codebook", "encode", "eval-band-json", "help", "missing-corpus", "usage",
     "thin-band", "no-cover"],
)
def test_console_script_exits_as_main_returns(cli_files, tmp_path, capsys, monkeypatch, case):
    # python -m wordsteg.cli ends through console_main, which flushes and
    # skips interpreter teardown; every byte main() prints, its exit code and
    # argparse's exits must still reach the parent.
    monkeypatch.chdir(tmp_path)
    corpus, codebook = cli_files["corpus"], cli_files["cb_common"]
    argv = _exhausted_encode(tmp_path) if case == "no-cover" else {
        "gen-codebook": ["gen-codebook", "--corpus", corpus, "--band", "14+", "--out", "cb.json"],
        "encode": ["encode", "--secret", "3141", "--codebook", codebook, "--corpus", corpus,
                   "--seed", "11"],
        "eval-band-json": ["eval", "band", "--corpus", corpus, "--trials", "20",
                           "--format", "json"],
        "help": ["eval", "density", "--help"],
        "missing-corpus": ["gen-codebook", "--corpus", "nope.txt", "--band", "14+",
                           "--out", "x.json"],
        "usage": ["decode"],
        "thin-band": ["gen-codebook", "--corpus", corpus, "--band", "100000+",
                      "--out", "x.json"],
    }[case]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    expected = (code, *capsys.readouterr())
    assert code == {"missing-corpus": 2, "usage": 2, "thin-band": 3, "no-cover": 4}.get(case, 0)
    child = _run_python("-m", "wordsteg.cli", *argv, cwd=tmp_path)
    assert (child.returncode, child.stdout, child.stderr) == expected


def test_console_script_round_trip(cli_files, tmp_path):
    encoded = _run_python(
        "-m", "wordsteg.cli", "encode", "--secret", "3141", "--codebook", cli_files["cb_common"],
        "--corpus", cli_files["corpus"], "--seed", "11", cwd=tmp_path,
    )
    assert (encoded.returncode, encoded.stderr) == (0, "")
    decoded = _run_python(
        "-m", "wordsteg.cli", "decode", "--codebook", cli_files["cb_common"],
        cwd=tmp_path, input=encoded.stdout,
    )
    assert (decoded.returncode, decoded.stdout, decoded.stderr) == (0, "3141\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_console_script_reports_a_failed_final_flush(cli_files, tmp_path):
    # Block-buffered, decode's one line first reaches /dev/full at the final
    # flush; Python's shutdown reports that and exits 120.
    with open("/dev/full", "w") as full:
        child = _run_python(
            "-m", "wordsteg.cli", "decode", "--codebook", cli_files["cb_common"], "w0003",
            cwd=tmp_path, stdout=full,
        )
    assert child.returncode == 120
    assert child.stderr.startswith("Exception ignored")
    assert child.stderr.endswith("OSError: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
def test_console_script_with_stdout_closed_exits_0(cli_files, tmp_path):
    # Python starts with sys.stdout None, so print() writes nothing.
    child = _run_python(
        "-m", "wordsteg.cli", "decode", "--codebook", cli_files["cb_common"], "w0003",
        cwd=tmp_path, launcher=["/bin/sh", "-c", 'exec "$@" >&-', "sh"],
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "", "")


def test_imports_load_only_the_modules_they_need(tmp_path):
    # -S skips site, which on some installs imports typing by itself.
    probe = (
        "import json, sys\n"
        "def ours(): return sorted(n for n in sys.modules if n.split('.')[0] == 'wordsteg')\n"
        "import wordsteg\n"
        "package = ours()\n"
        "import wordsteg.corpus\n"
        "corpus = ours()\n"
        "import wordsteg.cli\n"
        "heavy = [n for n in ('typing', 'dataclasses', 'inspect') if n in sys.modules]\n"
        "unused = [n for n in ('hashlib', '_hashlib', 'datetime', 'csv') if n in sys.modules]\n"
        "print(json.dumps([package, corpus, heavy, unused]))\n"
    )
    child = _run_python("-S", "-c", probe, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    package, corpus, heavy, unused = json.loads(child.stdout)
    assert package == ["wordsteg"]
    assert corpus == ["wordsteg", "wordsteg.corpus", "wordsteg.errors"]
    assert heavy == []
    # hashlib (which loads OpenSSL) and csv wait for the code that uses them,
    # and nothing loads datetime. wordsteg.evaluate itself still loads with cli: the
    # benchmark's traced run wraps only the wordsteg modules loaded right
    # after `import wordsteg.cli`, so importing it lazily waits until that
    # run reads an in-program stage timer instead.
    assert unused == []


def test_eval_band_artifact_in_a_fresh_process(cli_files, tmp_path):
    # A process that has not loaded csv yet still writes the CSV header.
    child = _run_python(
        "-S", "-m", "wordsteg.cli", "eval", "band", "--corpus", cli_files["corpus"],
        "--bands", "14+", "--trials", "5", "--out", "band", cwd=tmp_path,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads((tmp_path / "band.json").read_text(encoding="utf-8"))["seed"] == 0
    header = (tmp_path / "band.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "band,trials,errors,failures,skipped,reason"
