"""Golden CLI outputs, pinned byte for byte.

The rerun test in test_acceptance only compares two runs of the same code,
so a change in how many random numbers a cover draw consumes would slip past
it. These strings were recorded once and must not move: any refactor of the
cover pool, the cover draw, the trial loop or of which n-grams each verb
counts has to reproduce them exactly.
"""

import hashlib

import pytest

from wordsteg.cli import main
from wordsteg.codebook import DIGITS, Codebook, load_codebook, save_codebook
from wordsteg.codec import steganize
from wordsteg.corpus import Corpus, load_corpus
from wordsteg.errors import SteganizeError
from wordsteg.evaluate import build_pairs, run_density_experiment

GEN_CODEBOOK = ["gen-codebook", "--corpus", "CORPUS", "--band", "14+", "--seed", "3",
                "--out", "CODEBOOK"]
GOLDEN_GEN_CODEBOOK = "band=14+ occupancy=74 selected=10 out=CODEBOOK\n"
GOLDEN_CODEBOOK_SHA256 = "8bff0dfc5bffc0e6bccfdbf82888b5df43c7f32db4992ed27313525e8389e95c"

# Seed 13 takes the first cover it draws, so any shift in the draw shows.
GOLDEN_ENCODE = (
    "w0003 w0002 w0047 w0000 w0082 w0060 w0000 w0082 w0002 w0108 w0216 w0539\n"
)
# Codewords that never occur in the corpus score 0 in every slot, so each
# goes to the leftmost slot still open.
GOLDEN_ENCODE_ABSENT = (
    "w0003 zz3 zz1 zz4 zz1 w0002 w0000 w0000 w0002 w0108 w0216 w0539\n"
)
GOLDEN_BAND = (
    "band,trials,errors,failures,skipped,reason\r\n"
    "4-6,40,1,0,False,\r\n"
    "6-8,40,6,0,False,\r\n"
    "14+,40,33,0,False,\r\n"
)
GOLDEN_DENSITY = (
    "target_density,realized_density,trials,kl_nats,skipped,reason\r\n"
    "0.0,0.0,40,0.6667470150680447,False,\r\n"
    "0.1,0.1067193675889328,40,0.46501577357956025,False,\r\n"
    "0.3,0.3035439137134052,40,0.4304558371643874,False,\r\n"
)
GOLDEN_DISTINGUISH = (
    "pairs,correct,accuracy,advantage\r\n"
    "120,106,0.8833333333333333,0.7666666666666666\r\n"
)

# A codebook from band 50+ holds the corpus's most frequent word, so most
# messages hold a codeword: the insertion count scans nearly every message,
# and most of the words in them are neither codewords nor cover words.
GEN_CODEBOOK_COMMON = ["gen-codebook", "--corpus", "CORPUS", "--band", "50+", "--seed", "3",
                       "--out", "COMMON"]
GOLDEN_ENCODE_COMMON = (
    "w0381 w0005 w0008 w0223 w0314 w0014 w0001 w0051 w0053 w0001 w0005 w0036 "
    "w0001 w0004 w0018 w0011 w0018 w0003\n"
)
GOLDEN_DISTINGUISH_COMMON = (
    "pairs,correct,accuracy,advantage\r\n"
    "120,72,0.6,0.19999999999999996\r\n"
)

EMPTY_POOL_REASON = "no covers with >= 3 tokens after 0 attempts"


def _argv(files, argv):
    return [files.get(arg, arg) for arg in argv]


@pytest.fixture(scope="module")
def golden_files(small_corpus_path, tmp_path_factory):
    """Placeholder argv words mapped to files built through the real CLI."""
    workdir = tmp_path_factory.mktemp("golden")
    files = {
        "CORPUS": str(small_corpus_path),
        "CODEBOOK": str(workdir / "cb14.json"),
        "ABSENT": str(workdir / "absent.json"),
        "COMMON": str(workdir / "common.json"),
    }
    assert main(_argv(files, GEN_CODEBOOK)) == 0
    assert main(_argv(files, GEN_CODEBOOK_COMMON)) == 0
    absent = {s: f"zz{s}" for s in DIGITS}
    save_codebook(Codebook(DIGITS, absent, (1, None), 0), files["ABSENT"])
    return files


def test_gen_codebook_matches_golden(small_corpus_path, tmp_path, capsys):
    files = {"CORPUS": str(small_corpus_path), "CODEBOOK": str(tmp_path / "cb14.json")}
    assert main(_argv(files, GEN_CODEBOOK)) == 0
    assert capsys.readouterr().out.replace(files["CODEBOOK"], "CODEBOOK") == (
        GOLDEN_GEN_CODEBOOK
    )
    digest = hashlib.sha256((tmp_path / "cb14.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_CODEBOOK_SHA256


FILES = ["--corpus", "CORPUS"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["encode", "--secret", "3141", "--codebook", "CODEBOOK", *FILES,
             "--seed", "13"],
            GOLDEN_ENCODE,
        ),
        (
            ["encode", "--secret", "3141", "--codebook", "ABSENT", *FILES,
             "--seed", "13"],
            GOLDEN_ENCODE_ABSENT,
        ),
        (
            ["encode", "--secret", "3141", "--codebook", "COMMON", *FILES,
             "--seed", "13"],
            GOLDEN_ENCODE_COMMON,
        ),
        (
            ["eval", "band", *FILES, "--bands", "4-6,6-8,14+", "--trials", "40",
             "--seed", "5", "--format", "csv"],
            GOLDEN_BAND,
        ),
        (
            ["eval", "density", *FILES, "--codebook", "CODEBOOK",
             "--densities", "0.0,0.1,0.3", "--trials", "40", "--seed", "5",
             "--format", "csv"],
            GOLDEN_DENSITY,
        ),
        (
            ["eval", "distinguish", *FILES, "--codebook", "CODEBOOK",
             "--trials", "120", "--secret-len", "1", "--seed", "5", "--format", "csv"],
            GOLDEN_DISTINGUISH,
        ),
        (
            ["eval", "distinguish", *FILES, "--codebook", "COMMON",
             "--trials", "120", "--secret-len", "2", "--seed", "5", "--format", "csv"],
            GOLDEN_DISTINGUISH_COMMON,
        ),
    ],
    ids=["encode", "encode-absent-codewords", "encode-common-codewords", "eval-band",
         "eval-density", "eval-distinguish", "eval-distinguish-common-codewords"],
)
def test_cli_stdout_matches_golden(golden_files, capsys, argv, expected):
    capsys.readouterr()
    assert main(_argv(golden_files, argv)) == 0
    assert capsys.readouterr().out == expected


def _steganize_reason(corpus, codebook):
    with pytest.raises(SteganizeError) as excinfo:
        steganize(("0",), codebook, corpus, seed=0)
    return str(excinfo.value)


def _pairs_reason(corpus, codebook):
    with pytest.raises(SteganizeError) as excinfo:
        build_pairs(corpus, codebook, 3, seed=0)
    return str(excinfo.value)


def _density_reason(corpus, codebook):
    points = run_density_experiment(corpus, codebook, [0.0, 0.2], trials=5)
    assert all(p["skipped"] and p["trials"] == 0 for p in points)
    (reason,) = {p["reason"] for p in points}
    return reason


@pytest.mark.parametrize(
    "measure", [_steganize_reason, _pairs_reason, _density_reason],
    ids=["steganize", "build_pairs", "run_density_experiment"],
)
def test_empty_cover_pool_reports_one_reason(measure):
    corpus = Corpus.from_lines(["a b", "c d", "e"])
    codebook = Codebook(("0",), {"0": "q"}, (1, None), 0)
    assert measure(corpus, codebook) == EMPTY_POOL_REASON


def test_common_codebook_holds_the_most_frequent_word(golden_files, small_corpus_path):
    vocabulary = load_corpus(small_corpus_path).vocabulary
    (top, _), = vocabulary.most_common(1)
    assert top in load_codebook(golden_files["COMMON"]).inverse
