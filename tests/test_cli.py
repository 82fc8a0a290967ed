import io
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import pytest

import wordsteg
from wordsteg import cli
from wordsteg import corpus as corpus_module
from wordsteg.cli import main
from wordsteg.errors import (
    CodebookValidationError,
    EmptyCorpusError,
    FormatError,
    InsufficientBandError,
    SteganizeError,
)

from synthcorpus import raw_lines, synth_lines

GOLDEN_STEGO = "poor cast off to the good trash heap when no longer really usefull"


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


def test_gen_codebook_missing_corpus_exits_2(tmp_path, capsys):
    # gen-codebook draws its codebook from --corpus, so a missing corpus is an I/O error.
    out = tmp_path / "cb.json"
    code = main(
        ["gen-codebook", "--corpus", str(tmp_path / "nope.txt"), "--band", "1+",
         "--out", str(out)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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


def test_gen_codebook_prints_occupancy(cli_files, tmp_path, capsys):
    out = tmp_path / "cb.json"
    code = main(
        ["gen-codebook", "--corpus", cli_files["corpus"], "--band", "8-12",
         "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "occupancy=" in captured.out
    assert "band=8-12" in captured.out


def test_gen_codebook_insufficient_band_exits_3(cli_files, tmp_path, capsys):
    code = main(
        ["gen-codebook", "--corpus", cli_files["corpus"], "--band", "99999+",
         "--out", str(tmp_path / "cb.json")]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_gen_codebook_bad_band_syntax_exits_2(cli_files, tmp_path):
    code = main(
        ["gen-codebook", "--corpus", cli_files["corpus"], "--band", "six-ish",
         "--out", str(tmp_path / "cb.json")]
    )
    assert code == 2


def test_encode_then_decode_round_trip(cli_files, capsys):
    code = main(
        ["encode", "--secret", "3141", "--codebook", cli_files["cb_common"],
         "--corpus", cli_files["corpus"], "--seed", "11"]
    )
    stego = capsys.readouterr().out.strip()
    assert code == 0
    assert stego

    code = main(["decode", "--codebook", cli_files["cb_common"], stego])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3141"


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


def test_decode_known_message(tmp_path, capsys):
    cb_path = tmp_path / "cb.json"
    write_two_word_codebook(cb_path)
    code = main(["decode", "--codebook", str(cb_path), GOLDEN_STEGO])
    assert code == 0
    assert capsys.readouterr().out == "21\n"


def test_decode_scrubs_raw_input(tmp_path, capsys):
    cb_path = tmp_path / "cb.json"
    write_two_word_codebook(cb_path)
    raw = "Poor cast off to the GOOD trash heap, when no longer REALLY usefull!"
    code = main(["decode", "--codebook", str(cb_path), raw])
    assert code == 0
    assert capsys.readouterr().out == "21\n"


def test_decode_missing_codebook_exits_2(tmp_path, capsys):
    code = main(["decode", "--codebook", str(tmp_path / "nope.json"), "text"])
    assert code == 2


def test_decode_codebook_nested_too_deeply_exits_2(tmp_path, capsys):
    cb_path = tmp_path / "deep.json"
    cb_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code = main(["decode", "--codebook", str(cb_path), "text"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_encode_unknown_symbol_exits_2(cli_files, capsys):
    code = main(
        ["encode", "--secret", "2x", "--codebook", cli_files["cb_common"],
         "--corpus", cli_files["corpus"]]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
    assert "created_utc" in doc
    # Every value is pinned, so the secret "88" is nowhere in the config: the
    # paths are the test's own, and only the secret's length is recorded.
    assert doc["config"] == {
        "codebook": cli_files["cb_common"],
        "corpus": cli_files["corpus"],
        "secret_len": 2,
    }


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


@pytest.mark.parametrize(
    "argv",
    [["eval", "distinguish", "--codebook", "CB", "--secret-len", "-3", "--trials", "5"]],
    ids=["distinguish"],
)
def test_eval_negative_secret_len_exits_2(cli_files, capsys, argv):
    argv = [cli_files["cb_common"] if arg == "CB" else arg for arg in argv]
    assert main([*argv, "--corpus", cli_files["corpus"]]) == 2
    captured = capsys.readouterr()
    assert "secret_len must be >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("experiment", ["band", "density", "distinguish"])
def test_eval_zero_trials_exits_2(cli_files, capsys, experiment):
    # The error names the flag the user typed, the same for every verb.
    codebook = [] if experiment == "band" else ["--codebook", cli_files["cb_common"]]
    code = main(
        ["eval", experiment, "--corpus", cli_files["corpus"], *codebook, "--trials", "0"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error: trials must be >= 1" in captured.err
    assert captured.out == ""


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
    "densities, item", [("", "''"), ("0.1,", "''"), ("0.1,abc", "'abc'")]
)
def test_eval_density_bad_densities_item_exits_2(cli_files, capsys, densities, item):
    code = main(
        ["eval", "density", "--corpus", cli_files["corpus"], "--codebook",
         cli_files["cb_common"], "--densities", densities, "--trials", "5"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: --densities items must be numbers, got {item}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "band", "--bands", "4-x"], "band must look like 'lo-hi' or 'lo+', got '4-x'"),
        (["eval", "density", "--codebook", "nope.json", "--densities", "0.1,x"],
         "--densities items must be numbers, got 'x'"),
    ],
    ids=["band", "density"],
)
def test_bad_list_flag_is_reported_before_any_file_is_read(tmp_path, capsys, argv, message):
    code = main([*argv, "--corpus", str(tmp_path / "nope.txt")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Each verb's stdout, run in a directory of its own so relative paths print alike.
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
]


def test_raw_and_clean_corpora_print_the_same(tmp_path, capsys, monkeypatch):
    # 2500 messages cross the corpus reader's 1024-line blocks; the raw lines
    # keep the gaps a scrub leaves.
    clean = synth_lines(n_messages=2500, seed=19, vocab_size=900)
    outputs = {}
    for form, lines in (("clean", clean), ("raw", raw_lines(clean, seed=19))):
        workdir = tmp_path / form
        workdir.mkdir()
        (workdir / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.chdir(workdir)
        outputs[form] = []
        for argv in RAW_CLEAN_VERBS:
            assert main(argv) == 0, argv
            outputs[form].append(capsys.readouterr().out)
        outputs[form].append((workdir / "codebook.json").read_bytes())
    assert all(outputs["clean"])
    assert outputs["raw"] == outputs["clean"]


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


def _run_python(*argv, cwd):
    """Run python with argv in a child process on the package under test."""
    paths = [str(Path(wordsteg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
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
    # hashlib (which loads OpenSSL), datetime and csv wait for the code that
    # uses them. wordsteg.evaluate itself still loads with cli: the
    # benchmark's traced run wraps only the wordsteg modules loaded right
    # after `import wordsteg.cli`, so importing it lazily waits until that
    # run reads an in-program stage timer instead.
    assert unused == []


def test_eval_band_artifact_in_a_fresh_process(cli_files, tmp_path):
    # A process that has not loaded datetime or csv yet still stamps the
    # artifact and writes the CSV header.
    child = _run_python(
        "-S", "-m", "wordsteg.cli", "eval", "band", "--corpus", cli_files["corpus"],
        "--bands", "14+", "--trials", "5", "--out", "band", cwd=tmp_path,
    )
    assert child.returncode == 0, child.stderr
    doc = json.loads((tmp_path / "band.json").read_text(encoding="utf-8"))
    stamp = datetime.fromisoformat(doc["created_utc"])
    assert stamp.utcoffset() == timedelta(0)
    assert doc["created_utc"] == stamp.isoformat()
    header = (tmp_path / "band.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "band,trials,errors,failures,skipped,reason"
