import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_the_call_list_prints_the_same_lines_twice_and_covers_every_verb(
    small_corpus_path, tmp_path
):
    lines = small_corpus_path.read_text(encoding="utf-8").splitlines()
    runs = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        runs.append(parity.run_calls("small", 1, lines, tmp_path / side))
    assert runs[0] == runs[1]
    labels = [line.split()[1] for line in runs[0]]
    assert len(labels) == 1 + 3 * parity.ENCODES + 9
    assert {label.split("-")[0].rstrip("0123456789") for label in labels} == {
        "gen", "encode", "decode", "eval"
    }
    assert [label for label in labels if label.startswith("eval-")] == [
        f"eval-{experiment}-{form}"
        for experiment in ("band", "density", "distinguish")
        for form in ("table", "csv", "json")
    ]
    assert {label.split("-")[-1] for label in labels if label.startswith("decode")} == {
        "argument", "stdin"
    }
    # Every call succeeds on a corpus with covers, and each encode with --out
    # wrote its file, so the two files are part of the digest.
    assert all(line.split()[2:4] == ["exit", "0"] for line in runs[0])
    assert sorted(p.name for p in (tmp_path / "a").glob("encode*.json")) == [
        f"encode{i}.json" for i in range(1, parity.ENCODES, 2)
    ]
