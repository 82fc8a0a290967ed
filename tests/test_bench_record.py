import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _doc(workload, seed, task_s, correct=True):
    """A results document as perfbench/run.py writes it, cut to what is read."""
    return {
        "workload": workload,
        "seed": seed,
        "correct": correct,
        "problems": [] if correct else ["decode: wrong secret"],
        "outputs_sha256": f"digest-{workload}-{seed}",
        "report": {
            "task_p50_s": {"value": task_s, "unit": "s"},
            "speed_scale": {"value": 1.0 + seed / 10, "unit": "x"},
        },
    }


def test_summary_keeps_every_run_and_gives_median_and_quartiles():
    docs = [_doc("a", seed, task_s) for seed, task_s in zip(range(1, 6), (5.0, 1.0, 4.0, 2.0, 3.0))]
    docs.append(_doc("b", 1, 7.0))
    summary = bench_record.summarize(docs)
    assert [(row["workload"], row["seed"]) for row in summary["runs"]] == [
        ("a", 1), ("a", 2), ("a", 3), ("a", 4), ("a", 5), ("b", 1)
    ]
    assert summary["runs"][0] == {
        "workload": "a",
        "seed": 1,
        "correct": True,
        "outputs_sha256": "digest-a-1",
        "report": {"task_p50_s": 5.0, "speed_scale": 1.1},
    }
    assert summary["units"] == {"task_p50_s": "s", "speed_scale": "x"}
    assert summary["stats"]["a"]["task_p50_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert summary["stats"]["a"]["speed_scale"]["median"] == pytest.approx(1.3)
    # One run is its own median and quartiles.
    assert summary["stats"]["b"]["task_p50_s"] == {"median": 7.0, "q1": 7.0, "q3": 7.0}
    json.dumps(summary)


def test_an_incorrect_run_is_refused():
    docs = [_doc("a", 1, 1.0), _doc("a", 2, 1.0, correct=False)]
    with pytest.raises(ValueError, match="a seed 2 is incorrect.*wrong secret"):
        bench_record.summarize(docs)


def _git(status):
    """A stand-in for subprocess.run that answers the recorder's git calls."""
    def run(argv, **kwargs):
        assert argv[0] == "git"
        stdout = status if argv[1] == "status" else "c0ffee\n"
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")
    return run


def test_uncommitted_measured_code_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record.subprocess, "run", _git(" M src/wordsteg/corpus.py\n"))
    monkeypatch.setattr(bench_record, "run_one", lambda *args: pytest.fail("a run started"))
    argv = ["--pr", "7", "--seeds", "1", "--seconds", "1", "--root", str(tmp_path)]
    assert bench_record.main(argv) == 1
    assert "src/wordsteg/corpus.py" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_clean_checkout_is_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record.subprocess, "run", _git(""))
    monkeypatch.setattr(bench_record, "run_one", lambda root, command, w, seed, s: _doc(w, seed, 1.0))
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"command": ["python3", "run.py"], "workloads": [{"name": "a"}]}), encoding="utf-8"
    )
    argv = ["--pr", "7", "--seeds", "1", "2", "--seconds", "1", "--root", str(tmp_path)]
    assert bench_record.main(argv) == 0
    point = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert point["commit"] == "c0ffee"
    assert [(row["workload"], row["seed"]) for row in point["runs"]] == [("a", 1), ("a", 2)]
