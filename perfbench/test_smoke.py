"""Smoke test of the benchmark: every workload, untraced and traced, on tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Report metrics printed by name and unit for each workload, besides the
# contract metrics of BENCHMARK.json.
ROUNDTRIP = {"setup_s", "task_p50_s", "encode_p50_s", "encode_tail_s", "decode_p50_s",
             "peak_rss_mb", "failed_ops_ratio"}
REPORT = {
    "encode-10k-noisy": ROUNDTRIP,
    "eval-10k": {"setup_s", "task_p50_s", "eval_band_trials_per_s", "eval_density_s",
                 "eval_distinguish_s", "peak_rss_mb", "failed_ops_ratio"},
    "session-100k": ROUNDTRIP,
}


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_every_check(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    path = next(line.split()[1] for line in lines if line.strip().startswith("results "))
    doc = json.loads((ROOT / path).read_text(encoding="utf-8"))
    assert doc["problems"] == []
    if trace:
        for verb, row in doc["verbs"].items():
            layers = sum(v for k, v in row.items() if k not in ("calls", "wall_s"))
            assert layers == pytest.approx(row["wall_s"], abs=1e-6), verb
        assert result["metrics"]["trace.wall_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert REPORT[workload] <= set(doc["report"])
        printed = {line.split()[1] for line in lines[1:] if line.startswith(f"  {workload} ")}
        assert REPORT[workload] <= printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
