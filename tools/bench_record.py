"""Record one point of the benchmark trajectory: BENCH_<pr>.json.

For each workload that BENCHMARK.json declares and each given seed, runs the
benchmark command untraced (--trace 0) as a child of its own in the checkout
measured (this one, or --root), reads the results document the child names
on its "results" line, and writes to this checkout the commit, the
interpreter, the CPU count, every run's correctness, output digest and report
values, and per workload the median and quartiles of each report value.
Exits 1, writing nothing, when any run is incorrect.

    python tools/bench_record.py --pr N --seeds 1 2 3 --seconds 15

A point is a set of single runs on a shared machine; a claimed gain is still
decided on alternating parent/change pairs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(docs: list[dict]) -> dict:
    """Rows and per-workload statistics for results documents, in run order.

    Raises ValueError naming the first incorrect run.
    """
    rows, values, units = [], {}, {}
    for doc in docs:
        if not doc["correct"]:
            raise ValueError(
                f"{doc['workload']} seed {doc['seed']} is incorrect: {doc['problems']}"
            )
        report = {name: entry["value"] for name, entry in doc["report"].items()}
        rows.append({
            "workload": doc["workload"],
            "seed": doc["seed"],
            "correct": doc["correct"],
            "outputs_sha256": doc["outputs_sha256"],
            "report": report,
        })
        for name, entry in doc["report"].items():
            values.setdefault(doc["workload"], {}).setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    stats = {}
    for workload, metrics in values.items():
        stats[workload] = {}
        for name, series in metrics.items():
            q1, median, q3 = (
                statistics.quantiles(series, n=4, method="inclusive")
                if len(series) > 1 else series * 3
            )
            stats[workload][name] = {"median": median, "q1": q1, "q3": q3}
    return {"units": units, "runs": rows, "stats": stats}


def run_one(root: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `root`; its results document."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    # The interpreter recorded in the point is the one that ran the runs.
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    for line in done.stdout.splitlines():
        if line.strip().startswith("results "):
            return json.loads((root / line.split(None, 1)[1]).read_text(encoding="utf-8"))
    raise RuntimeError(f"{workload} seed {seed} exited {done.returncode} "
                       f"with no results line: {done.stderr.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number the point is filed under")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--note", default="", help="what a reader must know about the point")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    docs = []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in args.seeds:
                docs.append(run_one(root, spec["command"], workload, seed, args.seconds))
                print(f"{workload} seed {seed}: correct={docs[-1]['correct']}", file=sys.stderr)
        summary = summarize(docs)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                            capture_output=True, text=True).stdout.strip()
    point = {
        "pr": args.pr,
        "commit": commit,
        "note": args.note,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        **summary,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
