"""Byte-identity check of the wordsteg CLI: one digest line per call.

For seeds 1-3 it writes the corpus of every workload in perfbench/run.py's
WORKLOADS, with that workload's message count, vocabulary size and noise,
through perfbench/corpora.py; then one corpus with no cover. On each it
runs a fixed list of calls in process through wordsteg.cli.main, every
verb that takes --seed with one: gen-codebook --band 14+, ten encodes (half
with --out), a decode of each stego by argument and by stdin, and eval
band, density and distinguish in every --format, with --out. The codebook and eval seeds of a corpus are
derived from its workload name and seed as perfbench/run.py's Session
derives them. Each call prints one line: its label, its exit code and the
sha256 of its exit code, stdout, stderr and every file it wrote. To compare two checkouts,
run

    PYTHONPATH=<checkout>/src python tools/parity.py > side.txt

once for each and diff the two files. The wordsteg imported is the one on
PYTHONPATH; the number of calls and the runtime go to stderr.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from wordsteg import cli
from wordsteg.codebook import DIGITS
from wordsteg.corpus import scrub_message

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    """perfbench/<name>.py as a module, read only."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpora, bench = _load("corpora"), _load("run")

ENCODES = 10
EXPERIMENTS = ("band", "density", "distinguish")
FORMATS = ("table", "csv", "json")


def workloads():
    """(workload name, seed, corpus lines) for every corpus checked."""
    for seed in (1, 2, 3):
        for name, workload in bench.WORKLOADS.items():
            lines = corpora.synth_lines(workload.messages, seed, workload.vocab_size)
            if workload.noisy:
                lines = corpora.noisy_lines(lines, seed, scrub_message)
            yield name, seed, lines
    # Two tokens a line, one fewer than a cover needs: every draw finds none.
    lines = corpora.synth_lines(2000, 1)
    yield "no-cover", 1, [" ".join(line.split()[:2]) for line in lines]


def _invoke(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of cli.main(argv), run in process."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def _stats(workdir: Path) -> dict[str, tuple[int, int, int]]:
    """Per file: what changes when a call writes it, atomically or in place."""
    stats = {}
    for path in workdir.iterdir():
        stat = path.stat()
        stats[path.name] = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
    return stats


def run_calls(name: str, seed: int, lines: list[str], workdir: Path) -> list[str]:
    """Write lines to workdir/corpus.txt and run the call list in workdir;
    returns one "<name>/<seed> <call> exit <code> <sha256>" line per call."""
    workdir = workdir.resolve()
    (workdir / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rng = random.Random(f"{name}:calls:{seed}")
    codebook_seed, eval_seed = rng.randrange(1000), rng.randrange(1000)
    digests = []

    def call(label: str, argv: list[str], stdin: str = "") -> str:
        before = _stats(workdir)
        code, out, err = _invoke(argv, stdin)
        after = _stats(workdir)
        written = {
            file: hashlib.sha256((workdir / file).read_bytes()).hexdigest()
            for file in sorted(after)
            if after[file] != before.get(file)
        }
        doc = json.dumps([code, out, err, written]).encode("utf-8")
        digests.append(f"{name}/{seed} {label} exit {code} {hashlib.sha256(doc).hexdigest()}")
        return out

    saved_cwd = os.getcwd()
    # Relative paths, so the config every artifact records is the same on
    # both sides.
    os.chdir(workdir)
    try:
        call("gen-codebook", ["gen-codebook", "--corpus", "corpus.txt", "--band", "14+",
                              "--seed", str(codebook_seed), "--out", "codebook.json"])
        for index in range(ENCODES):
            secret = "".join(rng.choice(DIGITS) for _ in range(rng.randint(1, 8)))
            argv = ["encode", "--secret", secret, "--codebook", "codebook.json",
                    "--corpus", "corpus.txt", "--seed", str(rng.randrange(2**31))]
            if index % 2:
                argv += ["--out", f"encode{index}.json"]
            stego = call(f"encode{index}", argv)
            call(f"decode{index}-argument", ["decode", "--codebook", "codebook.json",
                                             *stego.split()])
            call(f"decode{index}-stdin", ["decode", "--codebook", "codebook.json"], stego)
        for experiment in EXPERIMENTS:
            for form in FORMATS:
                argv = ["eval", experiment, "--corpus", "corpus.txt", "--seed", str(eval_seed),
                        "--format", form, "--out", f"{experiment}-{form}"]
                if experiment != "band":
                    argv += ["--codebook", "codebook.json"]
                call(f"eval-{experiment}-{form}", argv)
    finally:
        os.chdir(saved_cwd)
    return digests


def main() -> None:
    start, calls = time.perf_counter(), 0
    for name, seed, lines in workloads():
        with tempfile.TemporaryDirectory() as workdir:
            for line in run_calls(name, seed, lines, Path(workdir)):
                print(line, flush=True)
                calls += 1
    print(f"{calls} calls in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
