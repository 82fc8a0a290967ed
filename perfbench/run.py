"""wordsteg benchmark: the real CLI, timed one call at a time.

Run from the repository root:

    python3 perfbench/run.py --workload encode-10k-noisy --seed 1 --seconds 10 --trace 0

--trace 0 runs each CLI call as a child process (`wordsteg.cli:console_main`
with PYTHONPATH=src), one after another: a closed loop with one client. It
prints the end-to-end metrics. --trace 1 replays the same calls in-process
through wordsteg.cli.main, once untraced and once traced, and prints
per-layer metrics (see spans.py). --smoke shrinks corpora and calls for a
quick check of the benchmark itself.

Report lines come first; the last line of stdout is one JSON object with
correct, attempted, failed and metrics. Details, including a sha256 of every
output, go to .perfbench/results/. The exit code is 0 only when every output
check passed.
"""

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
LAUNCH = "from wordsteg.cli import console_main; console_main()"
# Every run must end within 180 s; a child still running at this point is killed.
RUN_BUDGET_S = 170.0
DIGITS = "0123456789"


@dataclass(frozen=True)
class Workload:
    messages: int
    vocab_size: int
    noisy: bool
    task: str  # "roundtrip": encode, then decode its stdout; "tune": the three evals
    setups: int  # set-up repeats per untraced run; setup_s is their median


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "encode-10k-noisy": Workload(10_000, 6000, True, "roundtrip", 3),
    "eval-10k": Workload(10_000, 6000, False, "tune", 3),
    "session-100k": Workload(100_000, 20000, False, "roundtrip", 2),
}
SMOKE_MESSAGES = 2000
SMOKE_EVAL_TRIALS = "20"
# Enough round trips in smoke mode for encode_tail_s to exist.
SMOKE_TASKS = {"roundtrip": 11, "tune": 2}

# Seconds one gauge unit takes on the reference machine; see Gauge.
REFERENCE_UNIT_S = 0.00065
GAUGE_WORDS = [f"W{i:04d}" for i in range(3000)]
GAUGE_INTERVAL_S = 0.1


class Gauge:
    """Scales wall times to a reference CPU speed.

    On small shared hosts the speed of a CPU drifts, by up to 1.8x within
    seconds, and every timing moves with it. A fixed pure-Python unit of
    string and dict work (about 1 ms) is timed five times before each call,
    every GAUGE_INTERVAL_S during it and five times after it, on the CPU the
    call runs on (main pins the benchmark and its children to one CPU). The
    call's wall time is multiplied by REFERENCE_UNIT_S over the median unit
    time. On a machine where the unit takes REFERENCE_UNIT_S, scaled and wall
    times agree. The units taken during a call cost it about 1% of its time.
    """

    def __init__(self):
        self.readings: list[float] = []

    @staticmethod
    def _unit() -> float:
        start = time.perf_counter()
        counts: dict[tuple[str, str], int] = {}
        tokens = " ".join(GAUGE_WORDS).lower().split()
        for gram in zip(tokens, tokens[1:]):
            counts[gram] = counts.get(gram, 0) + 1
        return time.perf_counter() - start

    def around(self, fn) -> "Call":
        """fn()'s Call, with the factor that scales its wall time."""
        units = [self._unit() for _ in range(5)]
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(GAUGE_INTERVAL_S):
                units.append(self._unit())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            call = fn()
        finally:
            stop.set()
            sampler.join()
        units += [self._unit() for _ in range(5)]
        self.readings.append(statistics.median(units))
        call.scale = REFERENCE_UNIT_S / self.readings[-1]
        return call


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Call:
    verb: str
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float = 0.0
    scale: float = 1.0

    @property
    def time_s(self) -> float:
        """Wall time scaled to the reference CPU speed."""
        return self.wall_s * self.scale


class ChildRunner:
    """Runs each call as a child process and waits for it before the next."""

    def __init__(self, workdir: Path, deadline: float, gauge: Gauge):
        self.workdir = workdir
        self.deadline = deadline
        self.gauge = gauge
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: list[str], stdin: str | None = None) -> Call:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget spent")
        (self.workdir / "stdin.txt").write_text(stdin or "", encoding="utf-8")
        with open(self.workdir / "stdin.txt", "rb") as fin, open(
            self.workdir / "stdout.txt", "wb"
        ) as fout, open(self.workdir / "stderr.txt", "wb") as ferr:
            start = time.perf_counter()
            child = subprocess.Popen(
                argv, cwd=self.workdir, env=self.env, stdin=fin, stdout=fout, stderr=ferr
            )
            watchdog = threading.Timer(remaining, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return Call(
            verb="",
            rc=child.returncode,
            stdout=(self.workdir / "stdout.txt").read_text(encoding="utf-8"),
            stderr=(self.workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
        )

    def run(self, verb: str, args: list[str], stdin: str | None = None) -> Call:
        argv = [sys.executable, "-c", LAUNCH, *verb.split(), *args]
        call = self.gauge.around(lambda: self.spawn(argv, stdin))
        call.verb = verb
        return call


class InProcessRunner:
    """Replays each call through wordsteg.cli.main, once untraced and once traced.

    The traced replay's stdout must equal the untraced one's. trace.overhead_s
    is the traced time minus the untraced time, summed over calls.
    """

    def __init__(self, workdir: Path, cli, tracer, wrappers, gauge: Gauge):
        self.workdir = workdir
        self.cli = cli
        self.tracer = tracer
        self.wrappers = wrappers
        self.gauge = gauge
        self.scales: dict[int, float] = {}  # root span id -> its call's scale
        self.calls = 0
        self.overhead_s = 0.0
        self.traced_s = 0.0
        self.mismatches = []

    def _invoke(self, argv: list[str], stdin: str | None, span) -> Call:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, saved_cwd = sys.stdin, os.getcwd()
        sys.stdin = io.StringIO(stdin or "")
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                with span:
                    try:
                        rc = self.cli.main(argv)
                    except SystemExit as exc:
                        rc = exc.code if isinstance(exc.code, int) else 2
                wall = time.perf_counter() - start
        finally:
            sys.stdin = saved_stdin
            os.chdir(saved_cwd)
        return Call("", rc, out.getvalue(), err.getvalue(), wall)

    def run(self, verb: str, args: list[str], stdin: str | None = None) -> Call:
        argv = [*verb.split(), *args]
        # Alternate which replay goes first: the second one finds warm caches.
        order = [False, True] if self.calls % 2 == 0 else [True, False]
        self.calls += 1
        for traced_replay in order:
            if traced_replay:
                with self.wrappers.installed():
                    root, span = len(self.tracer.spans), self.tracer.span(f"cli.{verb}")
                    traced = self.gauge.around(lambda: self._invoke(argv, stdin, span))
                    self.scales[root] = traced.scale
            else:
                plain = self.gauge.around(
                    lambda: self._invoke(argv, stdin, contextlib.nullcontext())
                )
        self.overhead_s += traced.time_s - plain.time_s
        self.traced_s += traced.time_s
        if (plain.rc, plain.stdout) != (traced.rc, traced.stdout):
            self.mismatches.append(verb)
        traced.verb = verb
        return traced


def _canonical(path: Path) -> bytes:
    """File bytes for hashing; JSON artifacts lose their created_utc stamp."""
    data = path.read_bytes()
    if b'"created_utc"' in data:
        doc = json.loads(data)
        if isinstance(doc, dict):
            doc.pop("created_utc", None)
        data = json.dumps(doc, sort_keys=True).encode("utf-8")
    return data


class Session:
    """The CLI calls of one workload run and the checks on their outputs."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path, runner, probe):
        self.workload = WORKLOADS[name]
        self.smoke = smoke
        self.workdir = workdir
        self.runner = runner
        self.probe = probe
        self.rng = random.Random(f"{name}:calls:{seed}")
        self.codebook_seed = self.rng.randrange(1000)
        self.eval_seed = self.rng.randrange(1000)
        self.has_model = probe.lists(None, "build-model")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calls: list[Call] = []
        self.digests: dict[str, str] = {}
        self.setup_walls: list[float] = []
        self.task_walls: list[float] = []
        self.first_cycle: dict[str, list[str]] = {}
        self.band_rates: list[float] = []

    # -- calls and checks -------------------------------------------------

    def call(self, label: str, verb: str, args: list[str], stdin=None, check=None) -> Call:
        result = self.runner.run(verb, args, stdin)
        self.attempted += 1
        self.calls.append(result)
        key = f"{label}.{verb.replace(' ', '-')}.stdout"
        self.digests[key] = sha256(result.stdout.encode("utf-8"))
        problem = None
        if result.rc != 0:
            problem = f"exit {result.rc}: {result.stderr.strip()[-300:]}"
        elif check is not None:
            try:
                problem = check(result.stdout)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            self.problems.append(f"{label} ({verb}): {problem}")
        return result

    def inputs(self, verb: str) -> list[str]:
        """--corpus and --model, each only where the verb still takes it."""
        args = []
        if self.probe.lists(verb, "--corpus"):
            args += ["--corpus", "corpus.txt"]
        if self.has_model and self.probe.lists(verb, "--model"):
            args += ["--model", "model.json"]
        return args

    def record(self, label: str, filename: str) -> str:
        digest = sha256(_canonical(self.workdir / filename))
        self.digests[f"{label}.{filename}"] = digest
        return digest

    # -- set-up -----------------------------------------------------------

    def setup(self, index: int) -> None:
        label = f"setup{index}"
        start = len(self.calls)
        if self.has_model:
            self.call(label, "build-model", ["--corpus", "corpus.txt", "--out", "model.json"],
                      check=lambda out: self._same_file(label, "model.json"))
        self.call(
            label,
            "gen-codebook",
            [*self.inputs("gen-codebook"), "--band", "14+",
             "--seed", str(self.codebook_seed), "--out", "codebook.json"],
            check=lambda out: self._same_file(label, "codebook.json"),
        )
        self.setup_walls.append(sum(c.time_s for c in self.calls[start:]))

    def _same_file(self, label: str, filename: str) -> str | None:
        digest = self.record(label, filename)
        first = self.digests.get(f"setup0.{filename}", digest)
        return None if digest == first else f"{filename} differs from the first set-up"

    # -- measured tasks ---------------------------------------------------

    def task(self, index: int) -> None:
        start = len(self.calls)
        if self.workload.task == "roundtrip":
            self._roundtrip(f"task{index}")
        else:
            self._tune(f"task{index}")
        self.task_walls.append(sum(c.time_s for c in self.calls[start:]))

    def _roundtrip(self, label: str) -> None:
        secret = "".join(self.rng.choice(DIGITS) for _ in range(self.rng.randint(1, 8)))
        seed = self.rng.randrange(2**31)
        encoded = self.call(
            label, "encode",
            ["--secret", secret, "--codebook", "codebook.json",
             *self.inputs("encode"), "--seed", str(seed)],
        )
        if encoded.rc != 0:
            return

        def check(out: str) -> str | None:
            got = out.strip()
            return None if got == secret else f"decoded {got!r}, sent {secret!r}"

        self.call(label, "decode", ["--codebook", "codebook.json"],
                  stdin=encoded.stdout, check=check)

    def _tune(self, label: str) -> None:
        for experiment in ("band", "density", "distinguish"):
            verb = f"eval {experiment}"
            args = [*self.inputs(verb), "--seed", str(self.eval_seed), "--out", experiment]
            if experiment != "band":
                args += ["--codebook", "codebook.json"]
            if self.smoke:
                args += ["--trials", SMOKE_EVAL_TRIALS]
            self.call(label, verb, args,
                      check=lambda out, e=experiment: self._check_eval(label, e, out))

    def _check_eval(self, label: str, experiment: str, stdout: str) -> str | None:
        doc = json.loads((self.workdir / f"{experiment}.json").read_text(encoding="utf-8"))
        with open(self.workdir / f"{experiment}.csv", newline="", encoding="utf-8") as handle:
            csv_rows = list(csv.DictReader(handle))
        rows, config = doc["results"], doc["config"]
        if len(csv_rows) != len(rows):
            return "CSV and JSON row counts differ"
        if experiment == "band":
            for row in rows:
                if row["skipped"] or row["failures"] != 0 or not 0 <= row["errors"] <= row["trials"]:
                    return f"bad band row {row}"
            self.band_rates.append(len(rows) * config["trials"] / self.calls[-1].time_s)
        elif experiment == "density":
            for row in rows:
                if row["skipped"] or row["kl_nats"] < 0 or not 0 <= row["realized_density"] < 1:
                    return f"bad density row {row}"
        else:
            (row,) = rows
            if row["pairs"] != config["trials"] or not 0 <= row["accuracy"] <= 1:
                return f"bad distinguish row {row}"
        fingerprint = [sha256(stdout.encode("utf-8")), self.record(label, f"{experiment}.csv"),
                       self.record(label, f"{experiment}.json")]
        first = self.first_cycle.setdefault(experiment, fingerprint)
        if fingerprint != first:
            return "output differs from the first call with the same seed"
        return None


class HelpProbe:
    """Asks the CLI under test, once per verb, which verbs and flags it has."""

    def __init__(self, runner: ChildRunner):
        self.runner = runner
        self.pages: dict[str | None, str] = {}

    def lists(self, verb: str | None, word: str) -> bool:
        if verb not in self.pages:
            argv = [sys.executable, "-c", LAUNCH, *(verb.split() if verb else []), "--help"]
            call = self.runner.spawn(argv)
            if call.rc != 0:
                raise RuntimeError(f"wordsteg {verb or ''} --help failed: {call.stderr}")
            self.pages[verb] = call.stdout
        return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", self.pages[verb]) is not None


def percentile_tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return sorted(samples)[k - 1], 100.0 * k / n, n


def make_corpus(name: str, seed: int, smoke: bool, path: Path) -> None:
    from corpora import noisy_lines, synth_lines
    from wordsteg.corpus import scrub_message

    workload = WORKLOADS[name]
    messages = min(workload.messages, SMOKE_MESSAGES) if smoke else workload.messages
    lines = synth_lines(messages, seed=seed, vocab_size=workload.vocab_size)
    if workload.noisy:
        lines = noisy_lines(lines, seed=seed, scrub=scrub_message)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_tasks(session: Session, seconds: float, min_tasks: int, max_tasks: int) -> None:
    """Tasks back to back until `seconds` have passed, within [min, max] tasks."""
    start = time.monotonic()
    index = 0
    while index < min_tasks or (index < max_tasks and time.monotonic() - start < seconds):
        session.task(index)
        index += 1


def measure_untraced(session: Session, seconds: float, smoke: bool):
    """End-to-end metrics for the contract, and the full per-verb report."""
    for index in range(1 if smoke else session.workload.setups):
        session.setup(index)
    setup_calls = len(session.calls)
    if smoke:
        run_tasks(session, 0, SMOKE_TASKS[session.workload.task], 0)
    else:
        # Two tuning cycles at least, so each eval runs twice with the same seed.
        run_tasks(session, seconds, 2 if session.workload.task == "tune" else 1, 10**6)
    walls: dict[str, list[float]] = {}
    for call in session.calls[setup_calls:]:
        walls.setdefault(call.verb, []).append(call.time_s)
    metrics = {
        "setup_s": (statistics.median(session.setup_walls), "s"),
        "task_p50_s": (statistics.median(session.task_walls), "s"),
        "peak_rss_mb": (max(c.rss_mb for c in session.calls), "MB"),
    }
    report = {"setup_s": metrics["setup_s"], "task_p50_s": metrics["task_p50_s"]}
    if session.workload.task == "roundtrip":
        report["encode_p50_s"] = (statistics.median(walls["encode"]), "s")
        tail = percentile_tail(walls["encode"])
        if tail is not None:
            report["encode_tail_s"] = (tail[0], f"s (p{tail[1]:.0f} of {tail[2]} encodes)")
        if "decode" in walls:
            report["decode_p50_s"] = (statistics.median(walls["decode"]), "s")
    else:
        if session.band_rates:
            report["eval_band_trials_per_s"] = (statistics.median(session.band_rates), "trials/s")
        report["eval_density_s"] = (statistics.median(walls["eval density"]), "s")
        report["eval_distinguish_s"] = (statistics.median(walls["eval distinguish"]), "s")
    report["peak_rss_mb"] = metrics["peak_rss_mb"]
    report["failed_ops_ratio"] = (session.failed / session.attempted, "ratio")
    scales = [c.scale for c in session.calls]
    report["speed_scale"] = (statistics.median(scales), "x (median wall-to-reference factor)")
    return metrics, report


def measure_traced(session: Session, gauge: Gauge, seconds: float, smoke: bool, children):
    """Per-layer metrics from one set-up and the tasks that fit in `seconds`."""
    import spans

    startup = []
    for _ in range(2 if smoke else 5):
        argv = [sys.executable, "-c", "import wordsteg.cli"]
        call = gauge.around(lambda: children.spawn(argv))
        if call.rc != 0:
            raise RuntimeError(f"importing wordsteg.cli failed: {call.stderr}")
        startup.append(call.time_s)
    session.setup(0)
    run_tasks(session, seconds, 1, 1 if smoke else 10**6)
    runner = session.runner
    for verb in runner.mismatches:
        session.failed += 1
        session.problems.append(f"{verb}: traced stdout differs from untraced")
    layer, by_call = spans.layer_metrics(runner.tracer, runner.scales)
    for call in by_call.values():
        parts = sum(call[name] for name in spans.LAYERS)
        if abs(parts - call["wall_s"]) > 1e-6:
            session.failed += 1
            session.problems.append(f"{call['verb']}: layer self times do not add up")
    layer["cli.startup_s"] = statistics.median(startup)
    layer["trace.wall_s"] = runner.traced_s
    layer["trace.overhead_s"] = runner.overhead_s
    units = {"_s": "s", "bytes": "bytes", "ratio": "ratio"}
    metrics = {
        name: (value, next((u for k, u in units.items() if name.endswith(k)), "count"))
        for name, value in sorted(layer.items())
    }
    verbs: dict[str, dict] = {}
    for call in by_call.values():
        row = verbs.setdefault(call["verb"], {"calls": 0})
        row["calls"] += 1
        for key in ("wall_s", *spans.LAYERS):
            row[key] = row.get(key, 0.0) + call[key]
    return metrics, verbs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, few calls")
    args = parser.parse_args(argv)

    if not (SRC / "wordsteg" / "cli.py").is_file():
        print(f"error: no wordsteg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import wordsteg.cli

    if not Path(wordsteg.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wordsteg from {wordsteg.cli.__file__}", file=sys.stderr)
        return 2

    # The gauge must read the speed of the CPU that the calls run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workdir = STATE / "work" / f"{tag}-{os.getpid()}"
    results = STATE / "results"
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        gauge = Gauge()
        children = ChildRunner(workdir, time.monotonic() + RUN_BUDGET_S, gauge)
        make_corpus(args.workload, args.seed, args.smoke, workdir / "corpus.txt")
        if args.trace:
            import spans

            tracer = spans.Tracer(f"{tag}-{uuid.uuid4().hex[:8]}")
            modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "wordsteg"}
            wrappers = spans.Wrappers(tracer, modules)
            runner = InProcessRunner(workdir, wordsteg.cli, tracer, wrappers, gauge)
        else:
            runner = children
        session = Session(args.workload, args.seed, args.smoke, workdir, runner, HelpProbe(children))
        if args.trace:
            metrics, verbs = measure_traced(session, gauge, args.seconds, args.smoke, children)
            report = metrics
        else:
            metrics, report = measure_untraced(session, args.seconds, args.smoke)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every run of a workload and seed has these labels, whatever its length.
    first = {k: v for k, v in session.digests.items() if k.startswith(("setup0.", "task0."))}
    outputs = sha256(json.dumps(first, sort_keys=True).encode("utf-8"))
    correct = session.failed == 0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "outputs_sha256": outputs,
        "digests": session.digests,
        "calls": [[c.verb, c.wall_s, c.scale, c.rss_mb, c.rc] for c in session.calls],
        "gauge_readings": gauge.readings,
    }
    print(f"wordsteg benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in report.items():
        print(f"  {args.workload:<17} {name:<24} {value:>14.4f} {unit}")
    if args.trace:
        doc["verbs"] = verbs
        doc["absent"] = runner.wrappers.absent
        print(f"  absent wrappers: {', '.join(runner.wrappers.absent) or 'none'}")
        print("  self time by layer (s):")
        print(f"    {'verb':<22}{'calls':>6}{'wall':>9}" + "".join(f"{n:>10}" for n in spans.LAYERS))
        for verb, row in verbs.items():
            print(f"    {verb:<22}{row['calls']:>6}{row['wall_s']:>9.3f}"
                  + "".join(f"{row[n]:>10.3f}" for n in spans.LAYERS))
        runner.tracer.write(results / f"{tag}.spans.json")
    for problem in session.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    (results / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"  outputs_sha256 {outputs} (set-up and first task)")
    print(f"  results {(results / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
