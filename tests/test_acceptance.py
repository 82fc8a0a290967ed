"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line (PASS or FAIL) and covers one promise
the package makes: exact decoding of the documented example, perfect seeded
round trips at scale, decode errors that agree with their exact expected
value, which grows with codeword frequency, distribution shift that grows
with codeword density, the axioms of the reference divergence the density
rows are checked against, a blind-then-sighted distinguisher, and
byte-identical reruns of the parity call list under hash seeds 0 and 1, in
child processes. Run with `pytest tests/test_acceptance.py -v -s` to see
every line.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from wordsteg.codebook import DIGITS, Codebook, select_codebook
from wordsteg.codec import decode, steganize
from wordsteg.evaluate import (
    build_pairs,
    derive_seed,
    distinguisher_accuracy,
    run_band_experiment,
    run_density_experiment,
)

from corpuslines import corpus_lines, cover_lines
from kl_reference import kl_divergence

GOLDEN_STEGO = "poor cast off to the good trash heap when no longer really usefull"

ACCEPTANCE_BANDS = [(4, 6), (6, 8), (8, 12), (14, None)]


def check(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {label}: {status}{suffix}", flush=True)
    assert ok, f"{label}{suffix}"


def test_golden_message_decodes_exactly():
    codebook = Codebook(
        alphabet=("1", "2"),
        forward={"2": "good", "1": "really"},
        band=(1, None),
        seed=0,
    )
    decoded = decode(GOLDEN_STEGO.split(), codebook)
    check("golden-decode", decoded == "21", f"decoded={decoded!r}")


def test_thousand_seeded_round_trips(desk_corpus):
    started = time.monotonic()
    trials_per_band = 250
    bad = 0
    total = 0
    for band_index, band in enumerate(ACCEPTANCE_BANDS):
        codebook = select_codebook(desk_corpus.vocabulary, band, DIGITS, seed=41)
        rng = random.Random(derive_seed(606, "roundtrip", band_index))
        for trial in range(trials_per_band):
            secret = "".join(rng.choice(DIGITS) for _ in range(trial % 4 + 1))
            result = steganize(
                secret,
                codebook,
                desk_corpus,
                seed=derive_seed(606, "roundtrip", band_index, trial),
            )
            total += 1
            inserted = set(result.inserted_positions)
            kept = tuple(
                t for i, t in enumerate(result.stego) if i not in inserted
            )
            words = [result.stego[i] for i in result.inserted_positions]
            ok = (
                decode(result.stego, codebook) == secret
                and kept == result.cover
                and words == [codebook.forward[s] for s in secret]
                and list(result.inserted_positions)
                == sorted(result.inserted_positions)
                and len(result.stego)
                == len(result.cover) + len(secret)
            )
            bad += not ok
    elapsed = time.monotonic() - started
    check(
        "round-trip",
        bad == 0 and total == 1000 and elapsed < 60,
        f"trials={total} bad={bad} elapsed={elapsed:.1f}s",
    )


def test_band_errors_agree_with_exact_collision_rate(desk_corpus):
    # Each band trial draws one cover uniformly from cover_pool and counts an
    # error when it holds a codeword, so a row's errors are
    # Binomial(trials, q), with q the share of cover_pool lines that hold
    # one. The expectation trials * q must rise over the bands, at least
    # doubling from the rarest to the most frequent, and each row must lie
    # within four standard deviations of it (plus one for the integer count).
    # No row is compared with another: one sampled row can break the order
    # by luck alone.
    trials = 2000
    covers = cover_lines(desk_corpus)
    ok = True
    details = []
    for seed in (0, 1, 2):
        rows = run_band_experiment(desk_corpus, ACCEPTANCE_BANDS, DIGITS, trials=trials, seed=seed)
        expected = []
        for index, (band, row) in enumerate(zip(ACCEPTANCE_BANDS, rows)):
            codebook = select_codebook(
                desk_corpus.vocabulary, band, DIGITS, seed=derive_seed(seed, "band", index)
            )
            held = sum(any(t in codebook.inverse for t in line.split()) for line in covers)
            q = held / len(covers)
            mean = trials * q
            bound = 4 * math.sqrt(trials * q * (1 - q)) + 1
            ok = ok and (row["trials"], row["failures"], row["skipped"]) == (trials, 0, False)
            ok = ok and abs(row["errors"] - mean) <= bound
            expected.append(mean)
        ok = ok and all(a < b for a, b in zip(expected, expected[1:]))
        ok = ok and expected[-1] >= 2 * expected[0]
        details.append(
            f"seed {seed}: errors={[row['errors'] for row in rows]} "
            f"expected={[round(m, 1) for m in expected]}"
        )
    check("band-exact", ok, "; ".join(details))


def test_distribution_shift_grows_with_density(desk_corpus):
    started = time.monotonic()
    codebook = select_codebook(desk_corpus.vocabulary, (14, None), DIGITS, seed=41)
    points = run_density_experiment(
        desk_corpus,
        codebook,
        [0.0, 0.05, 0.1, 0.2, 0.3],
        trials=500,
        seed=0,
    )
    elapsed = time.monotonic() - started
    control = points[0]["kl_nats"]
    series = [p["kl_nats"] for p in points[1:]]
    inversions = [
        series[i] - series[i + 1]
        for i in range(len(series) - 1)
        if series[i + 1] < series[i]
    ]
    ok = (
        all(p["kl_nats"] >= 0 for p in points)
        and len(inversions) <= 1
        and all(gap < 2 * control for gap in inversions)
        and elapsed < 300
    )
    rounded = [round(v, 4) for v in series]
    check(
        "density-shift",
        ok,
        f"control={control:.4f} series={rounded} inversions={len(inversions)} "
        f"elapsed={elapsed:.1f}s",
    )


def test_divergence_axioms():
    """The reference KL that test_eval replays every density row with is
    exactly zero on identical distributions, never negative and right by
    hand."""
    rng = random.Random(4242)

    def random_distribution(support):
        weights = [rng.uniform(0.05, 1.0) for _ in support]
        total = sum(weights)
        return {w: v / total for w, v in zip(support, weights)}

    self_ok = True
    for _ in range(200):
        support = [f"s{i}" for i in range(rng.randint(2, 20))]
        p = random_distribution(support)
        self_ok = self_ok and kl_divergence(p, p) == 0.0

    pair_ok = True
    worst = 0.0
    for _ in range(1000):
        support = [f"s{i}" for i in range(rng.randint(2, 20))]
        value = kl_divergence(
            random_distribution(support), random_distribution(support)
        )
        worst = min(worst, value)
        pair_ok = pair_ok and value >= -1e-12

    hand = kl_divergence({"a": 1.0, "b": 0.0}, {"a": 0.5, "b": 0.5})
    hand_ok = abs(hand - math.log(2)) <= 1e-12
    check(
        "divergence-axioms",
        self_ok and pair_ok and hand_ok,
        f"min_pair={worst:.2e} hand={hand:.12f}",
    )


def test_distinguisher_blind_then_sighted(desk_corpus):
    sampler = random.Random(derive_seed(77, "cc-sample"))
    sampled = sampler.sample(corpus_lines(desk_corpus), 1000)
    identical = [(m, m) for m in map(str.split, sampled)]
    blind = distinguisher_accuracy(desk_corpus, identical, seed=5)
    margin = 3 * math.sqrt(0.25 / 1000)
    blind_ok = abs(blind - 0.5) <= margin

    rare = select_codebook(desk_corpus.vocabulary, (4, 6), DIGITS, seed=41)
    pairs = build_pairs(desk_corpus, rare, 200, secret_len=2, seed=5)
    sighted = distinguisher_accuracy(desk_corpus, pairs, seed=6)
    correct = round(sighted * len(pairs))
    # Exact one-sided binomial tail against blind guessing.
    p_value = sum(math.comb(200, k) for k in range(correct, 201)) / 2.0**200
    sighted_ok = sighted > 0.5 and p_value < 0.05
    check(
        "distinguisher",
        blind_ok and sighted_ok,
        f"blind={blind:.3f} (band {0.5 - margin:.3f}..{0.5 + margin:.3f}) "
        f"sighted={sighted:.3f} p={p_value:.2e}",
    )


# tools/parity.py's call list, run in a child process: one digest line per
# call, printed as a JSON list.
_RUN_CALLS = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "from parity import run_calls\n"
    "lines = Path(sys.argv[1]).read_text(encoding='utf-8').splitlines()\n"
    "print(json.dumps(run_calls('small', 1, lines, Path(sys.argv[2]))))\n"
)


def test_pipelines_rerun_byte_identically(small_corpus_path, tmp_path):
    # Each call of the list digests its exit code, stdout, stderr and written
    # files. Two children whose string hashing differs must print the same
    # digests, so no set order reaches an output of any verb.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tools")])
    runs = []
    for hash_seed in ("0", "1"):
        workdir = tmp_path / f"hash-seed-{hash_seed}"
        workdir.mkdir()
        child = subprocess.run(
            [sys.executable, "-c", _RUN_CALLS, str(small_corpus_path), str(workdir)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(child.stdout))
    labels = [line.split()[1] for line in runs[0]]
    # Every verb that takes --seed, every decode input and every eval format.
    assert labels == [
        "gen-codebook",
        *(call for i in range(10)
          for call in (f"encode{i}", f"decode{i}-argument", f"decode{i}-stdin")),
        *(f"eval-{experiment}-{form}" for experiment in ("band", "density", "distinguish")
          for form in ("table", "csv", "json")),
    ]
    # Each encode with --out wrote its file, so the file is in its digest.
    for workdir in tmp_path.iterdir():
        assert sorted(p.name for p in workdir.glob("encode*.json")) == [
            f"encode{i}.json" for i in (1, 3, 5, 7, 9)
        ]
    failed = [line.split()[1] for line in runs[0] if line.split()[2:4] != ["exit", "0"]]
    differing = [a.split()[1] for a, b in zip(runs[0], runs[1]) if a != b]
    check(
        "determinism",
        not failed and runs[0] == runs[1],
        f"calls={len(labels)} failed={failed or 'none'} "
        f"differing under hash seeds 0 and 1={differing or 'none'}",
    )
