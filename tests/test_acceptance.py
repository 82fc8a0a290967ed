"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line (PASS or FAIL) and covers one promise
the package makes: exact decoding of the documented example, perfect seeded
round trips at scale, decode errors that grow with codeword frequency,
distribution shift that grows with codeword density, the divergence axioms,
a blind-then-sighted distinguisher, and byte-identical reruns. Run with
`pytest tests/test_acceptance.py -v -s` to see every line.
"""

import json
import math
import os
import random
import time

from wordsteg.cli import main
from wordsteg.codebook import DIGITS, Codebook, select_codebook
from wordsteg.codec import decode, steganize
from wordsteg.evaluate import (
    build_pairs,
    derive_seed,
    distinguisher_accuracy,
    kl_divergence,
    run_band_experiment,
    run_density_experiment,
)

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
    decoded = "".join(decode(GOLDEN_STEGO.split(), codebook))
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
            secret = tuple(
                rng.choice(DIGITS) for _ in range(trial % 4 + 1)
            )
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


def test_decode_errors_grow_with_codeword_frequency(desk_corpus):
    started = time.monotonic()
    rows = run_band_experiment(
        desk_corpus,
        ACCEPTANCE_BANDS,
        DIGITS,
        trials=2000,
        seed=0,
    )
    elapsed = time.monotonic() - started
    errors = [row["errors"] for row in rows]
    ok = (
        not any(row["skipped"] for row in rows)
        and all(errors[i] <= errors[i + 1] for i in range(len(errors) - 1))
        and errors[-1] >= 2 * errors[0]
        and elapsed < 300
    )
    check("band-errors", ok, f"errors={errors} elapsed={elapsed:.1f}s")


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
    rng = random.Random(4242)

    def random_distribution(support):
        weights = [rng.uniform(0.05, 1.0) for _ in support]
        total = sum(weights)
        return {w: v / total for w, v in zip(support, weights)}

    self_ok = True
    for _ in range(200):
        support = [f"s{i}" for i in range(rng.randint(2, 20))]
        p = random_distribution(support)
        self_ok = self_ok and abs(kl_divergence(p, p)) <= 1e-12

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
    hand_ok = abs(hand - math.log(2)) <= 1e-9
    check(
        "divergence-axioms",
        self_ok and pair_ok and hand_ok,
        f"min_pair={worst:.2e} hand={hand:.12f}",
    )


def test_distinguisher_blind_then_sighted(desk_corpus):
    sampler = random.Random(derive_seed(77, "cc-sample"))
    sampled = sampler.sample(desk_corpus.lines, 1000)
    identical = [(m, m) for m in map(str.split, sampled)]
    blind = distinguisher_accuracy(desk_corpus, identical, seed=5)
    margin = 3 * math.sqrt(0.25 / 1000)
    blind_ok = abs(blind - 0.5) <= margin

    rare = select_codebook(desk_corpus.vocabulary, (4, 6), DIGITS, seed=41)
    pairs = build_pairs(desk_corpus, rare, 200, seed=5)
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


def _strip_timestamp(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(line for line in lines if '"created_utc"' not in line)


def _run_pipeline(corpus, workdir):
    # Identical argv both times (relative output paths, run from workdir),
    # so the artifacts must agree byte for byte apart from the timestamp.
    commands = [
        ["gen-codebook", "--corpus", corpus, "--band", "14+", "--seed", "9",
         "--out", "codebook.json"],
        ["encode", "--secret", "0451", "--codebook", "codebook.json",
         "--corpus", corpus, "--seed", "12", "--out", "stego.json"],
        ["eval", "band", "--corpus", corpus, "--bands", "4-6,14+", "--trials", "40",
         "--seed", "3", "--out", "bands"],
        ["eval", "density", "--corpus", corpus, "--codebook", "codebook.json",
         "--densities", "0.0,0.2", "--trials", "30", "--seed", "3", "--out", "density"],
        ["eval", "distinguish", "--corpus", corpus, "--codebook", "codebook.json",
         "--trials", "30", "--secret-len", "2", "--seed", "3", "--out", "pairs"],
    ]
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for command in commands:
            code = main(command)
            assert code == 0, f"pipeline step failed: {command}"
    finally:
        os.chdir(previous)


def test_pipelines_rerun_byte_identically(small_corpus_path, tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    _run_pipeline(str(small_corpus_path), first)
    _run_pipeline(str(small_corpus_path), second)
    capsys.readouterr()

    identical_files = ["codebook.json"]
    stamped_files = ["stego.json", "bands.json", "density.json", "pairs.json"]
    csv_files = ["bands.csv", "density.csv", "pairs.csv"]
    mismatches = []
    for name in identical_files + csv_files:
        if (first / name).read_bytes() != (second / name).read_bytes():
            mismatches.append(name)
    for name in stamped_files:
        if _strip_timestamp(first / name) != _strip_timestamp(second / name):
            mismatches.append(name)
    # Sanity: the stamped JSON artifacts really carry config and seed.
    doc = json.loads((first / "bands.json").read_text(encoding="utf-8"))
    labeled = doc["seed"] == 3 and doc["tool"] == "wordsteg" and "config" in doc
    check(
        "determinism",
        not mismatches and labeled,
        f"mismatches={mismatches or 'none'}",
    )
