import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from synthcorpus import markov_lines, raw_lines, synth_lines

_PRINT_DIGEST = (
    "import hashlib\n"
    "from synthcorpus import markov_lines\n"
    "text = '\\n'.join(markov_lines(300, 5))\n"
    "print(hashlib.sha256(text.encode()).hexdigest())\n"
)


def test_markov_lines_do_not_depend_on_string_hashing():
    digests = set()
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(Path(__file__).parent)}
        run = subprocess.run(
            [sys.executable, "-c", _PRINT_DIGEST],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(run.stdout.strip())
    expected = hashlib.sha256("\n".join(markov_lines(300, 5)).encode()).hexdigest()
    assert digests == {expected}


def _bigram_dependence(lines, top=10):
    """Pearson chi-square per degree of freedom for independence of adjacent
    words, over the bigrams whose two words are both among the `top` most
    frequent. Near 1 when each word is drawn independently of the one before
    it (Anderson & Goodman's test of order 0 against order 1)."""
    messages = [line.split() for line in lines]
    common = {w for w, _ in Counter(w for m in messages for w in m).most_common(top)}
    pairs = Counter(
        (a, b) for m in messages for a, b in zip(m, m[1:]) if a in common and b in common
    )
    left, right = Counter(), Counter()
    for (a, b), count in pairs.items():
        left[a] += count
        right[b] += count
    total = sum(pairs.values())
    chi2 = 0.0
    for a in common:
        for b in common:
            expected = left[a] * right[b] / total
            chi2 += (pairs[(a, b)] - expected) ** 2 / expected
    return chi2 / (top - 1) ** 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_markov_bigrams_depart_from_unigram_products(seed):
    # 3000 messages give about 7500 bigrams among the 10 commonest words; with
    # 81 degrees of freedom the i.i.d. statistic has a standard deviation of
    # about 0.16 around 1.
    assert _bigram_dependence(synth_lines(3000, seed)) < 1.5
    assert _bigram_dependence(markov_lines(3000, seed)) > 4.0


def test_raw_lines_hold_every_kind_of_noise_and_scrub_back():
    from wordsteg.corpus import scrub_message

    clean = synth_lines(400, 4, vocab_size=300)
    raw = raw_lines(clean, 4)
    text = "\n".join(raw)
    for mark in ("@", "#", "://", "WWW.", "\t", "  ", "　", "…", "W0"):
        assert mark in text, mark
    assert len(raw) > len(clean)
    assert [line for line in map(scrub_message, raw) if line] == clean
