"""Reference add-one smoothing and Kullback-Leibler divergence.

run_density_experiment scores each density point in one walk over its
support. These dict-based forms of the same two steps are the oracle the
tests replay its rows against, so they are kept here, with their own
checks, rather than in the package.
"""

import math
from collections.abc import Iterable, Mapping


def kl_divergence(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Kullback-Leibler divergence sum(p * ln(p/q)) in nats.

    Requires identical supports and q > 0 wherever p > 0; zero-probability
    p entries contribute nothing.
    """
    if p.keys() != q.keys():
        raise ValueError("p and q must share the same support")
    total = 0.0
    for word, p_w in p.items():
        if p_w == 0.0:
            continue
        q_w = q[word]
        if q_w <= 0.0:
            raise ValueError(f"q({word!r}) = 0 where p > 0: divergence is infinite")
        total += p_w * math.log(p_w / q_w)
    return total


def smoothed_distribution(
    counts: Mapping[str, int], vocabulary: Iterable[str]
) -> dict[str, float]:
    """Add-one (Laplace) smoothed distribution of `counts` over `vocabulary`."""
    vocab = list(vocabulary)
    denominator = sum(counts.values()) + len(vocab)
    if denominator <= 0:
        raise ValueError("distribution has no probability mass")
    return {w: (counts.get(w, 0) + 1) / denominator for w in vocab}
