"""N-gram frequency model over a corpus.

Counts n-grams of order 1..max_n inside message boundaries (no grams span
two messages) and answers the frequency queries the encoder and the
distinguisher share: raw counts, smoothed unigram distributions, and a
length-normalized plausibility score. All logarithms are natural. The model
is a pure function of the corpus and is never stored: every CLI verb counts
it afresh from the corpus it loads.

Each verb counts only what it reads. Unigram counts are copied from
Corpus.vocabulary, never recounted, and are all gen-codebook needs
(max_n=1). The encoder only scores grams that contain the codeword it
inserts, so encode and eval density pass the codewords as `around`: orders
>= 2 are then counted only over the messages that hold one of those words.
Any gram containing such a word can occur only inside such a message, so
its count is exact; the model refuses every query it could not answer
exactly. eval band and eval distinguish count the full model.
"""

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .corpus import Corpus

# Orders above 3 are almost all singletons at the corpus sizes this tool
# targets (~1e5 short messages) and add nothing but memory.
DEFAULT_MAX_N = 3

Gram = tuple[str, ...]


class NGramModel:
    """Frozen count tables: counts[n] maps an n-gram tuple to its count.

    word_counts maps each word to its unigram count. When `around` is a set
    of words, the tables of order >= 2 hold exact counts only for grams that
    contain one of those words, and totals holds order 1 alone.
    """

    def __init__(
        self,
        max_n: int,
        counts: dict[int, Counter],
        totals: dict[int, int],
        word_counts: Counter,
        around: frozenset[str] | None = None,
    ):
        self.max_n = max_n
        self.counts = counts
        self.totals = totals
        self.word_counts: Counter[str] = word_counts
        self.around = around

    @property
    def vocab_size(self) -> int:
        return len(self.word_counts)

    def count(self, gram: Sequence[str]) -> int:
        """Count of a gram; unseen grams count 0.

        A model counted `around` some words raises ValueError for a gram of
        order >= 2 that holds none of them.
        """
        n = len(gram)
        if not 1 <= n <= self.max_n:
            raise ValueError(f"gram length {n} outside 1..{self.max_n}")
        if n > 1 and self.around is not None and self.around.isdisjoint(gram):
            raise ValueError(
                f"gram {tuple(gram)!r} holds no word this model was counted around"
            )
        return self.counts[n].get(tuple(gram), 0)

    def plausibility_score(self, tokens: Sequence[str]) -> float:
        """Mean log(1 + count) over every n-gram of the token sequence.

        Higher means the sequence is built from patterns the corpus actually
        uses. Normalizing by the gram count keeps sequences of different
        lengths comparable; log(1 + count) keeps unseen grams finite. Needs
        the full model: a model counted `around` some words raises
        ValueError.
        """
        if self.around is not None:
            raise ValueError("plausibility needs a model counted over every message")
        toks = tuple(tokens)
        if not toks:
            raise ValueError("cannot score an empty token sequence")
        total = 0.0
        grams = 0
        for n in range(1, self.max_n + 1):
            table = self.counts[n]
            for i in range(len(toks) - n + 1):
                total += math.log1p(table.get(toks[i : i + n], 0))
                grams += 1
        return total / grams


def build_model(
    corpus: Corpus,
    max_n: int = DEFAULT_MAX_N,
    around: Iterable[str] | None = None,
) -> NGramModel:
    """Count n-grams of order 1..max_n, message by message.

    Unigrams come from corpus.vocabulary, in its order. With `around`, the
    orders >= 2 are counted only over the messages that share a word with
    it, which is exact for every gram containing one of those words.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    messages = corpus.messages
    if around is not None:
        around = frozenset(around)
        messages = [m for m in messages if not around.isdisjoint(m.tokens)]
    counts: dict[int, Counter] = {
        1: Counter({(word,): c for word, c in corpus.vocabulary.items()})
    }
    for n in range(2, max_n + 1):
        # zip over n staggered views yields exactly the n-grams of one message.
        counts[n] = Counter(
            chain.from_iterable(
                zip(*(m.tokens[i:] for i in range(n))) for m in messages
            )
        )
    totals = {1: corpus.total_tokens}
    if around is None:
        totals.update((n, counts[n].total()) for n in range(2, max_n + 1))
    return NGramModel(max_n, counts, totals, Counter(corpus.vocabulary), around)


def smoothed_distribution(
    counts: Mapping[str, int],
    total: int,
    vocabulary: Iterable[str],
    smoothing: float = 0.0,
) -> dict[str, float]:
    """Additively smoothed distribution of `counts` over `vocabulary`."""
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
    vocab = list(vocabulary)
    denominator = total + smoothing * len(vocab)
    if denominator <= 0:
        raise ValueError("distribution has no probability mass")
    return {w: (counts.get(w, 0) + smoothing) / denominator for w in vocab}
