"""N-gram frequency model over a corpus.

Counts n-grams of orders 2 and 3 inside message boundaries (no grams span
two messages) and scores how plausible a token sequence is. Unigram counts
are not counted here: the model reads them from Corpus.vocabulary, the one
word-count table, which also feeds codebook draws and the density
experiment. All logarithms are natural. The model is a pure function of the
corpus and is never stored: every CLI verb that needs it counts it afresh
from the corpus it loads.

The encoder only scores grams that contain the codeword it inserts, so
encode passes the codewords as `around`: orders >= 2 are then counted only
over the messages that hold one of those words. Any gram containing such a
word can occur only inside such a message, so its count is exact;
insertion_score refuses any other word and plausibility_score refuses such
a model. eval distinguish counts the full model; eval band and eval density
count no n-grams at all.
"""

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

from .corpus import Corpus

# Orders above 3 are almost all singletons at the corpus sizes this tool
# targets (~1e5 short messages) and add nothing but memory.
MAX_N = 3


class NGramModel:
    """Frozen count tables: counts[n] maps an n-gram tuple to its count.

    counts holds orders 2 and 3, in ascending order; its keys are the
    orders. vocabulary is the corpus's own word-count table
    (Corpus.vocabulary), shared, not copied. When `around` is a set of
    words, the tables hold exact counts only for grams that contain one of
    those words.
    """

    def __init__(
        self,
        counts: dict[int, Counter],
        vocabulary: Counter,
        around: frozenset[str] | None = None,
    ):
        self.counts = counts
        self.vocabulary: Counter[str] = vocabulary
        self.around = around

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
        for word in toks:
            total += math.log1p(self.vocabulary.get(word, 0))
        grams = len(toks)
        for n, table in self.counts.items():
            for i in range(len(toks) - n + 1):
                total += math.log1p(table.get(toks[i : i + n], 0))
                grams += 1
        return total / grams


def build_model(corpus: Corpus, around: Iterable[str] | None = None) -> NGramModel:
    """Count n-grams of orders 2..MAX_N, message by message.

    Unigrams are corpus.vocabulary itself. With `around`, the grams are
    counted only over the messages that share a word with it, which is exact
    for every gram containing one of those words.
    """
    messages = corpus.messages
    if around is not None:
        around = frozenset(around)
        messages = [m for m in messages if not around.isdisjoint(m)]
    counts: dict[int, Counter] = {}
    for n in range(2, MAX_N + 1):
        # zip over n staggered views yields exactly the n-grams of one message.
        counts[n] = Counter(
            chain.from_iterable(
                zip(*(m[i:] for i in range(n))) for m in messages
            )
        )
    return NGramModel(counts, corpus.vocabulary, around)
