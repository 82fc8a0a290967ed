"""N-gram counts over a corpus, for exactly the grams a scorer reads.

Grams have orders 2 and 3 and never span two messages; the one word count is
Corpus.vocabulary. No count covers every gram of the corpus: each scorer
knows before the scan which grams it will read, and each count is exact on
that domain and bounded by it, not by the corpus. All logarithms are
natural. Counts are never stored: every CLI verb that needs them counts
them afresh from the corpus it loads.

Insertion (build_model) scores a slot only by the grams of orders 2 and 3
that hold the inserted codeword; insertion only puts codewords between
cover words, so every other word of such a gram is a cover word or a
codeword. The model therefore reads only the lines that may hold a
codeword, and keeps only the grams that hold a codeword and whose every
word is a codeword or a cover word. Its tables are bounded by the covers'
vocabulary, and codec.insert_codewords refuses a word or neighbour
outside it. Corpus.containing finds those lines: it searches the corpus
texts for the codewords on every call, keeps nothing, and gives texts of
the lines it finds.

The observer (count_grams, plausibility_score) scores only the messages it is
shown: it reads their words in Corpus.vocabulary and asks for exactly their
bigrams and trigrams, counting nothing else; looking up any other gram raises
ValueError. eval band and eval density count no n-grams at all.

Both counts read texts, whole lines joined by "\n", and split each text once
with a separator token in place of each line break.
"""

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, filterfalse

from .corpus import Corpus

# Orders above 3 are almost all singletons at the corpus sizes this tool
# targets (~1e5 short messages) and add nothing but memory.
MAX_N = 3

# Both counts put this token in place of each line break of a text: the
# scrub deletes every punctuation character, so it is never a word, and any
# gram that spans two messages holds it. count_grams refuses a requested
# gram that holds it, and build_model keeps no gram that holds it.
_SEPARATOR = "."
_JOINER = f" {_SEPARATOR} "

# Insertion counts: counts[n] maps an n-gram tuple to its count, for orders 2
# and 3 in ascending order. The tables hold exactly the grams that occur, hold
# one of `codewords`, and whose every word lies in `words` (the codewords plus
# the cover words the model was counted for), each with its exact count; no
# other gram is a key.
NGramModel = namedtuple("NGramModel", "counts codewords words")


def build_model(
    corpus: Corpus, codewords: Iterable[str], covers: Iterable[Sequence[str]]
) -> NGramModel:
    """Count orders 2..MAX_N for inserting `codewords` into `covers`.

    Only the lines that may hold a codeword are read, since every gram that
    holds one lies inside a line that holds it: corpus.containing gives texts
    of them, each split once with a separator in place of each line break.
    Only the grams that hold a codeword and whose every word is a codeword
    or a word of `covers` are kept, so no gram spans two lines and the
    tables hold at most len(words) ** n keys of order n.
    """
    codewords = frozenset(codewords)
    # word -> the same string, so the table keys share one string per word.
    known = {word: word for word in chain(codewords, chain.from_iterable(covers))}
    counts = {n: Counter() for n in range(2, MAX_N + 1)}
    # A line that holds a codeword as a token holds it as a substring too.
    for text in corpus.containing(codewords):
        tokens = list(map(known.get, text.replace("\n", _JOINER).split()))
        for n, table in counts.items():
            # zip over n staggered views yields exactly the n-grams of the
            # text; only those that hold a codeword and no None are ever read.
            grams = filterfalse(codewords.isdisjoint, zip(*(tokens[i:] for i in range(n))))
            table.update(filter(all, grams))
    return NGramModel(counts, codewords, frozenset(known))


def count_grams(
    corpus: Corpus, grams: Iterable[tuple[str, ...]]
) -> dict[int, dict[tuple[str, ...], int]]:
    """Exact corpus counts of the requested grams, orders 2..MAX_N.

    Returns tables[n] for every order, holding each requested gram of that
    order, those that never occur at 0, and no other gram. Raises
    ValueError for a gram of another order (Corpus.vocabulary counts the
    words) or one that holds the separator.
    """
    tables = {n: Counter() for n in range(2, MAX_N + 1)}
    for gram in grams:
        if len(gram) not in tables or _SEPARATOR in gram:
            raise ValueError(f"cannot count the gram {gram!r}")
        tables[len(gram)][gram] = 0
    wanted = {n: frozenset(table) for n, table in tables.items()}
    for text in corpus.texts:
        tokens = text.replace("\n", _JOINER).split()
        for n, table in tables.items():
            table.update(
                filter(wanted[n].__contains__, zip(*(tokens[i:] for i in range(n))))
            )
    return {n: dict(table) for n, table in tables.items()}


def message_grams(tokens: Sequence[str]) -> list[tuple[str, ...]]:
    """Every gram of orders 2..MAX_N in one message, order by order."""
    toks = tuple(tokens)
    return [
        toks[i : i + n] for n in range(2, MAX_N + 1) for i in range(len(toks) - n + 1)
    ]


def plausibility_score(
    vocabulary: Mapping[str, int],
    counts: dict[int, dict[tuple[str, ...], int]],
    tokens: Sequence[str],
) -> float:
    """Mean log(1 + count) over the words and the longer grams of the tokens.

    Higher means the sequence is built from patterns the corpus actually
    uses. Normalizing by the number of terms keeps sequences of different
    lengths comparable; log(1 + count) keeps unseen grams finite. Words are
    read in `vocabulary`, the complete word count, so a word it lacks counts
    0. `counts` comes from count_grams and must hold every longer gram of
    the tokens; a gram it lacks raises ValueError.
    """
    if not tokens:
        raise ValueError("cannot score an empty token sequence")
    grams = message_grams(tokens)
    # += in this order, not sum(): since Python 3.12 sum() rounds floats
    # differently, and one changed bit could flip a near-tie of two scores.
    total = 0.0
    for word in tokens:
        total += math.log1p(vocabulary.get(word, 0))
    for gram in grams:
        try:
            total += math.log1p(counts[len(gram)][gram])
        except KeyError:
            raise ValueError(f"the gram {gram!r} was not counted") from None
    return total / (len(tokens) + len(grams))
