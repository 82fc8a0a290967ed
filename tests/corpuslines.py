"""The messages of a Corpus as lines, its covers, and lines cut into texts.

A Corpus holds its messages as a few texts of lines joined by "\n" and keeps
no line of its own; a line that holds no token is no message. A Corpus cuts
the lines of whatever texts it is given again, into texts of at least
READ_CHARS characters but the last. texts_of makes the arbitrary cuts that
show it, and corpus_of sizes a small corpus's own texts.

cover_lines is the one list of a corpus's covers that the tests hold the
cover pool, and every exact value derived from it, against; the pool's one
method, draw, is read through a stub rng by check_draws.
"""

from unittest import mock

import pytest

from wordsteg import corpus as corpus_module
from wordsteg.errors import SteganizeError


def corpus_lines(corpus):
    """Each line of corpus's texts that holds a token, in corpus order."""
    return text_lines(corpus.texts)


def cover_lines(corpus):
    """Brute force: each line of corpus's texts with at least
    MIN_COVER_TOKENS tokens, in corpus order."""
    least = corpus_module.MIN_COVER_TOKENS
    return tuple(line for line in corpus_lines(corpus) if len(line.split()) >= least)


class RankRng:
    """A stand-in for the rng of CoverPool.draw: randrange(n) asserts that n
    is `count` and returns the next of `ranks`."""

    def __init__(self, count, ranks):
        self.count, self.ranks = count, iter(ranks)

    def randrange(self, n):
        assert n == self.count, (n, self.count)
        return next(self.ranks)


def check_draws(corpus, order=None):
    """Assert that corpus.cover_pool draws cover_lines(corpus)[k].split() at
    every rank k, the ranks taken in turn, shuffled by `order` if given,
    through a RankRng whose count is the number of covers, and that a draw
    from a pool of no covers raises SteganizeError after 0 attempts."""
    covers = cover_lines(corpus)
    pool = corpus.cover_pool
    if not covers:
        with pytest.raises(SteganizeError) as raised:
            pool.draw(RankRng(0, ()))
        assert raised.value.attempts == 0
        return
    ranks = list(range(len(covers)))
    if order is not None:
        order.shuffle(ranks)
    rng = RankRng(len(covers), ranks)
    assert [pool.draw(rng) for _ in ranks] == [covers[k].split() for k in ranks]


def text_lines(texts):
    """Each line of texts that holds a token, in order."""
    return tuple(line for text in texts for line in text.split("\n") if line.strip())


def texts_of(lines, size, cuts=()):
    """lines joined by "\n" into texts of at most `size` lines: a text ends
    after `size` lines, and after line i wherever cuts[i] is true."""
    blocks, cut, cuts = [], True, iter(cuts)
    for line in lines:
        if cut or len(blocks[-1]) == size:
            blocks.append([])
        blocks[-1].append(line)
        cut = next(cuts, False)
    return ["\n".join(block) for block in blocks]


def corpus_of(texts, read_chars):
    """Corpus(texts), its lines cut with READ_CHARS set to read_chars, so
    that a corpus of a few lines has several texts."""
    with mock.patch.object(corpus_module, "READ_CHARS", read_chars):
        return corpus_module.Corpus(texts)
