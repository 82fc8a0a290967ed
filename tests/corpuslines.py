"""The messages of a Corpus as lines, and lines cut into texts.

A Corpus holds its messages as a few texts of lines joined by "\n" and keeps
no line of its own; a line that holds no token is no message. A Corpus cuts
the lines of whatever texts it is given again, into texts of at least
READ_CHARS characters but the last. texts_of makes the arbitrary cuts that
show it, and corpus_of sizes a small corpus's own texts.
"""

from unittest import mock

from wordsteg import corpus as corpus_module


def corpus_lines(corpus):
    """Each line of corpus's texts that holds a token, in corpus order."""
    return text_lines(corpus.texts)


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
