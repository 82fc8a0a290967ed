"""The messages of a Corpus as lines, and lines as the texts of a Corpus.

A Corpus holds its messages as a few texts of lines joined by "\n" and keeps
no line of its own; a line that holds no token is no message. Where the
lines are cut into texts changes no reader's result but the lines
Corpus.containing gives beyond those that hold a word; it changes what the
readers cost, so a large corpus is cut into texts of about one load_corpus
read.
"""

# Lines per text of texts_of: about the messages of one load_corpus read.
TEXT_LINES = 1024


def corpus_lines(corpus):
    """Each line of corpus's texts that holds a token, in corpus order."""
    return text_lines(corpus.texts)


def text_lines(texts):
    """Each line of texts that holds a token, in order."""
    return tuple(line for text in texts for line in text.split("\n") if line.strip())


def texts_of(lines, size=TEXT_LINES, cuts=()):
    """lines joined by "\n" into texts of at most `size` lines: a text ends
    after `size` lines, and after line i wherever cuts[i] is true."""
    blocks, cut, cuts = [], True, iter(cuts)
    for line in lines:
        if cut or len(blocks[-1]) == size:
            blocks.append([])
        blocks[-1].append(line)
        cut = next(cuts, False)
    return ["\n".join(block) for block in blocks]
