"""The messages of a Corpus as lines, for the tests that read them one by one.

A Corpus holds its messages as a few texts of lines joined by "\n" and keeps
no line of its own; a line that holds no token is no message.
"""


def corpus_lines(corpus):
    """Each line of corpus's texts that holds a token, in corpus order."""
    return text_lines(corpus.texts)


def text_lines(texts):
    """Each line of texts that holds a token, in order."""
    return tuple(line for text in texts for line in text.split("\n") if line.strip())
