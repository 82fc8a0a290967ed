"""Atomic file writes: a reader sees the old file or the whole new one."""

import os
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a UTF-8 text handle whose contents replace `path` on clean exit.

    The text goes to a temporary file in the same directory, which
    os.replace moves over `path` once the block finishes. If the block
    raises, the temporary file is removed and `path` is left as it was. The
    new file is readable by its owner only (mkstemp's mode 0600).
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=f".{name}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
