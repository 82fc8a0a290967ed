"""Atomic file writes, and the one JSON form of every document written.

A reader sees the old file or the whole new one.
"""

import json
import os
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a UTF-8 text handle whose contents replace `path` on clean exit.

    The text goes to a temporary file in the same directory, which
    os.replace moves over `path` once the block finishes. If the block
    raises, the temporary file is removed and `path` is left as it was. The
    new file is readable by its owner only (mkstemp's mode 0600). A failed
    create or rename raises OSError naming `path`, not the temporary file.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=f".{name}.", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(handle, doc) -> None:
    """Write `doc` with sorted keys, a two-space indent and a final newline."""
    json.dump(doc, handle, sort_keys=True, indent=2)
    handle.write("\n")
