"""Atomic file replacement for the registries and on-disk stores.

:func:`write_bytes` puts the new bytes in a temp file beside the target
and publishes them with one rename, so a reader (or a process that
restarts after a crash) sees either the old file or the whole new one.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_bytes(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically.

    ``os.write`` may write fewer bytes than it was given, so it is
    called until every byte is down; the temp file is removed if
    anything fails before the rename.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
