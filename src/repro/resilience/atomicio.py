"""Atomic file writes for result artifacts.

A result file (CSV export, cache entry, trace JSON, profile)
must never be observable in a half-written state: a reader racing the
writer — or a writer killed mid-``write()`` — would otherwise see a
truncated artifact that parses as garbage or, worse, parses cleanly
with missing rows.  Every writer in the repository routes through the
helpers here (enforced by simlint rule SIM007): the payload goes to a
sibling temporary file, is fsync'd, and is then renamed over the
destination with :func:`os.replace`, which POSIX guarantees to be
atomic on a single filesystem.  After the rename the directory entry
is fsync'd (best effort) so the new name survives a power cut.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = ["atomic_write_text", "atomic_write_json"]


def _replace_into_place(tmp: Path, path: Path) -> None:
    os.replace(tmp, path)
    # Persist the rename itself; not all filesystems support opening a
    # directory for fsync (and Windows has no equivalent), so failures
    # here degrade to the old (still atomic, just less durable) behavior.
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8", newline: str | None = None
) -> Path:
    """Write *text* to *path* atomically (tmp + fsync + ``os.replace``).

    Returns the written path.  The temporary file lives in the same
    directory as *path* (``os.replace`` is only atomic within one
    filesystem) and carries the writer's PID so two concurrent writers
    cannot collide on the temp name; the last rename wins cleanly.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding=encoding, newline=newline) as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    _replace_into_place(tmp, path)
    return path


def atomic_write_json(
    path: str | Path,
    obj: Any,
    *,
    indent: int | None = None,
    sort_keys: bool = False,
    separators: tuple[str, str] | None = None,
    trailing_newline: bool = True,
) -> Path:
    """Serialize *obj* as JSON and write it atomically to *path*."""
    text = json.dumps(
        obj, indent=indent, sort_keys=sort_keys, separators=separators, allow_nan=True
    )
    if trailing_newline:
        text += "\n"
    return atomic_write_text(path, text)
