"""Faults in the files `semfuse.errors.written_whole` writes: the
temporary file cannot be created, its file system fills partway through
the writes, or it cannot be renamed onto its target."""

import errno
import os
from pathlib import Path

from semfuse import errors

# bytes or characters a full file system still takes
ROOM = 16


def no_space() -> OSError:
    return OSError(errno.ENOSPC, "No space left on device")


class _Full:
    """``handle`` on a file system with ``room`` bytes or characters
    left: the write that passes them writes what fits, notes the file
    in ``hit`` and raises."""

    def __init__(self, handle, room: int, hit: list):
        self._handle, self._room, self._hit = handle, room, hit

    def write(self, data):
        text = isinstance(data, str)
        size = len(data) if text else memoryview(data).nbytes
        if size > self._room:
            self._handle.write(data[: self._room] if text else
                               memoryview(data).cast("B")[: self._room])
            self._room = 0
            self._hit.append(Path(self._handle.name).name)
            raise no_space()
        self._room -= size
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


def inject(patch, fail: str, target: str | None = None) -> list:
    """Make `written_whole`, through ``patch`` (a MonkeyPatch), fail at
    ``fail`` ("create", "write" or "replace") for every file written to
    a target named ``target``, or to any target if it is None. Returns
    the list of the temporary files the fault hit, filled as it hits."""
    hit: list = []

    def ours(tmp) -> bool:
        name = Path(tmp).name
        return name.startswith(".tmp-") and (
            target is None or name.rsplit(".", 1)[0] == f".tmp-{target}")

    if fail == "replace":
        replace = os.replace

        def failing_replace(source, destination):
            if ours(source):
                hit.append(Path(source).name)
                raise no_space()
            return replace(source, destination)

        patch.setattr(errors.os, "replace", failing_replace)
        return hit

    def failing_open(file, mode="r", **kwargs):
        if not ours(file):
            return open(file, mode, **kwargs)
        if fail == "create":
            hit.append(Path(file).name)
            raise no_space()
        return _Full(open(file, mode, **kwargs), ROOM, hit)

    patch.setattr(errors, "open", failing_open, raising=False)
    return hit
