"""Test-side readers of the two checkpoint files a run writes.

Runs are restored from the binary records (`model.bin`) alone, through
`autodiff.load_params`. `load_text_params` reads the `%.17g` text export
(`model.ckpt`) and is the oracle that it holds the same bits;
`value_spans` walks the binary layout on its own, so tests can find and
damage a record's value bytes.
"""

import struct
from pathlib import Path

import numpy as np

from semfuse.errors import FormatError


def load_text_params(path, prefixes=None) -> dict[str, np.ndarray]:
    """Read a text checkpoint back into name -> array.

    With ``prefixes``, only records named ``<prefix>.<rest>`` for one of
    them are kept, and the values of the others are not parsed; record
    structure (at least a name and a shape, no duplicate name) is still
    checked on every line.
    """
    out: dict[str, np.ndarray] = {}
    names: set[str] = set()
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.split(None, 2)
            if not fields:
                continue
            if len(fields) < 2:
                raise FormatError(f"{path}:{lineno}: malformed checkpoint record")
            name, dims, *rest = fields
            if name in names:
                raise FormatError(f"{path}:{lineno}: duplicate parameter {name!r}")
            names.add(name)
            head, dot, _ = name.partition(".")
            if prefixes is not None and not (dot and head in prefixes):
                continue
            try:
                shape = () if dims == "-" else tuple(int(d) for d in dims.split(","))
                values = np.array(rest[0].split() if rest else [], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            expected = int(np.prod(shape)) if shape else 1
            if values.size != expected:
                raise FormatError(
                    f"{path}:{lineno}: {values.size} values for shape {shape}"
                )
            out[name] = values.reshape(shape)
    if not names:
        raise FormatError(f"{path}: empty checkpoint")
    return out


def value_spans(path) -> dict[str, tuple[int, int]]:
    """Byte range of each binary record's values, by record name."""
    blob = Path(path).read_bytes()
    (count,) = struct.unpack_from("<I", blob, 72)  # after magic, version, two digests
    offset, spans = 76, {}
    for _ in range(count):
        (length,) = struct.unpack_from("<I", blob, offset)
        name = blob[offset + 4 : offset + 4 + length].decode("utf-8")
        offset += 4 + length
        (ndim,) = struct.unpack_from("<I", blob, offset)
        shape = struct.unpack_from(f"<{ndim}Q", blob, offset + 4)
        offset += 4 + 8 * ndim
        size = 8 * int(np.prod(shape))
        spans[name] = (offset, offset + size)
        offset += size
    assert offset == len(blob)
    return spans
