"""Exception types shared across the package.

The CLI maps these onto distinct exit codes: configuration and manifest
problems, malformed data files, and network transport failures each get
their own code so scripted callers can react. `open_utf8` opens the
text inputs so that a byte that is not UTF-8 is one of these errors;
`written_whole` writes every file the package writes.
"""

import os
from contextlib import contextmanager
from pathlib import Path


class ConfigError(Exception):
    """Bad run configuration (unknown key, invalid value, missing input)."""


class ManifestError(ConfigError):
    """Split bookkeeping violated: unknown label, missing semantics, ..."""


class SplitViolationError(ManifestError):
    """Seen and unseen class sets overlap."""


class FormatError(Exception):
    """A data file does not follow its documented layout."""


@contextmanager
def open_utf8(path):
    """The text file ``path`` open as UTF-8. A byte that does not decode
    is a FormatError naming the first line that does not."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path) -> FormatError:
    # Lines end as in text mode, and no line-end byte occurs inside a
    # multi-byte UTF-8 character: the first line that does not decode
    # alone holds the file's first bad byte. Read only on this error path.
    with open(path, encoding="latin-1") as handle:  # every byte decodes
        for lineno, line in enumerate(handle, 1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return FormatError(
                    f"{path}:{lineno}: byte {exc.start + 1} "
                    f"(0x{exc.object[exc.start]:02x}) is not UTF-8"
                )
    return FormatError(f"{path}: not UTF-8")


@contextmanager
def written_whole(path, mode: str, **kwargs):
    """A handle, opened with ``mode`` ("w" or "wb") and ``kwargs`` as
    by `open`, on a new file that becomes ``path`` whole or not at all:
    created beside it as ``.tmp-<name>.<8 hex digits>`` (exclusively, at
    mode 0o666 less the umask), it replaces ``path`` once the block ends
    and is removed if the block raises."""
    path = Path(path)
    tmp = path.with_name(f".tmp-{path.name}.{os.urandom(4).hex()}")
    handle = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class OutOfVocabularyError(FormatError):
    """No token of a text is present in the word-vector table."""


class TransportError(Exception):
    """Network or authentication failure while talking to an endpoint."""


class ProviderError(TransportError):
    """The endpoint answered, but with an unusable completion."""


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


class ShapeError(ContractError):
    """Operands with incompatible shapes."""
