"""Exception types shared across the package.

The CLI maps these onto distinct exit codes: configuration and manifest
problems, malformed data files, and network transport failures each get
their own code so scripted callers can react. `open_utf8` opens the
text inputs so that a byte that is not UTF-8 is one of these errors.
"""

from contextlib import contextmanager


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
