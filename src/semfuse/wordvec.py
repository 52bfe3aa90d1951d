"""Pretrained word-vector table: plain-text loading and text embedding."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, OutOfVocabularyError

_TOKEN = re.compile(r"[a-z0-9]+")


@dataclass
class WordVectorTable:
    """token -> d-dimensional vector map; immutable after loading.

    Tokens are stored lowercased and unique; every vector has exactly
    ``dimension`` components.
    """

    dimension: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, token: str) -> np.ndarray | None:
        return self.vectors.get(token.lower())


def load_word_vectors(path, vocabulary=None) -> WordVectorTable:
    """Parse a text file of ``token v1 v2 ... vd`` lines.

    An optional first line ``N d`` (two integer fields) is treated as a
    header and skipped. Duplicate tokens keep their first occurrence.
    Raises FormatError, naming ``path:line``, for an empty file, a float
    that does not parse, or a dimension that changes between lines.

    With ``vocabulary`` (a set of lowercase tokens) the table holds only
    the tokens of the vocabulary, and only these lines are parsed and
    validated: the first data line, which fixes ``dimension``, and every
    line whose token is in the vocabulary. A malformed line of any other
    token is skipped unread. ``None`` parses and validates every line.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    with path.open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            head = raw.split(None, 1)
            if not head:
                continue
            token = head[0].lower()
            if dimension is not None and vocabulary is not None and token not in vocabulary:
                continue
            fields = head[1].split() if len(head) > 1 else []
            if lineno == 1 and len(fields) == 1 and _all_ints(head[:1] + fields):
                continue
            try:
                values = np.array(fields, dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if values.size == 0:
                raise FormatError(f"{path}:{lineno}: token {token!r} has no values")
            if dimension is None:
                dimension = values.size
            elif values.size != dimension:
                raise FormatError(
                    f"{path}:{lineno}: expected {dimension} values, got {values.size}"
                )
            if token not in vectors and (vocabulary is None or token in vocabulary):
                vectors[token] = values
    if dimension is None:
        raise FormatError(f"{path}: no word vectors found")
    return WordVectorTable(dimension=dimension, vectors=vectors)


def _all_ints(fields: list[str]) -> bool:
    try:
        for f in fields:
            int(f)
    except ValueError:
        return False
    return True


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN.findall(text.lower())


def embed_text(table: WordVectorTable, text: str) -> np.ndarray:
    """Mean vector of the in-vocabulary tokens of ``text``.

    Out-of-vocabulary tokens are skipped; a text with no known token at
    all raises OutOfVocabularyError. Multi-word inputs ("night stand")
    follow the same rule.
    """
    found = [table.vectors[t] for t in tokenize(text) if t in table.vectors]
    if not found:
        preview = text if len(text) <= 60 else text[:57] + "..."
        raise OutOfVocabularyError(f"no token of {preview!r} is in the vocabulary")
    return np.mean(found, axis=0)
