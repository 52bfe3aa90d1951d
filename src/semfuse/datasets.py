"""Feature ingestion, split manifests, run configs, and seeded
synthetic data.

Features come precomputed from upstream extractors; this module only
reads them (CSV or a small binary layout) and tags each class as seen
or unseen according to a split manifest. `RunConfig` describes one run
and is read from and written to ``key = value`` text here. A synthetic
generator provides desk-scale datasets with controllable semantic and
feature noise.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import zlib
from array import array
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Callable, NoReturn, get_args, get_origin, get_type_hints

import numpy as np

from .autodiff import render_values
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    ManifestError,
    SplitViolationError,
    open_utf8,
    written_whole,
)
from .fusion import ALPHA_SWEEP, VARIATIONS, ClassSemantics
from .llm_client import class_slug

_BINARY_MAGIC = b"FSET"


@dataclass
class FeatureSet:
    """Feature matrix with labels; ``split`` owns every class's id, name
    and seen/unseen role."""

    features: np.ndarray  # (n, m)
    labels: np.ndarray  # (n,) int class ids of ``split``
    split: SplitSpec

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ContractError(
                f"features {self.features.shape} do not match labels {self.labels.shape}"
            )
        total = len(self.split.seen) + len(self.split.unseen)
        outside = self.labels[(self.labels < 0) | (self.labels >= total)]
        if outside.size:
            raise ManifestError(f"label id {outside.min()} missing from class table")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def take(self, rows) -> "FeatureSet":
        """The rows ``rows`` selects (indices or a boolean mask), under
        the same split."""
        return FeatureSet(self.features[rows], self.labels[rows], self.split)

    def rows_for(self, class_ids) -> "FeatureSet":
        """Subset containing only rows whose label is in ``class_ids``."""
        return self.take(np.isin(self.labels, list(class_ids)))


def require_seen_only(data: FeatureSet, role: str) -> None:
    """Raise unless ``data`` holds seen classes only; ``role`` names the
    features in the error."""
    outside = np.unique(data.labels[data.labels >= len(data.split.seen)])
    if outside.size:
        raise ManifestError(f"{role} contain non-seen classes {outside.tolist()}")


def training_semantics(data: FeatureSet, semantics: ClassSemantics, role: str) -> np.ndarray:
    """Each sample's row in ``semantics``, after checking that training
    features hold seen classes only; ``role`` names the features in the
    error."""
    require_seen_only(data, role)
    return semantics.rows(data.labels)


@dataclass
class SplitSpec:
    """Named dataset split: class lists plus locations of its files.

    Class ids are assigned by position: seen classes get 0..S-1 in list
    order, unseen classes continue from S.
    """

    dataset: str
    seen: list[str]
    unseen: list[str]
    train_features: Path | None = None
    test_features: Path | None = None
    description_dir: Path | None = None

    def __post_init__(self) -> None:
        if not self.seen or not self.unseen:
            raise ManifestError(f"split {self.dataset!r}: empty class list")
        if set(self.seen) & set(self.unseen):
            raise SplitViolationError(
                f"split {self.dataset!r}: seen and unseen class names overlap"
            )
        names = self.seen + self.unseen
        if len(set(names)) != len(names):
            raise ManifestError(f"split {self.dataset!r}: duplicate class name")
        slugs: dict[str, str] = {}
        for name in names:
            try:  # a name no description is cached under shares none
                other = slugs.setdefault(class_slug(name), name)
            except ContractError:
                continue
            if other != name:
                raise ManifestError(f"split {self.dataset!r}: classes {other!r} and {name!r} "
                                    f"share the description file {class_slug(name)}.txt")

    @property
    def class_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.seen + self.unseen)}

    @property
    def class_table(self) -> dict[int, str]:
        return {i: name for i, name in enumerate(self.seen + self.unseen)}

    @property
    def seen_ids(self) -> frozenset[int]:
        return frozenset(range(len(self.seen)))

    @property
    def unseen_ids(self) -> frozenset[int]:
        return frozenset(range(len(self.seen), len(self.seen) + len(self.unseen)))


def read_kv_file(path) -> dict[str, str]:
    """Parse a ``key = value`` text file; '#' starts a comment line."""
    out: dict[str, str] = {}
    path = Path(path)
    with open_utf8(path) as handle:
        text = handle.read()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_split(path) -> SplitSpec:
    """Read a split manifest; relative paths resolve against the manifest."""
    path = Path(path)
    kv = read_kv_file(path)
    try:
        dataset = kv.pop("dataset")
        seen = [c.strip() for c in kv.pop("seen").split(",") if c.strip()]
        unseen = [c.strip() for c in kv.pop("unseen").split(",") if c.strip()]
    except KeyError as exc:
        raise ManifestError(f"{path}: missing manifest key {exc}") from exc

    def _path(key: str) -> Path | None:
        value = kv.pop(key, None)
        if value is None:
            return None
        if "\0" in value:
            raise ManifestError(f"{key} holds a NUL byte")  # prefixed with path below
        p = Path(value)
        return p if p.is_absolute() else path.parent / p

    try:
        spec = SplitSpec(
            dataset=dataset,
            seen=seen,
            unseen=unseen,
            train_features=_path("train_features"),
            test_features=_path("test_features"),
            description_dir=_path("descriptions"),
        )
    except ManifestError as exc:  # SplitViolationError keeps its type
        raise type(exc)(f"{path}: {exc}") from None
    if kv:
        raise ManifestError(f"{path}: unknown manifest keys {sorted(kv)}")
    return spec


# ---------------------------------------------------------------------------
# run configs


@dataclass
class RunConfig:
    """One run's inputs and hyperparameters: what every trainer reads,
    and what ``run.cfg`` records. ``optimizer`` applies to the embedding
    family only; the GAN and the softmax classifiers step with Adam."""

    split: Path | None = None
    word_vectors: Path | None = None
    bundles: Path | None = None
    variation: str = "ours"
    alpha: float = 0.5
    alpha_set: tuple[float, ...] = ALPHA_SWEEP
    method: str = "embed"  # "embed" | "gen"
    lr: float = 1e-3
    epochs: int = 1000
    lam: float = 1e-3
    q: int | None = None  # common-space dimension, defaults to d
    batch_size: int = 64
    optimizer: str = "adam"  # "adam" | "sgd"
    noise_dim: int = 16
    hidden_mult: int = 4  # GAN hidden width = hidden_mult * m
    eta: float = 10.0  # gradient-penalty coefficient
    cls_weight: float = 0.01
    n_critic: int = 5
    synth_per_class: int = 200
    classifier_lr: float = 0.05
    classifier_epochs: int = 100
    seed: int = 0
    out_dir: Path = Path("runs/out")

    def validate(self, origin: Callable[[tuple[str, ...]], str] | None = None) -> None:
        """Refuse a value outside its range, naming the key. With
        ``origin``, the message starts with ``origin(keys)``: where the
        values of the keys the failed check reads came from."""

        def refuse(message: str, *keys: str) -> NoReturn:
            raise ConfigError(f"{origin(keys)}: {message}" if origin else message)

        for key, low in _MINIMUMS.items():
            value = getattr(self, key)
            if value is not None and not value >= low:
                refuse(f"{key} = {value} is below its minimum {low}", key)
        if not self.eta > 0:
            refuse(f"eta = {self.eta} must be positive", "eta")
        for key, values in (("alpha", [self.alpha]), ("alpha_set", self.alpha_set)):
            for value in values:
                if not 0.0 <= value <= 1.0:
                    refuse(f"{key} value {value} lies outside [0, 1]", key)
        if self.variation not in VARIATIONS:
            refuse(f"unknown variation {self.variation!r}", "variation")
        if self.method not in ("embed", "gen"):
            refuse(f"unknown method {self.method!r}", "method")
        if self.optimizer not in ("adam", "sgd"):
            refuse(f"unknown optimizer {self.optimizer!r}", "optimizer")
        if self.method == "gen" and self.optimizer != "adam":
            refuse(f"method gen trains with adam only, not {self.optimizer!r}",
                   "method", "optimizer")
        if self.variation == "ours" and not any(
            math.isclose(self.alpha, a) for a in self.alpha_set
        ):
            refuse(f"alpha {self.alpha} is not in the sweep set {list(self.alpha_set)}",
                   "variation", "alpha", "alpha_set")
        for f in fields(self):  # the checks above pass an infinite rate or weight
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isinf(value):
                refuse(f"{f.name} = {value} is not finite", f.name)

    def to_text(self) -> str:
        """``key = value`` lines that `load_run_config` reads back; it
        resolves a relative path against the directory of the file."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


# the smallest usable value of each count, rate and weight and of the
# seed; q may be unset
_MINIMUMS = {
    "batch_size": 1,
    "epochs": 0,
    "classifier_epochs": 0,
    "n_critic": 1,
    "synth_per_class": 1,
    "noise_dim": 1,
    "hidden_mult": 1,
    "q": 1,
    "lr": 0.0,
    "classifier_lr": 0.0,
    "lam": 0.0,
    "cls_weight": 0.0,
    "seed": 0,
}

# each field's type, resolved once: resolving takes longer than a parse
_FIELD_TYPES = get_type_hints(RunConfig)


def load_run_config(path) -> RunConfig:
    """Parse a key = value run config. Each value takes the type of its
    `RunConfig` field; paths resolve against the file."""
    path = Path(path)
    values = {}
    for key, raw in read_kv_file(path).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(_FIELD_TYPES[key], raw, path.parent)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)


def _parse_value(kind, raw: str, base: Path):
    """``raw`` as a value of type ``kind``: an optional type parses as
    the type it wraps, a tuple as a comma list of its item type, and a
    relative path resolves against ``base``."""
    if type(None) in get_args(kind):
        (kind,) = (k for k in get_args(kind) if k is not type(None))
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(item(v) for v in raw.split(",") if v.strip())
    if kind is Path:
        if "\0" in raw:
            raise ValueError("a path holds no NUL byte")
        return base / raw  # an absolute raw path replaces base
    return kind(raw)


# ---------------------------------------------------------------------------
# feature files
#
# CSV rows: label,v1,...,vm with the label being a class name from the
# split. Binary layout (little-endian): magic "FSET", uint32 row count,
# uint32 dimension, then per row a uint32 name length, the UTF-8 name,
# and m float64 values.
#
# A CSV file's sidecar, "<file>.fset" beside it, holds the file once
# parsed: magic "FCSV", uint32 format version, the sha256 of the CSV's
# bytes, the uint32 CRC-32 of the rest of the sidecar, then the binary
# layout above. A load reads the sidecar instead of parsing when magic,
# version, digest and CRC match; anything else parses the CSV and writes
# the sidecar anew.

_SIDECAR_HEAD = b"FCSV" + struct.pack("<I", 2)  # magic, format version


def load_features(path, split: SplitSpec) -> FeatureSet:
    """Read a feature file (CSV or binary) and tag roles from the split.
    A CSV file is parsed only when its sidecar does not hold it, and a
    parse that passes the format and finiteness checks writes one."""
    path = Path(path)
    with path.open("rb") as handle:
        binary = handle.read(4) == _BINARY_MAGIC
        if binary:
            names, matrix, _ = _read_binary(path, handle)
        else:
            handle.seek(0)
            key = _SIDECAR_HEAD + _sha256(handle)
    if not binary:
        sidecar = path.with_name(path.name + ".fset")
        cached = _read_sidecar(sidecar, key)
        names, matrix = cached or _read_csv(path)
    # min and max propagate nan and inf with no temporary; initial covers width 0
    if not (np.isfinite(matrix.min(initial=0.0)) and np.isfinite(matrix.max(initial=0.0))):
        bad = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
        where = f" row {bad + 1}"
        if not binary:
            with path.open(encoding="utf-8") as handle:
                where = next(islice(_csv_rows(handle), bad, None))[0]
        raise FormatError(f"{path}:{where}: non-finite feature value")
    if not binary and not cached:
        _write_sidecar(sidecar, key, names, matrix)
    ids = split.class_ids
    labels = []
    for row, name in enumerate(names):
        if name not in ids:
            raise ManifestError(
                f"{path}: row {row + 1} label {name!r} is not in split "
                f"{split.dataset!r}"
            )
        labels.append(ids[name])
    return FeatureSet(matrix, np.array(labels, dtype=np.int64), split)


def _sha256(handle) -> bytes:
    digest = hashlib.sha256()
    # 64 KiB blocks: a load's footprint stays the matrix, not a block of the file
    for block in iter(lambda: handle.read(1 << 16), b""):
        digest.update(block)
    return digest.digest()


def _read_sidecar(sidecar: Path, key: bytes) -> tuple[list[str], np.ndarray] | None:
    """Names and matrix from the file ``sidecar`` if it starts with
    ``key`` and holds well-formed records of the CRC it gives, taken as
    they are read; else None."""
    try:
        with sidecar.open("rb") as handle:
            head, magic = handle.read(len(key) + 4), handle.read(4)
            if head[: len(key)] != key or magic != _BINARY_MAGIC:
                return None
            names, matrix, crc = _read_binary(sidecar, handle, zlib.crc32(magic))
    except (OSError, FormatError):
        return None
    return (names, matrix) if struct.pack("<I", crc) == head[len(key):] else None


def _write_sidecar(sidecar: Path, key: bytes, names: list[str], matrix: np.ndarray) -> None:
    """Write ``key``, the records' CRC, taken as they are written, and
    the records to ``sidecar`` whole or not at all. A directory that
    cannot take it is left as it was: the CSV is then parsed on every
    load."""
    try:
        with written_whole(sidecar, "wb") as handle:
            handle.write(key + bytes(4))
            crc = _write_records(handle, names, matrix)
            handle.seek(len(key))
            handle.write(struct.pack("<I", crc))
    except OSError:
        pass


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    names: list[str] = []
    matrix = array("d")  # row after row; shaped once every row is read
    width: int | None = None
    with open_utf8(path) as handle:
        for lineno, fields in _csv_rows(handle):
            if len(fields) < 2:
                raise FormatError(f"{path}:{lineno}: expected 'label,v1,...'")
            try:
                values = [float(v) for v in fields[1:]]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise FormatError(
                    f"{path}:{lineno}: ragged row, expected {width} values, "
                    f"got {len(values)}"
                )
            names.append(fields[0].strip())
            matrix.fromlist(values)
    if not names:
        raise FormatError(f"{path}: no feature rows")
    return names, np.frombuffer(matrix).reshape(len(names), width)


def _csv_rows(handle):
    """(line number, fields) of each line that is neither blank nor a
    '#' comment; lines end in "\n", "\r\n" or "\r"."""
    for lineno, raw in enumerate(handle, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split(",")


def _read_binary(path: Path, handle, crc: int = 0) -> tuple[list[str], np.ndarray, int]:
    """Names and matrix of the binary records of ``path``, read from
    ``handle`` past their magic to the end of the file, and the CRC-32
    of what was read, carried on from ``crc``."""
    size = os.fstat(handle.fileno()).st_size
    header = handle.read(8)
    crc = zlib.crc32(header, crc)
    if len(header) < 8:
        raise FormatError(f"{path}: bad binary header")
    n, m = struct.unpack("<II", header)
    if n == 0:
        raise FormatError(f"{path}: no feature rows")
    # never more rows than the rest of the file can hold: one past them is truncated
    matrix = np.empty((min(n, (size - handle.tell()) // (4 + 8 * m)), m), dtype="<f8")
    names: list[str] = []
    for i in range(n):
        if handle.tell() + 4 > size:
            raise FormatError(f"{path}: truncated at row {i + 1}")
        length = handle.read(4)
        (name_len,) = struct.unpack("<I", length)
        if handle.tell() + name_len + 8 * m > size:
            raise FormatError(f"{path}: truncated at row {i + 1}")
        name = handle.read(name_len)
        try:
            names.append(name.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: row {i + 1} name is not UTF-8: {exc}") from None
        handle.readinto(matrix[i])
        crc = zlib.crc32(matrix[i], zlib.crc32(name, zlib.crc32(length, crc)))
    if handle.tell() != size:
        raise FormatError(f"{path}: {size - handle.tell()} trailing bytes")
    return names, matrix, crc


def write_features_csv(path, names: list[str], matrix: np.ndarray) -> None:
    """Write ``label,v1,...,vm`` rows at %.17g, a row at a time, whole or
    not at all; no rows write one empty line."""
    with written_whole(path, "w", encoding="utf-8") as handle:
        for name, row in zip(names, matrix):
            handle.write(name + render_values(row, ",") + "\n")
        if not handle.tell():
            handle.write("\n")


def write_features_binary(path, names: list[str], matrix: np.ndarray) -> None:
    """Write the binary layout, a row at a time, whole or not at all."""
    with written_whole(path, "wb") as handle:
        _write_records(handle, names, matrix)


def _write_records(handle, names: list[str], matrix: np.ndarray) -> int:
    """The binary layout from its magic on, a row at a time; returns the
    CRC-32 of what it wrote."""
    matrix = np.asarray(matrix, dtype=np.float64)
    head = _BINARY_MAGIC + struct.pack("<II", *matrix.shape)
    handle.write(head)
    crc = zlib.crc32(head)
    for name, row in zip(names, matrix):
        encoded = name.encode("utf-8")
        record = struct.pack("<I", len(encoded)) + encoded
        values = np.ascontiguousarray(row, dtype="<f8")
        handle.write(record)
        handle.write(values)
        crc = zlib.crc32(values, zlib.crc32(record, crc))
    return crc


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthConfig:
    """Desk-scale synthetic dataset knobs.

    Each class has a latent vector; class-name and description
    embeddings are noisy views of it (sigma_c, sigma_p) and features are
    a fixed random linear image of it plus noise (sigma_z). Making
    sigma_p < sigma_c emulates descriptions carrying cleaner signal than
    bare class names.

    With ``latent_rank`` set, class latents share a random subspace of
    that rank; keeping it below the seen-class count makes unseen
    semantics linear combinations of seen ones, so zero-shot transfer
    is achievable by construction. ``None`` means full rank.
    """

    seen: int = 7
    unseen: int = 3
    m: int = 32
    d: int = 16
    per_class: int = 40
    sigma_c: float = 0.5
    sigma_p: float = 0.05
    sigma_z: float = 0.05
    latent_rank: int | None = None
    seed: int = 0


def synth_dataset(config: SynthConfig) -> tuple[FeatureSet, ClassSemantics]:
    """Seeded synthetic (features, semantics); deterministic in the seed."""
    if config.seen < 2 or config.unseen < 2:
        raise ContractError("need at least 2 seen and 2 unseen classes")
    rank = config.latent_rank if config.latent_rank is not None else config.d
    if not 1 <= rank <= config.d:
        raise ContractError(f"latent rank {rank} outside [1, {config.d}]")
    rng = np.random.default_rng(config.seed)
    total = config.seen + config.unseen
    if rank < config.d:
        basis, _ = np.linalg.qr(rng.normal(size=(config.d, rank)))
        latents = rng.normal(size=(total, rank)) @ basis.T * np.sqrt(config.d / rank)
    else:
        latents = rng.normal(size=(total, config.d))
    mixing = rng.normal(size=(config.m, config.d)) / np.sqrt(config.d)

    names = [f"class_{cid:02d}" for cid in range(total)]
    e_c, e_p = np.empty((total, config.d)), np.empty((total, config.d))
    for cid in range(total):  # per class: its e_c draw, then its e_p draw
        e_c[cid] = latents[cid] + config.sigma_c * rng.normal(size=config.d)
        e_p[cid] = latents[cid] + config.sigma_p * rng.normal(size=config.d)

    n = total * config.per_class
    labels = np.repeat(np.arange(total), config.per_class)
    noise = config.sigma_z * rng.normal(size=(n, config.m))
    features = latents[labels] @ mixing.T + noise

    split = SplitSpec("synthetic", names[: config.seen], names[config.seen :])
    return FeatureSet(features, labels, split), ClassSemantics(np.arange(total), names, e_c, e_p)


def split_for_eval(
    data: FeatureSet, seed: int, train_fraction: float = 0.5
) -> tuple[FeatureSet, FeatureSet]:
    """Partition rows into a seen-only training set and a test set.

    Per seen class, a ``train_fraction`` share of rows (at least one,
    never all) goes to training; the rest plus every unseen-class row
    forms the test set.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ContractError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_mask = np.zeros(data.n, dtype=bool)
    for cid in range(len(data.split.seen)):
        rows = np.flatnonzero(data.labels == cid)
        if rows.size < 2:
            raise ContractError(f"class {cid} has too few rows to split")
        rng.shuffle(rows)
        take = min(max(1, int(round(train_fraction * rows.size))), rows.size - 1)
        train_mask[rows[:take]] = True
    return data.take(train_mask), data.take(~train_mask)
