"""Class-semantics fusion: affine layers over the class-name and
description embeddings, mixed with a scalar weight.

The fused vector is ``sigma(e_c) + alpha * phi(e_p)`` where ``sigma``
and ``phi`` are learned affine maps (no nonlinearity) trained jointly
with whichever downstream objective consumes the result.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ContractError, FormatError, ManifestError, ShapeError

VARIATIONS = ("only-class-name", "only-chatgpt", "ours")

# alpha sweep used when tuning the description weight
ALPHA_SWEEP = (0.1, 0.3, 0.5, 0.7, 1.0)


@dataclass
class ClassSemantics:
    """Semantic inputs of a set of classes, one row per class in
    ascending id order: the class-name vectors ``e_c`` and the
    description vectors ``e_p``, both (k, d)."""

    ids: np.ndarray
    names: list[str]
    e_c: np.ndarray
    e_p: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        e_c = np.asarray(self.e_c, dtype=np.float64)
        e_p = np.asarray(self.e_p, dtype=np.float64)
        if ids.ndim != 1 or len(ids) == 0 or len(self.names) != len(ids):
            raise ContractError(f"class ids {ids.tolist()} for {len(self.names)} names")
        if e_c.ndim != 2 or e_c.shape != e_p.shape or len(e_c) != len(ids):
            raise ShapeError(f"{len(ids)} classes with e_c {e_c.shape} and e_p {e_p.shape}")
        order = np.argsort(ids, kind="stable")
        self.ids, self.e_c, self.e_p = ids[order], e_c[order], e_p[order]
        self.names = [self.names[i] for i in order]
        if np.any(self.ids[1:] == self.ids[:-1]):
            raise ContractError(f"duplicate class ids in {self.ids.tolist()}")

    @property
    def d(self) -> int:
        return self.e_c.shape[1]

    def rows(self, class_ids) -> np.ndarray:
        """Row of each of ``class_ids``; a ManifestError names the ids
        that have no row."""
        class_ids = np.asarray(class_ids, dtype=np.int64)
        rows = np.searchsorted(self.ids, class_ids)
        found = self.ids[np.minimum(rows, len(self.ids) - 1)] == class_ids
        if not found.all():
            missing = sorted(set(class_ids[~found].tolist()))
            raise ManifestError(f"classes without semantics: {missing}")
        return rows


class FusionParams:
    """The class semantics of one variation. Under "ours" the store holds
    the fusion layers, W_sigma/b_sigma on the class-name side and
    W_phi/b_phi on the description side, mixed by ``alpha``; the fixed
    variations use one raw side and leave the store empty."""

    def __init__(self, store: ad.ParamStore, alpha: float, d: int, variation: str = "ours"):
        if variation not in VARIATIONS:
            raise ContractError(f"unknown variation {variation!r}")
        if not 0.0 <= alpha <= 1.0:
            raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
        self.store = store
        self.alpha = float(alpha)
        self.d = d
        self.variation = variation


# scale constant on the Glorot bound; starting the layers small lets
# gradient descent grow only the directions the seen classes constrain,
# which keeps the maps coherent on unseen-class semantics
FUSION_INIT_SCALE = 0.1


def init_fusion(d: int, seed: int, alpha: float, variation: str = "ours") -> FusionParams:
    """Uniform init with bound FUSION_INIT_SCALE * sqrt(6 / (2 d));
    biases zero. Deterministic in ``seed``; no layers unless "ours"."""
    if d <= 0:
        raise ContractError("fusion dimension must be positive")
    rng = np.random.default_rng(seed)
    bound = FUSION_INIT_SCALE * np.sqrt(6.0 / (2 * d))
    store = ad.ParamStore()
    if variation == "ours":
        store.add("W_sigma", rng.uniform(-bound, bound, size=(d, d)))
        store.add("b_sigma", np.zeros(d))
        store.add("W_phi", rng.uniform(-bound, bound, size=(d, d)))
        store.add("b_phi", np.zeros(d))
    return FusionParams(store, alpha, d, variation)


def fuse_graph(params: FusionParams, e_c: np.ndarray, e_p: np.ndarray) -> np.ndarray:
    """Class semantics for a batch, rows are classes, (n, d) -> (n, d).

    The one place a variation picks its vector: only-class-name passes
    the class-name embedding through, only-chatgpt the description
    embedding, and ours applies the fusion layers.
    """
    if e_c.shape != e_p.shape or e_c.ndim != 2 or e_c.shape[1] != params.d:
        raise ShapeError(
            f"fuse expects (n, {params.d}) inputs, got {e_c.shape} and {e_p.shape}"
        )
    if params.variation == "only-class-name":
        return e_c
    if params.variation == "only-chatgpt":
        return e_p
    s = params.store
    name_side = e_c @ s["W_sigma"].data.T + s["b_sigma"].data
    desc_side = e_p @ s["W_phi"].data.T + s["b_phi"].data
    return name_side + desc_side * params.alpha


def fusion_grads(params: FusionParams, e_c, e_p, g) -> dict[str, np.ndarray]:
    """Adjoints of the fusion layers for the adjoint ``g`` of
    `fuse_graph`'s output; none for the fixed variations."""
    if not len(params.store):
        return {}
    grads = {}
    grads["W_sigma"], grads["b_sigma"] = ad.linear_grads(e_c, g)
    grads["W_phi"], grads["b_phi"] = ad.linear_grads(e_p, g * params.alpha)
    return grads


def resolve_semantics(semantics: ClassSemantics, fusion: FusionParams) -> np.ndarray:
    """The (k, d) semantic vectors of every class under ``fusion``.

    Each row is fused on its own: a one-row product can differ in its
    last bits from the same row of a batched one, and the vectors that
    condition synthesis and fill ``fused_semantics.csv`` are the
    one-row ones.
    """
    e_c, e_p = semantics.e_c, semantics.e_p
    return np.vstack(
        [fuse_graph(fusion, e_c[i : i + 1], e_p[i : i + 1]) for i in range(len(e_c))]
    )


# ---------------------------------------------------------------------------
# file formats

# Bundle file: one comment line "# bundles variation=<v> d=<d>", a CSV
# header, then one row per class: id, name, ec_0..ec_{d-1}, ep_0..ep_{d-1}.


def write_bundles(path, semantics: ClassSemantics, variation: str) -> None:
    if variation not in VARIATIONS:
        raise ContractError(f"unknown variation {variation!r}")
    d = semantics.d
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(f"# bundles variation={variation} d={d}\n")
        writer = csv.writer(handle)
        header = ["class_id", "name"]
        header += [f"ec_{i}" for i in range(d)] + [f"ep_{i}" for i in range(d)]
        writer.writerow(header)
        for i, cid in enumerate(semantics.ids):
            row = [str(cid), semantics.names[i]]
            row += [format(v, ".17g") for v in semantics.e_c[i]]
            row += [format(v, ".17g") for v in semantics.e_p[i]]
            writer.writerow(row)


def read_bundles(path) -> tuple[ClassSemantics, str]:
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith("# bundles"):
            raise FormatError(f"{path}: missing bundle header line")
        meta = dict(
            part.split("=", 1) for part in first[len("# bundles") :].split() if "=" in part
        )
        try:
            variation = meta["variation"]
            d = int(meta["d"])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: malformed bundle header") from exc
        if variation not in VARIATIONS:
            raise FormatError(f"{path}: unknown variation {variation!r}")
        reader = csv.reader(handle)
        next(reader, None)  # column header
        ids, names, values = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 2 + 2 * d:
                raise FormatError(f"{path}: row for {row[:2]} has {len(row)} fields")
            try:
                ids.append(int(row[0]))
                values.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from exc
            names.append(row[1])
    if not ids:
        raise FormatError(f"{path}: no bundle rows")
    values = np.array(values, dtype=np.float64)
    try:
        return ClassSemantics(ids, names, values[:, :d], values[:, d:]), variation
    except ContractError as exc:
        raise FormatError(f"{path}: {exc}") from None


def export_fused_csv(path, ids, rows: np.ndarray) -> None:
    """Write fused vectors (class id + d values per row) for plotting."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["class_id"] + [f"v{i}" for i in range(rows.shape[1])])
        for cid, row in zip(ids, rows):
            writer.writerow([str(cid)] + [format(v, ".17g") for v in row])
