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
from .errors import ContractError, FormatError, ShapeError

VARIATIONS = ("only-class-name", "only-chatgpt", "ours")

# alpha sweep used when tuning the description weight
ALPHA_SWEEP = (0.1, 0.3, 0.5, 0.7, 1.0)


@dataclass
class SemanticBundle:
    """Per-class semantic vectors: class-name side, description side,
    and the fused output once it has been computed."""

    class_id: int
    name: str
    e_c: np.ndarray
    e_p: np.ndarray
    e: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.e_c = np.asarray(self.e_c, dtype=np.float64)
        self.e_p = np.asarray(self.e_p, dtype=np.float64)
        if self.e_c.shape != self.e_p.shape or self.e_c.ndim != 1:
            raise ShapeError(
                f"bundle {self.name!r}: e_c {self.e_c.shape} vs e_p {self.e_p.shape}"
            )
        if self.e is not None:
            self.e = np.asarray(self.e, dtype=np.float64)
            if self.e.shape != self.e_c.shape:
                raise ShapeError(f"bundle {self.name!r}: fused shape {self.e.shape}")

    @property
    def dimension(self) -> int:
        return self.e_c.shape[0]


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

    def weight_penalty(self) -> ad.Tensor:
        """Sum of squared layer weights (biases excluded); 0 without layers."""
        if not len(self.store):
            return ad.constant(0.0)
        return ad.add(ad.sum_sq(self.store["W_sigma"]), ad.sum_sq(self.store["W_phi"]))


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


def fuse_graph(params: FusionParams, e_c: ad.Tensor, e_p: ad.Tensor) -> ad.Tensor:
    """Class semantics for a batch, rows are classes, (n, d) -> (n, d).

    The one place a variation picks its vector: only-class-name passes
    the class-name embedding through, only-chatgpt the description
    embedding, and ours applies the fusion layers.
    """
    if e_c.shape != e_p.shape or e_c.data.ndim != 2 or e_c.shape[1] != params.d:
        raise ShapeError(
            f"fuse expects (n, {params.d}) inputs, got {e_c.shape} and {e_p.shape}"
        )
    if params.variation == "only-class-name":
        return e_c
    if params.variation == "only-chatgpt":
        return e_p
    s = params.store
    name_side = ad.linear(e_c, s["W_sigma"], s["b_sigma"])
    desc_side = ad.linear(e_p, s["W_phi"], s["b_phi"])
    return ad.add(name_side, ad.scale(desc_side, params.alpha))


def fuse(params: FusionParams, e_c: np.ndarray, e_p: np.ndarray) -> np.ndarray:
    """Class semantics for one class pair of vectors."""
    e_c = np.asarray(e_c, dtype=np.float64)
    e_p = np.asarray(e_p, dtype=np.float64)
    if e_c.ndim != 1 or e_c.shape != e_p.shape:
        raise ShapeError(f"fuse expects equal vectors, got {e_c.shape} and {e_p.shape}")
    out = fuse_graph(params, ad.constant(e_c[None, :]), ad.constant(e_p[None, :]))
    return out.data[0]


def resolve_semantics(
    bundles: list[SemanticBundle], fusion: FusionParams
) -> list[SemanticBundle]:
    """Copies of the bundles with the semantic vector ``e`` filled in."""
    return [
        SemanticBundle(b.class_id, b.name, b.e_c, b.e_p, fuse(fusion, b.e_c, b.e_p))
        for b in bundles
    ]


# ---------------------------------------------------------------------------
# file formats

# Bundle file: one comment line "# bundles variation=<v> d=<d>", a CSV
# header, then one row per class: id, name, ec_0..ec_{d-1}, ep_0..ep_{d-1}.


def write_bundles(path, bundles: list[SemanticBundle], variation: str) -> None:
    if variation not in VARIATIONS:
        raise ContractError(f"unknown variation {variation!r}")
    if not bundles:
        raise ContractError("no bundles to write")
    d = bundles[0].dimension
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(f"# bundles variation={variation} d={d}\n")
        writer = csv.writer(handle)
        header = ["class_id", "name"]
        header += [f"ec_{i}" for i in range(d)] + [f"ep_{i}" for i in range(d)]
        writer.writerow(header)
        for b in sorted(bundles, key=lambda b: b.class_id):
            row = [str(b.class_id), b.name]
            row += [format(v, ".17g") for v in b.e_c]
            row += [format(v, ".17g") for v in b.e_p]
            writer.writerow(row)


def read_bundles(path) -> tuple[list[SemanticBundle], str]:
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
        bundles = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2 + 2 * d:
                raise FormatError(f"{path}: row for {row[:2]} has {len(row)} fields")
            try:
                class_id = int(row[0])
                values = np.array([float(v) for v in row[2:]], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from exc
            bundles.append(SemanticBundle(class_id, row[1], values[:d], values[d:]))
    if not bundles:
        raise FormatError(f"{path}: no bundle rows")
    return bundles, variation


def export_fused_csv(path, bundles: list[SemanticBundle]) -> None:
    """Write fused vectors (class id + d values per row) for plotting."""
    if not bundles:
        raise ContractError("no bundles to export")
    if any(b.e is None for b in bundles):
        raise ContractError("bundles must be resolved before export")
    d = bundles[0].dimension
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["class_id"] + [f"v{i}" for i in range(d)])
        for b in sorted(bundles, key=lambda b: b.class_id):
            writer.writerow([str(b.class_id)] + [format(v, ".17g") for v in b.e])
