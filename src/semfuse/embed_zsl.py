"""Embedding-family zero-shot model.

Features and class semantics are projected into a common space by two
affine branches; training minimizes the mean squared Euclidean distance
between paired projections plus a weight penalty, and inference picks
the nearest projected class prototype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .datasets import FeatureSet, RunConfig, training_semantics
from .errors import ContractError, ShapeError
from .fusion import FusionParams, SemanticBundle, fuse_graph, init_fusion


class EmbedModel:
    """Two projection branches into a shared q-dimensional space."""

    def __init__(self, store: ad.ParamStore, q: int, m: int, d: int, lam: float):
        self.store = store
        self.q = q
        self.m = m
        self.d = d
        self.lam = lam

    def project_features(self, z: ad.Tensor) -> ad.Tensor:
        return ad.linear(z, self.store["W_z"], self.store["b_z"])

    def project_semantics(self, e: ad.Tensor) -> ad.Tensor:
        return ad.linear(e, self.store["W_e"], self.store["b_e"])

    def weight_penalty(self) -> ad.Tensor:
        return ad.add(ad.sum_sq(self.store["W_z"]), ad.sum_sq(self.store["W_e"]))


def init_embed_model(q: int, m: int, d: int, lam: float, seed: int) -> EmbedModel:
    if q <= 0 or m <= 0 or d <= 0:
        raise ContractError("dimensions must be positive")
    if lam < 0 or not np.isfinite(lam):
        raise ContractError("lambda must be finite and non-negative")
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    store.add("W_z", rng.uniform(-1, 1, size=(q, m)) * np.sqrt(6.0 / (q + m)))
    store.add("b_z", np.zeros(q))
    store.add("W_e", rng.uniform(-1, 1, size=(q, d)) * np.sqrt(6.0 / (q + d)))
    store.add("b_e", np.zeros(q))
    return EmbedModel(store, q, m, d, lam)


def _semantic_graph(fusion: FusionParams, bundles: list[SemanticBundle]) -> ad.Tensor:
    """Semantic inputs for a list of bundles, one row per bundle."""
    e_c = ad.constant(np.stack([b.e_c for b in bundles]))
    e_p = ad.constant(np.stack([b.e_p for b in bundles]))
    return fuse_graph(fusion, e_c, e_p)


def embed_loss(
    model: EmbedModel,
    fusion: FusionParams,
    z: np.ndarray,
    e_c: np.ndarray,
    e_p: np.ndarray,
) -> ad.Tensor:
    """Mean squared common-space distance plus the weight penalty, for
    feature rows ``z`` paired with the class-name and description
    vectors ``e_c`` and ``e_p`` of their classes, one row each."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] == 0:
        raise ContractError("empty batch")
    if z.ndim != 2 or z.shape[1] != model.m:
        raise ShapeError(f"features have shape {z.shape}, expected (n, {model.m})")
    if len(e_c) != z.shape[0] or len(e_p) != z.shape[0]:
        raise ShapeError(
            f"{z.shape[0]} feature rows for {len(e_c)} and {len(e_p)} semantic rows"
        )
    z_proj = model.project_features(ad.constant(z))
    e = fuse_graph(fusion, ad.constant(e_c), ad.constant(e_p))
    e_proj = model.project_semantics(e)
    pair_term = ad.scale(ad.sum_sq(ad.sub(z_proj, e_proj)), 1.0 / z.shape[0])
    penalty = ad.add(model.weight_penalty(), fusion.weight_penalty())
    return ad.add(pair_term, ad.scale(penalty, model.lam))


@dataclass
class EmbedRun:
    """Training artifacts: both parameter groups plus the loss trace."""

    model: EmbedModel
    fusion: FusionParams
    loss_history: list[float] = field(default_factory=list)


def train_embed(
    data: FeatureSet, bundles: list[SemanticBundle], cfg: RunConfig
) -> EmbedRun:
    """Gradient-descent training on seen-class features, with the
    ``q``, ``lam``, ``alpha``, ``variation``, ``optimizer``, ``lr``,
    ``epochs``, ``batch_size`` and ``seed`` of ``cfg``.

    Full batch when the dataset fits in one batch, otherwise shuffled
    mini-batches. Deterministic given config and seed; epochs=0 returns
    the freshly initialized parameters.
    """
    step = {
        "adam": lambda store, state: ad.adam_step(store, state, cfg.lr),
        "sgd": lambda store, state: ad.sgd_step(store, cfg.lr),
    }.get(cfg.optimizer)
    if step is None:
        raise ContractError(f"unknown optimizer {cfg.optimizer!r}")
    # one semantic row per class; a batch picks its rows by label
    e_c, e_p, class_rows = training_semantics(data, bundles, "training features")
    d = bundles[0].dimension
    q = cfg.q if cfg.q is not None else d
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    model_seed, fusion_seed, shuffle_seed = (
        int(s.generate_state(1)[0]) for s in seeds
    )
    model = init_embed_model(q, data.m, d, cfg.lam, model_seed)
    fusion = init_fusion(d, fusion_seed, cfg.alpha, cfg.variation)
    stores = [model.store, fusion.store]
    states = [ad.AdamState(s) for s in stores]
    rng = np.random.default_rng(shuffle_seed)
    history: list[float] = []

    for _ in range(cfg.epochs):
        order = np.arange(data.n)
        if data.n > cfg.batch_size:
            rng.shuffle(order)
        epoch_losses = []
        for start in range(0, data.n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            sem = class_rows[rows]
            loss = embed_loss(model, fusion, data.features[rows], e_c[sem], e_p[sem])
            ad.backward(loss, *stores)
            for store, state in zip(stores, states):
                step(store, state)
            epoch_losses.append(loss.item())
        history.append(float(np.mean(epoch_losses)))
    return EmbedRun(model, fusion, history)


def _prototype_matrix(
    model: EmbedModel, fusion: FusionParams, candidates: list[SemanticBundle]
) -> tuple[np.ndarray, np.ndarray]:
    """Projected class prototypes, sorted by class id."""
    ordered = sorted(candidates, key=lambda b: b.class_id)
    protos = model.project_semantics(_semantic_graph(fusion, ordered)).data
    ids = np.array([b.class_id for b in ordered], dtype=np.int64)
    return protos, ids


def classify_batch(
    model: EmbedModel,
    fusion: FusionParams,
    z: np.ndarray,
    candidates: list[SemanticBundle],
) -> np.ndarray:
    """Nearest-prototype labels for feature rows; ties go to the lowest id."""
    if not candidates:
        raise ContractError("no candidate classes")
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    protos, ids = _prototype_matrix(model, fusion, candidates)
    z_proj = model.project_features(ad.constant(z)).data
    # squared distances (n_samples, n_candidates); argmin hits the first
    # minimum, i.e. the lowest class id because prototypes are id-sorted
    d2 = ((z_proj[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    return ids[np.argmin(d2, axis=1)]


class EmbedPredictor:
    """Evaluation adapter bundling the trained branches and semantics."""

    def __init__(self, model: EmbedModel, fusion: FusionParams):
        self.model = model
        self.fusion = fusion
        self.variation = fusion.variation

    def predict_batch(
        self, z: np.ndarray, candidates: list[SemanticBundle]
    ) -> np.ndarray:
        return classify_batch(self.model, self.fusion, z, candidates)
