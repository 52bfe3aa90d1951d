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
from .fusion import ClassSemantics, FusionParams, fuse_graph, fusion_grads, init_fusion


class EmbedModel:
    """Two projection branches into a shared q-dimensional space."""

    def __init__(self, store: ad.Params, q: int, m: int, d: int, lam: float):
        self.store = store
        self.q = q
        self.m = m
        self.d = d
        self.lam = lam

    def project_features(self, z: np.ndarray) -> np.ndarray:
        return z @ self.store["W_z"].T + self.store["b_z"]

    def project_semantics(self, e: np.ndarray) -> np.ndarray:
        return e @ self.store["W_e"].T + self.store["b_e"]


def init_embed_model(q: int, m: int, d: int, lam: float, seed: int) -> EmbedModel:
    if q <= 0 or m <= 0 or d <= 0:
        raise ContractError("dimensions must be positive")
    if lam < 0 or not np.isfinite(lam):
        raise ContractError("lambda must be finite and non-negative")
    rng = np.random.default_rng(seed)
    store = {}
    store["W_z"] = rng.uniform(-1, 1, size=(q, m)) * np.sqrt(6.0 / (q + m))
    store["b_z"] = np.zeros(q)
    store["W_e"] = rng.uniform(-1, 1, size=(q, d)) * np.sqrt(6.0 / (q + d))
    store["b_e"] = np.zeros(q)
    return EmbedModel(store, q, m, d, lam)


def embed_loss(
    model: EmbedModel,
    fusion: FusionParams,
    z: np.ndarray,
    e_c: np.ndarray,
    e_p: np.ndarray,
) -> tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Mean squared common-space distance plus the weight penalty, for
    feature rows ``z`` paired with the class-name and description
    vectors ``e_c`` and ``e_p`` of their classes, one row each, and the
    gradients of the model's and the fusion layers' parameters. A
    non-finite loss is a ContractError."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] == 0:
        raise ContractError("empty batch")
    if z.ndim != 2 or z.shape[1] != model.m:
        raise ShapeError(f"features have shape {z.shape}, expected (n, {model.m})")
    if len(e_c) != z.shape[0] or len(e_p) != z.shape[0]:
        raise ShapeError(
            f"{z.shape[0]} feature rows for {len(e_c)} and {len(e_p)} semantic rows"
        )
    n = z.shape[0]
    stores = (model.store, fusion.store)
    weights = [[(k, w) for k, w in s.items() if k.startswith("W")] for s in stores]
    e = fuse_graph(fusion, e_c, e_p)
    diff = model.project_features(z) - model.project_semantics(e)
    penalty = [sum((w * w).sum() for _, w in ws) for ws in weights]
    loss = float((diff * diff).sum() * (1.0 / n) + (penalty[0] + penalty[1]) * model.lam)
    ad.require_finite_loss(loss)

    # diff * diff sends one equal share of its adjoint to each factor
    g_z = np.full(diff.shape, 1.0 / n) * diff
    g_z = g_z + g_z
    g_e = -g_z
    model_grads = {}
    model_grads["W_z"], model_grads["b_z"] = ad.linear_grads(z, g_z)
    model_grads["W_e"], model_grads["b_e"] = ad.linear_grads(e, g_e)
    g_fused = g_e @ model.store["W_e"] if fusion.store else None
    fused = fusion_grads(fusion, e_c, e_p, g_fused)
    for grads, ws in zip((model_grads, fused), weights):
        for name, w in ws:  # so does each w * w of the penalty
            square = model.lam * w
            # C-ordered like the square, so both add in place
            grad = grads[name] = np.ascontiguousarray(grads[name])
            grad += square
            grad += square
    return loss, model_grads, fused


@dataclass
class EmbedRun:
    """Training artifacts: both parameter groups plus the loss trace."""

    model: EmbedModel
    fusion: FusionParams
    loss_history: list[float] = field(default_factory=list)


def train_embed(data: FeatureSet, semantics: ClassSemantics, cfg: RunConfig) -> EmbedRun:
    """Gradient-descent training on seen-class features, with the
    ``q``, ``lam``, ``alpha``, ``variation``, ``optimizer``, ``lr``,
    ``epochs``, ``batch_size`` and ``seed`` of ``cfg``.

    Full batch when the dataset fits in one batch, otherwise shuffled
    mini-batches. Deterministic given config and seed; epochs=0 returns
    the freshly initialized parameters.
    """
    step = {
        "adam": lambda params, grads, state: ad.adam_step(params, grads, state, cfg.lr),
        "sgd": lambda params, grads, state: ad.sgd_step(params, grads, cfg.lr),
    }.get(cfg.optimizer)
    if step is None:
        raise ContractError(f"unknown optimizer {cfg.optimizer!r}")
    # a batch picks its semantic rows by label
    class_rows = training_semantics(data, semantics, "training features")
    e_c, e_p, d = semantics.e_c, semantics.e_p, semantics.d
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
            loss, *grads = embed_loss(model, fusion, data.features[rows], e_c[sem], e_p[sem])
            for store, state, g in zip(stores, states, grads):
                step(store, g, state)
            del grads, g  # not held through the next batch
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return EmbedRun(model, fusion, history)


def classify_batch(
    model: EmbedModel,
    fusion: FusionParams,
    semantics: ClassSemantics,
    z: np.ndarray,
    candidate_ids,
) -> np.ndarray:
    """Nearest-prototype labels for feature rows among the classes
    ``candidate_ids``; ties go to the lowest id."""
    ids = np.unique(np.asarray(candidate_ids, dtype=np.int64))
    if not ids.size:
        raise ContractError("no candidate classes")
    rows = semantics.rows(ids)
    protos = model.project_semantics(fuse_graph(fusion, semantics.e_c[rows], semantics.e_p[rows]))
    z_proj = model.project_features(np.atleast_2d(np.asarray(z, dtype=np.float64)))
    # squared distances (n_samples, n_candidates); argmin hits the first
    # minimum, i.e. the lowest class id because prototypes are id-sorted
    d2 = ((z_proj[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    return ids[np.argmin(d2, axis=1)]
