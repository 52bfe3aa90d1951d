"""Generative-family zero-shot model.

A conditional Wasserstein critic/generator pair with gradient penalty
learns to synthesize class features from semantics; a frozen linear
softmax classifier (pretrained on real seen features) regularizes the
generator; a final softmax classifier trained on real seen plus
synthetic unseen features performs the actual ZSL/GZSL prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .datasets import FeatureSet, RunConfig, training_semantics
from .errors import ContractError, ManifestError, ShapeError
from .fusion import FusionParams, SemanticBundle, fuse_graph, init_fusion, resolve_semantics


BETA1, BETA2 = 0.5, 0.9  # Adam moment decays of the critic and generator


class Mlp:
    """Dense layers with leaky-relu (`ad.leaky_relu`'s slope 0.2) between
    them, linear at the end."""

    def __init__(self, store: ad.ParamStore, sizes: list[int]):
        self.store = store
        self.sizes = sizes

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        h = x
        for i in range(self.n_layers):
            h = ad.linear(h, self.store[f"l{i}.W"], self.store[f"l{i}.b"])
            if i < self.n_layers - 1:
                h = ad.leaky_relu(h)
        return h


def _init_mlp(sizes: list[int], seed: int) -> Mlp:
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        store.add(f"l{i}.W", rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        store.add(f"l{i}.b", np.zeros(fan_out))
    return Mlp(store, sizes)


class Generator:
    """Maps (noise, semantics) to a synthetic feature vector."""

    def __init__(self, mlp: Mlp, noise_dim: int, d: int, m: int):
        if noise_dim <= 0:
            raise ContractError("noise dimension must be positive")
        self.mlp = mlp
        self.noise_dim = noise_dim
        self.d = d
        self.m = m

    @property
    def store(self) -> ad.ParamStore:
        return self.mlp.store

    def forward(self, h: ad.Tensor, e: ad.Tensor) -> ad.Tensor:
        if h.shape[-1] != self.noise_dim or e.shape[-1] != self.d:
            raise ShapeError(
                f"generator inputs {h.shape}, {e.shape} do not match "
                f"(noise_dim={self.noise_dim}, d={self.d})"
            )
        return self.mlp.forward(ad.concat_cols(h, e))


class Discriminator:
    """Scalar-scoring Wasserstein critic conditioned on semantics."""

    def __init__(self, mlp: Mlp, m: int, d: int):
        self.mlp = mlp
        self.m = m
        self.d = d

    @property
    def store(self) -> ad.ParamStore:
        return self.mlp.store

    def forward(self, z: ad.Tensor, e: ad.Tensor) -> ad.Tensor:
        if z.shape[-1] != self.m or e.shape[-1] != self.d:
            raise ShapeError(
                f"critic inputs {z.shape}, {e.shape} do not match (m={self.m}, d={self.d})"
            )
        return self.mlp.forward(ad.concat_cols(z, e))


def init_generator(
    m: int, d: int, noise_dim: int, seed: int, hidden: list[int] | None = None
) -> Generator:
    sizes = [noise_dim + d] + (hidden if hidden is not None else [4 * m]) + [m]
    return Generator(_init_mlp(sizes, seed), noise_dim, d, m)


def init_discriminator(
    m: int, d: int, seed: int, hidden: list[int] | None = None
) -> Discriminator:
    sizes = [m + d] + (hidden if hidden is not None else [4 * m]) + [1]
    return Discriminator(_init_mlp(sizes, seed), m, d)


# ---------------------------------------------------------------------------
# gradient penalty


def gradient_penalty(
    disc: Discriminator,
    z_real: np.ndarray,
    z_fake: np.ndarray,
    e: np.ndarray,
    beta,
) -> ad.Tensor:
    """Unit-gradient-norm penalty at interpolates between real and fake.

    The interpolate ``beta * z_real + (1 - beta) * z_fake`` enters the
    critic as a fresh leaf; its input gradient comes from a backward
    pass kept differentiable so the penalty can train the critic.
    Accepts single vectors or row-aligned batches; ``beta`` may be a
    scalar or one value per row. Always >= 0, and exactly 0 only when
    the critic's input-gradient norm is 1 everywhere.
    """
    z_real = np.atleast_2d(np.asarray(z_real, dtype=np.float64))
    z_fake = np.atleast_2d(np.asarray(z_fake, dtype=np.float64))
    e = np.atleast_2d(np.asarray(e, dtype=np.float64))
    if z_real.shape != z_fake.shape or z_real.shape[0] != e.shape[0]:
        raise ShapeError(
            f"penalty inputs disagree: {z_real.shape}, {z_fake.shape}, {e.shape}"
        )
    beta_col = np.broadcast_to(
        np.asarray(beta, dtype=np.float64).reshape(-1, 1), (z_real.shape[0], 1)
    )
    z_tilde = ad.leaf(beta_col * z_real + (1.0 - beta_col) * z_fake)
    score_sum = ad.sum_all(disc.forward(z_tilde, ad.constant(e)))
    (g,) = ad.grad(score_sum, [z_tilde], create_graph=True)
    if g is None:
        g = ad.constant(np.zeros_like(z_tilde.data))
    norms = ad.sqrt(ad.sum_last(ad.square(g)))
    return ad.mean_all(ad.square(ad.shift(norms, -1.0)))


# ---------------------------------------------------------------------------
# softmax classifier


class SoftmaxClassifier:
    """Linear softmax over an ordered set of class ids."""

    def __init__(self, store: ad.ParamStore, class_ids: list[int], m: int):
        if len(class_ids) < 2:
            raise ContractError("softmax classifier needs at least 2 classes")
        if len(set(class_ids)) != len(class_ids):
            raise ContractError("duplicate class ids")
        self.store = store
        self.class_ids = list(class_ids)
        self.m = m
        self._row = {cid: i for i, cid in enumerate(self.class_ids)}

    def logits(self, z: ad.Tensor) -> ad.Tensor:
        return ad.linear(z, self.store["W"], self.store["b"])

    def rows_of(self, labels) -> np.ndarray:
        """Row of each label in ``W`` and ``b``; an unknown label is a
        ContractError naming the first one."""
        try:
            return np.array(
                [self._row[label] for label in np.atleast_1d(labels).tolist()],
                dtype=np.int64,
            )
        except KeyError as exc:
            raise ContractError(
                f"label {exc.args[0]} outside the classifier's classes"
            ) from None

    def predict_ids(self, z: np.ndarray, candidate_ids=None) -> np.ndarray:
        """Argmax labels, optionally restricted to a candidate subset."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        scores = self.logits(ad.constant(z)).data
        if candidate_ids is None:
            cols = np.arange(len(self.class_ids))
        else:
            missing = [c for c in candidate_ids if c not in self._row]
            if missing:
                raise ContractError(f"classifier does not cover classes {missing}")
            cols = np.array(sorted(self._row[c] for c in candidate_ids))
        picked = cols[np.argmax(scores[:, cols], axis=1)]
        ids = np.array(self.class_ids, dtype=np.int64)
        return ids[picked]


def init_classifier(m: int, class_ids: list[int], seed: int) -> SoftmaxClassifier:
    rng = np.random.default_rng(seed)
    store = ad.ParamStore()
    k = len(class_ids)
    store.add("W", rng.uniform(-1, 1, size=(k, m)) * np.sqrt(6.0 / (k + m)))
    store.add("b", np.zeros(k))
    return SoftmaxClassifier(store, class_ids, m)


def cls_loss_batch(
    classifier: SoftmaxClassifier, z_hat: ad.Tensor, labels
) -> ad.Tensor:
    """Mean negative log softmax probability of the true classes.

    ``z_hat`` may be a generator output, in which case the gradient
    flows back into the generator.
    """
    rows = classifier.rows_of(labels)
    logits = classifier.logits(z_hat)
    n, k = logits.shape
    if len(rows) != n:
        raise ContractError(f"{len(rows)} labels for {n} rows")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), rows] = 1.0
    return ad.softmax_xent(logits, onehot)


def _train_softmax(
    features: np.ndarray,
    labels: np.ndarray,
    class_ids: list[int],
    cfg: RunConfig,
) -> SoftmaxClassifier:
    """Minibatch Adam on the mean softmax cross-entropy of ``labels``,
    with the ``classifier_lr``, ``classifier_epochs``, ``batch_size``
    and ``seed`` of ``cfg``.

    Each batch's loss and gradients are plain arrays, with no graph:
    `ad.softmax_xent_grad` gives the logits adjoint, and `ad.linear`'s
    weight and bias rules carry it to ``W`` and ``b``. The parameters
    come out bit for bit as ``backward(cls_loss_batch(...))`` followed
    by `ad.adam_step` leaves them, and a non-finite loss is the same
    ContractError as in `ad.backward`.
    """
    clf = init_classifier(features.shape[1], class_ids, cfg.seed)
    state = ad.AdamState(clf.store)
    rng = np.random.default_rng(cfg.seed)
    n = features.shape[0]
    targets = np.zeros((n, len(class_ids)))
    targets[np.arange(n), clf.rows_of(labels)] = 1.0
    W, b = clf.store["W"], clf.store["b"]
    for _ in range(cfg.classifier_epochs):
        order = np.arange(n)
        if n > cfg.batch_size:
            rng.shuffle(order)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            x = features[rows]
            loss, g = ad.softmax_xent_grad(x @ W.data.T + b.data, targets[rows])
            ad.require_finite_loss(loss)
            # C-ordered, as backward stores linear's transposed weight adjoint
            clf.store.grads["W"] = np.ascontiguousarray((x.T @ g).T)
            clf.store.grads["b"] = g.sum(axis=0)
            ad.adam_step(clf.store, state, cfg.classifier_lr)
    return clf


def pretrain_classifier(seen_data: FeatureSet, cfg: RunConfig) -> SoftmaxClassifier:
    """Train the frozen regularizer classifier on real seen features."""
    present = sorted(int(c) for c in np.unique(seen_data.labels))
    outside = set(present) - set(seen_data.seen_ids)
    if outside:
        raise ManifestError(f"pretraining features contain non-seen classes {sorted(outside)}")
    if len(present) < 2:
        raise ContractError("need at least 2 classes to pretrain the classifier")
    return _train_softmax(seen_data.features, seen_data.labels, present, cfg)


def train_final_classifier(
    real_seen: FeatureSet | None,
    synth_unseen: FeatureSet,
    cfg: RunConfig,
) -> SoftmaxClassifier:
    """Final-stage classifier: union of classes when real seen features
    are given (GZSL), synthetic unseen classes only otherwise (ZSL)."""
    synth_classes = set(int(c) for c in np.unique(synth_unseen.labels))
    if real_seen is not None:
        seen_classes = set(int(c) for c in np.unique(real_seen.labels))
        overlap = seen_classes & synth_classes
        if overlap:
            raise ManifestError(
                f"seen and synthetic-unseen label sets overlap: {sorted(overlap)}"
            )
        features = np.vstack([real_seen.features, synth_unseen.features])
        labels = np.concatenate([real_seen.labels, synth_unseen.labels])
        class_ids = sorted(seen_classes | synth_classes)
    else:
        features = synth_unseen.features
        labels = synth_unseen.labels
        class_ids = sorted(synth_classes)
    if len(class_ids) < 2:
        raise ContractError("need at least 2 classes to train a classifier")
    return _train_softmax(features, labels, class_ids, cfg)


# ---------------------------------------------------------------------------
# adversarial training


@dataclass
class StepRecord:
    critic_loss: float
    wasserstein: float
    penalty: float
    gen_loss: float
    cls_term: float


class GanTrainer:
    """One adversarial training run over seen-class features.

    The generator (and, for the fused variation, the fusion layers)
    update once per cycle after ``n_critic`` critic updates; the
    semantics are treated as constants inside critic updates so the
    critic never trains them. `train` runs ``epochs × ceil(n /
    batch_size)`` cycles of ``cfg``.
    """

    def __init__(
        self,
        data: FeatureSet,
        bundles: list[SemanticBundle],
        classifier: SoftmaxClassifier,
        cfg: RunConfig,
    ):
        # one semantic row per class; a batch picks its rows by label
        self._ec, self._ep, self._class_rows = training_semantics(
            data, bundles, "generator training features"
        )
        if cfg.eta <= 0:
            raise ContractError("penalty coefficient must be positive")

        self.data = data
        self.config = cfg
        self.classifier = classifier
        d = bundles[0].dimension
        hidden = [cfg.hidden_mult * data.m]
        seeds = np.random.SeedSequence(cfg.seed).spawn(4)
        g_seed, d_seed, f_seed, batch_seed = (int(s.generate_state(1)[0]) for s in seeds)
        self.gen = init_generator(data.m, d, cfg.noise_dim, g_seed, hidden)
        self.disc = init_discriminator(data.m, d, d_seed, hidden)
        self.fusion = init_fusion(d, f_seed, cfg.alpha, cfg.variation)
        self.rng = np.random.default_rng(batch_seed)

        self._gen_stores = [self.gen.store, self.fusion.store]
        self._gen_states = [ad.AdamState(s) for s in self._gen_stores]
        self._disc_state = ad.AdamState(self.disc.store)

    def _semantics_for(self, rows: np.ndarray, graph: bool) -> ad.Tensor:
        """Per-row conditioning vectors; ``graph`` keeps fusion trainable."""
        sem = self._class_rows[rows]
        e = fuse_graph(self.fusion, ad.constant(self._ec[sem]), ad.constant(self._ep[sem]))
        return e if graph else e.detach()

    def _draw_rows(self) -> np.ndarray:
        n = self.data.n
        take = min(self.config.batch_size, n)
        return self.rng.choice(n, size=take, replace=False)

    def _fake_batch(self, rows: np.ndarray, graph: bool) -> tuple[ad.Tensor, ad.Tensor]:
        h = ad.constant(self.rng.normal(size=(rows.size, self.config.noise_dim)))
        e = self._semantics_for(rows, graph)
        return self.gen.forward(h, e), e

    def wgan_step(self) -> StepRecord:
        """n_critic critic updates, then one generator update."""
        cfg = self.config
        critic_loss = wasserstein = penalty = 0.0
        for _ in range(cfg.n_critic):
            rows = self._draw_rows()
            z_real = self.data.features[rows]
            fake, e = self._fake_batch(rows, graph=False)
            z_fake = fake.detach()
            score_real = ad.mean_all(self.disc.forward(ad.constant(z_real), e))
            score_fake = ad.mean_all(self.disc.forward(z_fake, e))
            beta = self.rng.uniform(size=rows.size)
            gp = gradient_penalty(self.disc, z_real, z_fake.data, e.data, beta)
            loss = ad.add(ad.sub(score_fake, score_real), ad.scale(gp, cfg.eta))
            ad.backward(loss, self.disc.store)
            ad.adam_step(self.disc.store, self._disc_state, cfg.lr, BETA1, BETA2)
            critic_loss = loss.item()
            wasserstein = score_real.item() - score_fake.item()
            penalty = gp.item()

        rows = self._draw_rows()
        fake, e = self._fake_batch(rows, graph=True)
        score = ad.mean_all(self.disc.forward(fake, e))
        cls_term = cls_loss_batch(self.classifier, fake, self.data.labels[rows])
        gen_loss = ad.add(ad.neg(score), ad.scale(cls_term, cfg.cls_weight))
        ad.backward(gen_loss, *self._gen_stores)
        for store, state in zip(self._gen_stores, self._gen_states):
            ad.adam_step(store, state, cfg.lr, BETA1, BETA2)
        return StepRecord(
            critic_loss, wasserstein, penalty, gen_loss.item(), cls_term.item()
        )

    def train(self) -> list[StepRecord]:
        cfg = self.config
        cycles = cfg.epochs * max(1, math.ceil(self.data.n / cfg.batch_size))
        return [self.wgan_step() for _ in range(cycles)]


def synthesize(gen: Generator, bundle: SemanticBundle, n: int, seed: int) -> np.ndarray:
    """Draw n synthetic feature vectors for one class; seed-deterministic."""
    if n <= 0:
        raise ContractError("need a positive sample count")
    if bundle.e is None:
        raise ContractError(f"bundle {bundle.name!r} has no fused semantics")
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, gen.noise_dim))
    e = np.broadcast_to(bundle.e, (n, bundle.dimension))
    return gen.forward(ad.constant(h), ad.constant(e.copy())).data


def synthesize_set(
    gen: Generator,
    fusion: FusionParams,
    bundles: list[SemanticBundle],
    unseen_ids,
    per_class: int,
    seed: int,
    class_table: dict[int, str],
) -> FeatureSet:
    """Synthetic feature set for the bundles of ``unseen_ids``, one block
    per class, conditioned on their semantics under ``fusion``."""
    unseen = resolve_semantics([b for b in bundles if b.class_id in unseen_ids], fusion)
    if not unseen:
        raise ContractError("no classes to synthesize")
    blocks, labels = [], []
    for b in sorted(unseen, key=lambda b: b.class_id):
        class_seed = int(np.random.SeedSequence([seed, b.class_id]).generate_state(1)[0])
        blocks.append(synthesize(gen, b, per_class, class_seed))
        labels.extend([b.class_id] * per_class)
    return FeatureSet(
        np.vstack(blocks),
        np.array(labels, dtype=np.int64),
        class_table,
        frozenset(),
        frozenset(b.class_id for b in unseen),
    )


class GenPredictor:
    """Evaluation adapter around the final softmax classifier."""

    def __init__(self, classifier: SoftmaxClassifier, variation: str):
        self.classifier = classifier
        self.variation = variation

    def predict_batch(
        self, z: np.ndarray, candidates: list[SemanticBundle]
    ) -> np.ndarray:
        return self.classifier.predict_ids(z, [b.class_id for b in candidates])
