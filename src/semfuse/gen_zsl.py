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
from .datasets import FeatureSet, RunConfig, SplitSpec, require_seen_only, training_semantics
from .errors import ContractError, ManifestError, ShapeError
from .fusion import ClassSemantics, FusionParams, init_fusion, resolve_semantics
from .fusion import fuse_graph, fusion_grads


BETA1, BETA2 = 0.5, 0.9  # Adam moment decays of the critic and generator
LEAKY_SLOPE = 0.2


class Mlp:
    """Conditional network over ``concat(x, e)``: dense layers with
    leaky-relu (slope LEAKY_SLOPE) between them, linear at the end.
    ``d`` is the semantic width of ``e``; ``x`` takes the rest of the
    first layer's input. The generator maps (noise, semantics) to a
    feature vector, the Wasserstein critic (features, semantics) to a
    score."""

    def __init__(self, store: ad.Params, sizes: list[int], d: int):
        self.store = store
        self.sizes = sizes
        self.d = d

    @property
    def x_dim(self) -> int:
        return self.sizes[0] - self.d

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def run(self, x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, tuple[list, list]]:
        """Output for rows of ``x`` and ``e``, and the trace `back` reads:
        each layer's input and each hidden layer's leaky-relu slopes."""
        if x.shape[-1] != self.x_dim or e.shape[-1] != self.d:
            raise ShapeError(
                f"inputs {x.shape}, {e.shape} do not match "
                f"(x width {self.x_dim}, d={self.d})"
            )
        h = np.concatenate([x, e], axis=-1)
        inputs, masks = [], []
        for i in range(self.n_layers):
            inputs.append(h)
            h = h @ self.store[f"l{i}.W"].T
            h += self.store[f"l{i}.b"]  # in place: no second layer-sized array
            if i < self.n_layers - 1:
                masks.append(np.where(h > 0, 1.0, LEAKY_SLOPE))
                h *= masks[-1]
        return h, (inputs, masks)

    def back(self, trace, g: np.ndarray, params: bool, inputs: bool) -> tuple:
        """Adjoints for the output adjoint ``g`` of the `run` that left
        ``trace``: each parameter's by name if ``params``, and the
        concatenated input's if ``inputs`` (else None)."""
        layer_inputs, masks = trace
        grads = {}
        for i in reversed(range(self.n_layers)):
            if i < self.n_layers - 1:
                g = g * masks[i]
            if params:
                grads[f"l{i}.W"], grads[f"l{i}.b"] = ad.linear_grads(layer_inputs[i], g)
            if i or inputs:
                g = g @ self.store[f"l{i}.W"]
        return grads, g if inputs else None


def _init_mlp(sizes: list[int], d: int, seed: int) -> Mlp:
    rng = np.random.default_rng(seed)
    store = {}
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        store[f"l{i}.W"] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        store[f"l{i}.b"] = np.zeros(fan_out)
    return Mlp(store, sizes, d)


def init_generator(m: int, d: int, noise_dim: int, seed: int, hidden: list[int]) -> Mlp:
    """Generator: (noise, semantics) to an m-wide feature vector."""
    if noise_dim <= 0:
        raise ContractError("noise dimension must be positive")
    return _init_mlp([noise_dim + d, *hidden, m], d, seed)


def init_discriminator(m: int, d: int, seed: int, hidden: list[int]) -> Mlp:
    """Critic: (m-wide features, semantics) to a scalar score."""
    return _init_mlp([m + d, *hidden, 1], d, seed)


# ---------------------------------------------------------------------------
# gradient penalty


def gradient_penalty(
    disc: Mlp,
    z_real: np.ndarray,
    z_fake: np.ndarray,
    e: np.ndarray,
    beta,
    eta: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """Unit-gradient-norm penalty at interpolates between real and fake,
    and the gradients of ``eta`` times it for the critic's weights.

    The critic runs on the interpolate ``beta * z_real + (1 - beta) *
    z_fake``; its input gradient is built as graph nodes over leaves
    wrapping the critic's weights, and `ad.grad` of the scaled penalty
    gives their gradients (the biases get none). Accepts single vectors
    or row-aligned batches; ``beta`` may be a scalar or one value per
    row. Always >= 0, and exactly 0 only when the critic's input-gradient
    norm is 1 everywhere.
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
    _, (_, masks) = disc.run(beta_col * z_real + (1.0 - beta_col) * z_fake, e)
    names = [f"l{i}.W" for i in range(disc.n_layers)]
    leaves = [ad.leaf(disc.store[name]) for name in names]
    g = ad.constant(np.ones((z_real.shape[0], 1)))
    for i in reversed(range(disc.n_layers)):
        if i < disc.n_layers - 1:
            g = ad.mul(g, ad.constant(masks[i]))
        g = ad.matmul(g, leaves[i])
    g = ad.slice_cols(g, 0, disc.x_dim)
    norms = ad.sqrt(ad.sum_last(ad.square(g)))
    gp = ad.mean_all(ad.square(ad.shift(norms, -1.0)))
    grads = ad.grad(ad.scale(gp, eta), leaves)
    return gp.item(), {name: g.data for name, g in zip(names, grads)}


# ---------------------------------------------------------------------------
# softmax classifier


class SoftmaxClassifier:
    """Linear softmax over an ordered set of class ids."""

    def __init__(self, store: ad.Params, class_ids: list[int]):
        if len(class_ids) < 2:
            raise ContractError("softmax classifier needs at least 2 classes")
        if len(set(class_ids)) != len(class_ids):
            raise ContractError("duplicate class ids")
        self.store = store
        self.class_ids = list(class_ids)
        self._row = {cid: i for i, cid in enumerate(self.class_ids)}

    def logits(self, z: np.ndarray) -> np.ndarray:
        return z @ self.store["W"].T + self.store["b"]

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

    def predict_ids(self, z: np.ndarray, candidate_ids) -> np.ndarray:
        """Argmax labels among the classes ``candidate_ids``; a candidate
        the classifier lacks is a ContractError."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        scores = self.logits(z)
        missing = [c for c in candidate_ids if c not in self._row]
        if missing:
            raise ContractError(f"classifier does not cover classes {missing}")
        cols = np.array(sorted(self._row[c] for c in candidate_ids))
        picked = cols[np.argmax(scores[:, cols], axis=1)]
        ids = np.array(self.class_ids, dtype=np.int64)
        return ids[picked]


def init_classifier(m: int, class_ids: list[int], seed: int) -> SoftmaxClassifier:
    rng = np.random.default_rng(seed)
    k = len(class_ids)
    store = {"W": rng.uniform(-1, 1, size=(k, m)) * np.sqrt(6.0 / (k + m)), "b": np.zeros(k)}
    return SoftmaxClassifier(store, class_ids)


def _train_softmax(
    features: np.ndarray,
    labels: np.ndarray,
    class_ids: list[int],
    cfg: RunConfig,
) -> SoftmaxClassifier:
    """Minibatch Adam on the mean softmax cross-entropy of ``labels``,
    with the ``classifier_lr``, ``classifier_epochs``, ``batch_size``
    and ``seed`` of ``cfg``.

    `ad.softmax_xent_grad` gives each batch's loss and logits adjoint,
    and `ad.linear_grads` carries it to ``W`` and ``b``. A non-finite
    loss is a ContractError.
    """
    clf = init_classifier(features.shape[1], class_ids, cfg.seed)
    state = ad.AdamState(clf.store)
    rng = np.random.default_rng(cfg.seed)
    n = features.shape[0]
    targets = np.eye(len(class_ids))[clf.rows_of(labels)]
    for _ in range(cfg.classifier_epochs):
        order = np.arange(n)
        if n > cfg.batch_size:
            rng.shuffle(order)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            x = features[rows]
            loss, g = ad.softmax_xent_grad(clf.logits(x), targets[rows])
            ad.require_finite_loss(loss)
            grads = dict(zip(("W", "b"), ad.linear_grads(x, g)))
            ad.adam_step(clf.store, grads, state, cfg.classifier_lr)
            del g, grads  # not held through the next batch
    return clf


def pretrain_classifier(seen_data: FeatureSet, cfg: RunConfig) -> SoftmaxClassifier:
    """Train the frozen regularizer classifier on real seen features."""
    require_seen_only(seen_data, "pretraining features")
    present = sorted(int(c) for c in np.unique(seen_data.labels))
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


def _mean_and_adjoint(out: np.ndarray, sign: float) -> tuple[float, np.ndarray]:
    """Mean of the scores ``out`` and its adjoint in a loss holding ``sign`` times it."""
    c = 1.0 / out.size
    return out.sum() * c, np.full(out.shape, sign * c)


def critic_loss_grads(disc: Mlp, z_real, z_fake, e, beta, eta: float) -> tuple:
    """The critic loss ``mean D(fake) - mean D(real) + eta * penalty``
    on conditioning rows ``e``, the Wasserstein estimate, the penalty,
    and the critic's gradients. Each weight's are summed as
    ``(real + fake) + penalty``; a non-finite loss is a ContractError."""
    out_real, trace_real = disc.run(z_real, e)
    out_fake, trace_fake = disc.run(z_fake, e)
    score_real, g_real = _mean_and_adjoint(out_real, -1.0)
    score_fake, g_fake = _mean_and_adjoint(out_fake, 1.0)
    gp, gp_grads = gradient_penalty(disc, z_real, z_fake, e, beta, eta)
    loss = float((score_fake - score_real) + gp * eta)
    ad.require_finite_loss(loss)
    # each term is added as it comes, so only one is held beside the sum;
    # the fake term in place, as it has the real term's memory layout
    # (the penalty's, C-ordered, does not)
    grads, _ = disc.back(trace_real, g_real, params=True, inputs=False)
    for name, g in disc.back(trace_fake, g_fake, params=True, inputs=False)[0].items():
        grads[name] += g
    for name, g in gp_grads.items():
        grads[name] = grads[name] + g
    return loss, float(score_real - score_fake), gp, grads


def generator_loss_grads(
    gen: Mlp, disc: Mlp, classifier: SoftmaxClassifier, fusion: FusionParams,
    h, e_c, e_p, labels, cls_weight: float,
) -> tuple:
    """The generator loss ``-mean D(G(h, e)) + cls_weight * xent`` with
    ``e`` the fused rows of ``e_c`` and ``e_p``, its cross-entropy term
    under the frozen ``classifier``, and the gradients of the generator
    and the fusion layers. The critic and the classifier get none; a
    non-finite loss is a ContractError."""
    e = fuse_graph(fusion, e_c, e_p)
    fake, trace_gen = gen.run(h, e)
    out, trace_disc = disc.run(fake, e)
    score, g_score = _mean_and_adjoint(out, -1.0)
    onehot = np.eye(len(classifier.class_ids))[classifier.rows_of(labels)]
    cls_term, g_logits = ad.softmax_xent_grad(classifier.logits(fake), onehot, cls_weight)
    loss = float(-score + cls_term * cls_weight)
    ad.require_finite_loss(loss)
    _, g_disc = disc.back(trace_disc, g_score, params=False, inputs=True)
    g_fake = g_disc[:, : disc.x_dim] + g_logits @ classifier.store["W"]
    gen_grads, g_gen = gen.back(trace_gen, g_fake, params=True, inputs=bool(fusion.store))
    if g_gen is None:  # fixed semantics
        return loss, cls_term, gen_grads, {}
    g_e = g_disc[:, disc.x_dim :] + g_gen[:, gen.x_dim :]
    return loss, cls_term, gen_grads, fusion_grads(fusion, e_c, e_p, g_e)


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
        semantics: ClassSemantics,
        classifier: SoftmaxClassifier,
        cfg: RunConfig,
    ):
        # a batch picks its semantic rows by label
        self._class_rows = training_semantics(data, semantics, "generator training features")
        self._ec, self._ep = semantics.e_c, semantics.e_p
        if cfg.eta <= 0:
            raise ContractError("penalty coefficient must be positive")

        self.data = data
        self.config = cfg
        self.classifier = classifier
        d = semantics.d
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

    def _draw_rows(self) -> np.ndarray:
        n = self.data.n
        take = min(self.config.batch_size, n)
        return self.rng.choice(n, size=take, replace=False)

    def _semantics(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sem = self._class_rows[rows]
        return self._ec[sem], self._ep[sem]

    def wgan_step(self) -> StepRecord:
        """n_critic critic updates, then one generator update."""
        cfg = self.config
        critic_loss = wasserstein = penalty = 0.0
        for _ in range(cfg.n_critic):
            rows = self._draw_rows()
            h = self.rng.normal(size=(rows.size, cfg.noise_dim))
            e = fuse_graph(self.fusion, *self._semantics(rows))
            z_fake, _ = self.gen.run(h, e)
            beta = self.rng.uniform(size=rows.size)
            critic_loss, wasserstein, penalty, grads = critic_loss_grads(
                self.disc, self.data.features[rows], z_fake, e, beta, cfg.eta
            )
            ad.adam_step(self.disc.store, grads, self._disc_state, cfg.lr, BETA1, BETA2)
            del grads  # not held through the next critic update

        rows = self._draw_rows()
        h = self.rng.normal(size=(rows.size, cfg.noise_dim))
        gen_loss, cls_term, *grads = generator_loss_grads(
            self.gen, self.disc, self.classifier, self.fusion, h,
            *self._semantics(rows), self.data.labels[rows], cfg.cls_weight,
        )
        for store, state, g in zip(self._gen_stores, self._gen_states, grads):
            ad.adam_step(store, g, state, cfg.lr, BETA1, BETA2)
        return StepRecord(critic_loss, wasserstein, penalty, gen_loss, cls_term)

    def train(self) -> list[StepRecord]:
        cfg = self.config
        cycles = cfg.epochs * max(1, math.ceil(self.data.n / cfg.batch_size))
        return [self.wgan_step() for _ in range(cycles)]


def synthesize(gen: Mlp, e: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw n synthetic feature vectors for the class with semantic
    vector ``e``; seed-deterministic."""
    if n <= 0:
        raise ContractError("need a positive sample count")
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, gen.x_dim))
    return gen.run(h, np.broadcast_to(e, (n, len(e))))[0]


def synthesize_set(
    gen: Mlp,
    fusion: FusionParams,
    semantics: ClassSemantics,
    split: SplitSpec,
    per_class: int,
    seed: int,
) -> FeatureSet:
    """Synthetic feature set for the unseen classes of ``split`` that
    have semantics, one block per class in id order, conditioned on
    their semantics under ``fusion``."""
    unseen = np.isin(semantics.ids, list(split.unseen_ids))
    if not unseen.any():
        raise ContractError("no classes to synthesize")
    ids, fused = semantics.ids[unseen], resolve_semantics(semantics, fusion)[unseen]
    # a count below one leaves no rows; `synthesize` refuses it
    features = np.empty((ids.size * max(per_class, 0), gen.sizes[-1]))
    for k, (cid, e) in enumerate(zip(ids.tolist(), fused)):
        class_seed = int(np.random.SeedSequence([seed, cid]).generate_state(1)[0])
        features[k * per_class : (k + 1) * per_class] = synthesize(gen, e, per_class, class_seed)
    return FeatureSet(features, np.repeat(ids, per_class), split)
