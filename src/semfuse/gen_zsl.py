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
# slopes computed at a time by a forward pass that keeps no trace
SLOPE_BLOCK = 16384


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
        trace: tuple[list, list] = ([], [])
        return self.forward(x, e, trace), trace

    def forward(self, x: np.ndarray, e: np.ndarray, trace=None, out=None) -> np.ndarray:
        """Output for rows of ``x`` and ``e``, written into ``out`` if
        given. Only with ``trace`` are the layer inputs and slopes kept,
        appended to its two lists; without, each hidden layer's slopes
        are computed and applied SLOPE_BLOCK values at a time."""
        if x.shape[-1] != self.x_dim or e.shape[-1] != self.d:
            raise ShapeError(
                f"inputs {x.shape}, {e.shape} do not match "
                f"(x width {self.x_dim}, d={self.d})"
            )
        h = np.concatenate([x, e], axis=-1)
        for i in range(self.n_layers):
            last = i == self.n_layers - 1
            if trace is not None:
                trace[0].append(h)
            h = np.matmul(h, self.store[f"l{i}.W"].T, out=out if last else None)
            h += self.store[f"l{i}.b"]  # in place: no second layer-sized array
            if last:
                break
            if trace is not None:
                trace[1].append(np.where(h > 0, 1.0, LEAKY_SLOPE))
                h *= trace[1][-1]
            else:  # the same slopes, never a whole layer of them
                rows = max(1, SLOPE_BLOCK // h.shape[-1])
                for start in range(0, len(h), rows):
                    block = h[start : start + rows]
                    block *= np.where(block > 0, 1.0, LEAKY_SLOPE)
        return h

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


def mlp_shapes(sizes: list[int]) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each layer's weight and bias, in store order."""
    shapes = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes += [(f"l{i}.W", (fan_out, fan_in)), (f"l{i}.b", (fan_out,))]
    return shapes


def _init_mlp(sizes: list[int], d: int, seed: int) -> Mlp:
    rng = np.random.default_rng(seed)
    store = {}
    for name, shape in mlp_shapes(sizes):
        if len(shape) == 2:
            bound = np.sqrt(6.0 / sum(shape))
            store[name] = rng.uniform(-bound, bound, size=shape)
        else:
            store[name] = np.zeros(shape)
    return Mlp(store, sizes, d)


def generator_sizes(m: int, d: int, noise_dim: int, hidden: list[int]) -> list[int]:
    """Layer widths of the generator: (noise, semantics) in, m out."""
    return [noise_dim + d, *hidden, m]


def init_generator(m: int, d: int, noise_dim: int, seed: int, hidden: list[int]) -> Mlp:
    """Generator: (noise, semantics) to an m-wide feature vector."""
    if noise_dim <= 0:
        raise ContractError("noise dimension must be positive")
    return _init_mlp(generator_sizes(m, d, noise_dim, hidden), d, seed)


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
    gives their gradients (the biases get none); the norm's tail is one
    node, `ad.unit_norm_penalty`. Accepts single vectors or row-aligned
    batches; ``beta`` may be a scalar or one value per row, and any
    other shape is a ShapeError. Always >= 0, and exactly 0 only when
    the critic's input-gradient norm is 1 everywhere.
    """
    z_real = np.atleast_2d(np.asarray(z_real, dtype=np.float64))
    z_fake = np.atleast_2d(np.asarray(z_fake, dtype=np.float64))
    e = np.atleast_2d(np.asarray(e, dtype=np.float64))
    if z_real.shape != z_fake.shape or z_real.shape[0] != e.shape[0]:
        raise ShapeError(
            f"penalty inputs disagree: {z_real.shape}, {z_fake.shape}, {e.shape}"
        )
    n = z_real.shape[0]
    beta = np.asarray(beta, dtype=np.float64)
    if beta.size != 1 and beta.shape not in ((n,), (n, 1)):
        raise ShapeError(
            f"beta of shape {beta.shape} is neither a scalar nor one value for each of {n} rows"
        )
    beta_col = np.broadcast_to(beta.reshape(-1, 1), (n, 1))
    _, (_, masks) = disc.run(beta_col * z_real + (1.0 - beta_col) * z_fake, e)
    names = [f"l{i}.W" for i in range(disc.n_layers)]
    leaves = [ad.leaf(disc.store[name]) for name in names]
    g = ad.constant(np.ones((n, 1)))
    for i in reversed(range(disc.n_layers)):
        if i < disc.n_layers - 1:
            g = ad.mul(g, ad.constant(masks[i]))
        g = ad.matmul(g, leaves[i])
    gp = ad.unit_norm_penalty(g, disc.x_dim)
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
    parts: tuple[np.ndarray, np.ndarray],
    labels: np.ndarray,
    class_ids: list[int],
    cfg: RunConfig,
) -> SoftmaxClassifier:
    """Minibatch Adam on the mean softmax cross-entropy of ``labels``,
    with the ``classifier_lr``, ``classifier_epochs``, ``batch_size``
    and ``seed`` of ``cfg``. The features are the rows of the two arrays
    ``parts`` one after the other, the first possibly empty; each batch
    gathers its rows from them, so they are never copied into one array.

    `ad.softmax_xent_grad` gives each batch's loss and logits adjoint,
    and `ad.linear_grads` carries it to ``W`` and ``b``. A non-finite
    loss is a ContractError.
    """
    clf = init_classifier(parts[0].shape[1], class_ids, cfg.seed)
    state = ad.AdamState(clf.store)
    rng = np.random.default_rng(cfg.seed)
    n = labels.shape[0]
    targets = clf.rows_of(labels)
    for _ in range(cfg.classifier_epochs):
        order = np.arange(n)
        if n > cfg.batch_size:
            rng.shuffle(order)
        for rows, x in _batches(parts, order, cfg.batch_size):
            loss, g = ad.softmax_xent_grad(clf.logits(x), targets[rows])
            ad.require_finite_loss(loss)
            grads = dict(zip(("W", "b"), ad.linear_grads(x, g)))
            ad.adam_step(clf.store, grads, state, cfg.classifier_lr)
            del g, grads  # not held through the next batch
    return clf


def _batches(parts: tuple[np.ndarray, np.ndarray], order: np.ndarray, size: int):
    """Each run of ``size`` rows of ``order`` in turn, with those rows,
    in that order, of the two arrays ``parts`` taken one after the
    other."""
    first, second = parts
    # planned once for all batches: each row's place in ``second``, and
    # whether it lies in ``first`` instead
    local = order - first.shape[0]
    in_first = local < 0
    for start in range(0, order.size, size):
        rows, batch = order[start : start + size], slice(start, start + size)
        # clip maps each row that lies in ``first`` to a row of ``second``;
        # those are overwritten next (a boolean-mask assignment costs ~10x more)
        x = second.take(local[batch], axis=0, mode="clip")
        (from_first,) = in_first[batch].nonzero()
        x[from_first] = first[rows[from_first]]
        yield rows, x


def pretrain_classifier(seen_data: FeatureSet, cfg: RunConfig) -> SoftmaxClassifier:
    """Train the frozen regularizer classifier on real seen features."""
    require_seen_only(seen_data, "pretraining features")
    present = sorted(int(c) for c in np.unique(seen_data.labels))
    if len(present) < 2:
        raise ContractError("need at least 2 classes to pretrain the classifier")
    features = seen_data.features
    return _train_softmax((features[:0], features), seen_data.labels, present, cfg)


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
        parts = (real_seen.features, synth_unseen.features)
        labels = np.concatenate([real_seen.labels, synth_unseen.labels])
        class_ids = sorted(seen_classes | synth_classes)
    else:
        parts = (synth_unseen.features[:0], synth_unseen.features)
        labels = synth_unseen.labels
        class_ids = sorted(synth_classes)
    if len(class_ids) < 2:
        raise ContractError("need at least 2 classes to train a classifier")
    return _train_softmax(parts, labels, class_ids, cfg)


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
    targets = classifier.rows_of(labels)
    cls_term, g_logits = ad.softmax_xent_grad(classifier.logits(fake), targets, cls_weight)
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
            z_fake = self.gen.forward(h, e)
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


def synthesize(gen: Mlp, e: np.ndarray, n: int, seed: int, out=None) -> np.ndarray:
    """Draw n synthetic feature vectors for the class with semantic
    vector ``e``, into ``out`` (n rows) if given; seed-deterministic."""
    if n <= 0:
        raise ContractError("need a positive sample count")
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, gen.x_dim))
    return gen.forward(h, np.broadcast_to(e, (n, len(e))), out=out)


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
        block = features[k * per_class : (k + 1) * per_class]
        synthesize(gen, e, per_class, class_seed, out=block)
    return FeatureSet(features, np.repeat(ids, per_class), split)
