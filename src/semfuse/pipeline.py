"""The one place that knows how each model family is trained and
evaluated: embed is `train_embed`, then nearest-prototype prediction;
gen is `pretrain_classifier` and the WGAN, then at evaluation
`synthesize_set` and `train_final_classifier`. File IO stays with the
callers: the CLI, the synthetic benchmark script and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import autodiff as ad
from .datasets import FeatureSet
from .embed_zsl import EmbedPredictor, EmbedTrainConfig, init_embed_model, train_embed
from .errors import ConfigError, ContractError, FormatError
from .evaluation import EvalReport, evaluate_run
from .fusion import ALPHA_SWEEP, VARIATIONS, FusionParams, SemanticBundle, init_fusion
from .gen_zsl import (
    ClassifierTrainConfig,
    GanTrainer,
    Generator,
    GenPredictor,
    GenTrainConfig,
    init_generator,
    pretrain_classifier,
    synthesize_set,
    train_final_classifier,
)


@dataclass
class RunConfig:
    """One experiment's inputs and hyperparameters."""

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
    q: int | None = None
    batch_size: int = 64
    optimizer: str = "adam"
    noise_dim: int = 16
    hidden_mult: int = 4
    eta: float = 10.0
    cls_weight: float = 0.01
    n_critic: int = 5
    synth_per_class: int = 200
    classifier_lr: float = 0.05
    classifier_epochs: int = 100
    seed: int = 0
    out_dir: Path = Path("runs/out")

    def validate(self) -> None:
        if self.variation not in VARIATIONS:
            raise ConfigError(f"unknown variation {self.variation!r}")
        if self.method not in ("embed", "gen"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.variation == "ours" and not any(
            math.isclose(self.alpha, a) for a in self.alpha_set
        ):
            raise ConfigError(
                f"alpha {self.alpha} is not in the sweep set {list(self.alpha_set)}"
            )

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


@dataclass
class Trained:
    """A trained run: parameter stores by checkpoint group in write order
    (``embed, fusion`` or ``gen, disc, cls, fusion``; a restored run has
    only what evaluation reads), the `EmbedPredictor` or `Generator`,
    and the text of ``train_log.csv`` (empty when restored)."""

    stores: dict[str, ad.ParamStore]
    fusion: FusionParams
    model: EmbedPredictor | Generator
    train_log: str = ""


def _trainer_config(cls, cfg: RunConfig, **given):
    """A trainer's config, each field not ``given`` taken from the
    RunConfig field of the same name."""
    names = {f.name for f in fields(cls)} - set(given)
    return cls(**{name: getattr(cfg, name) for name in names}, **given)


def _classifier_config(cfg: RunConfig) -> ClassifierTrainConfig:
    return _trainer_config(
        ClassifierTrainConfig, cfg, lr=cfg.classifier_lr, epochs=cfg.classifier_epochs
    )


def train(cfg: RunConfig, train_set: FeatureSet, bundles: list[SemanticBundle]) -> Trained:
    """Train the family ``cfg.method`` names on seen-class features."""
    cfg.validate()
    if cfg.method == "embed":
        run = train_embed(train_set, bundles, _trainer_config(EmbedTrainConfig, cfg))
        log_rows = [f"{i},{loss:.17g}" for i, loss in enumerate(run.loss_history)]
        return Trained(
            {"embed": run.model.store, "fusion": run.fusion.store},
            run.fusion,
            EmbedPredictor(run.model, run.fusion),
            "epoch,loss\n" + "\n".join(log_rows) + "\n",
        )

    classifier = pretrain_classifier(train_set, _classifier_config(cfg))
    steps = cfg.epochs * max(1, math.ceil(train_set.n / cfg.batch_size))
    gen_config = _trainer_config(GenTrainConfig, cfg, steps=steps)
    trainer = GanTrainer(train_set, bundles, classifier, gen_config)
    log_rows = [
        f"{i},{r.critic_loss:.17g},{r.wasserstein:.17g},{r.penalty:.17g},"
        f"{r.gen_loss:.17g},{r.cls_term:.17g}"
        for i, r in enumerate(trainer.train())
    ]
    return Trained(
        {
            "gen": trainer.gen.store,
            "disc": trainer.disc.store,
            "cls": classifier.store,
            "fusion": trainer.fusion.store,
        },
        trainer.fusion,
        trainer.gen,
        "step,critic_loss,wasserstein,penalty,gen_loss,cls_term\n"
        + "\n".join(log_rows)
        + "\n",
    )


def restore(cfg: RunConfig, checkpoint_values: dict, d: int) -> tuple[Trained, int]:
    """Rebuild what evaluation needs from checkpoint records, which must
    hold the ``fusion`` group and the ``embed`` or ``gen`` group. Returns
    it with the feature width ``m`` read from those records."""
    # m is the embedding's input width or the generator's output width
    key, axis = ("embed.W_z", 1) if cfg.method == "embed" else ("gen.l1.W", 0)
    if key not in checkpoint_values or checkpoint_values[key].ndim != 2:
        raise FormatError(f"no 2-d parameter {key!r} to read the feature width from")
    m = checkpoint_values[key].shape[axis]
    fusion = init_fusion(d, 0, cfg.alpha, cfg.variation)
    ad.restore_store(fusion.store, checkpoint_values, "fusion")
    if cfg.method == "embed":
        embed = init_embed_model(cfg.q or d, m, d, cfg.lam, 0)
        ad.restore_store(embed.store, checkpoint_values, "embed")
        stores, model = {"embed": embed.store}, EmbedPredictor(embed, fusion)
    else:
        gen = init_generator(m, d, cfg.noise_dim, 0, [cfg.hidden_mult * m])
        ad.restore_store(gen.store, checkpoint_values, "gen")
        stores, model = {"gen": gen.store}, gen
    return Trained({**stores, "fusion": fusion.store}, fusion, model), m


def evaluate(
    trained: Trained,
    cfg: RunConfig,
    test_set: FeatureSet,
    bundles: list[SemanticBundle],
    mode: str,
    seen_set: FeatureSet | None = None,
    micro: bool = False,
) -> EvalReport:
    """Score a trained run on ``test_set`` in ``mode`` ("zsl" | "gzsl").

    The generative family first synthesizes ``cfg.synth_per_class``
    features for each unseen class and fits the final classifier on
    them, joined in GZSL by the real seen-class features ``seen_set``.
    """
    if cfg.method == "embed":
        return evaluate_run(trained.model, test_set, bundles, mode, micro)
    if mode == "gzsl" and seen_set is None:
        raise ContractError("generative gzsl needs the real seen-class features")
    synth = synthesize_set(
        trained.model,
        trained.fusion,
        bundles,
        test_set.unseen_ids,
        cfg.synth_per_class,
        cfg.seed,
        test_set.class_table,
    )
    classifier = train_final_classifier(
        seen_set if mode == "gzsl" else None, synth, _classifier_config(cfg)
    )
    return evaluate_run(GenPredictor(classifier, cfg.variation), test_set, bundles, mode, micro)
