"""The one place that knows how each model family is trained and
evaluated: embed is `train_embed`, then nearest-prototype prediction;
gen is `pretrain_classifier` and the WGAN, then at evaluation
`synthesize_set` and `train_final_classifier`. File IO stays with the
callers: the CLI, the synthetic benchmark script and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from . import autodiff as ad
from .datasets import FeatureSet, RunConfig
from .embed_zsl import EmbedModel, classify_batch, init_embed_model, train_embed
from .errors import ContractError, FormatError, ManifestError
from .evaluation import EvalReport, evaluate_run
from .fusion import ClassSemantics, FusionParams, init_fusion
from .gen_zsl import (
    GanTrainer,
    Mlp,
    init_generator,
    pretrain_classifier,
    synthesize_set,
    train_final_classifier,
)


@dataclass
class Trained:
    """A trained run: parameter dicts by checkpoint group in write order
    (``embed, fusion`` or ``gen, disc, cls, fusion``; a restored run has
    only what evaluation reads), the `EmbedModel` or the generator `Mlp`,
    and the text of ``train_log.csv`` (empty when restored)."""

    stores: dict[str, ad.Params]
    fusion: FusionParams
    model: EmbedModel | Mlp
    train_log: str = ""


def train(cfg: RunConfig, train_set: FeatureSet, semantics: ClassSemantics) -> Trained:
    """Train the family ``cfg.method`` names on seen-class features."""
    cfg.validate()
    if cfg.method == "embed":
        run = train_embed(train_set, semantics, cfg)
        log_rows = [f"{i},{loss:.17g}" for i, loss in enumerate(run.loss_history)]
        return Trained(
            {"embed": run.model.store, "fusion": run.fusion.store},
            run.fusion,
            run.model,
            "epoch,loss\n" + "\n".join(log_rows) + "\n",
        )

    classifier = pretrain_classifier(train_set, cfg)
    trainer = GanTrainer(train_set, semantics, classifier, cfg)
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
        stores, model = {"embed": embed.store}, embed
    else:
        gen = init_generator(m, d, cfg.noise_dim, 0, [cfg.hidden_mult * m])
        ad.restore_store(gen.store, checkpoint_values, "gen")
        stores, model = {"gen": gen.store}, gen
    return Trained({**stores, "fusion": fusion.store}, fusion, model), m


def evaluate(
    trained: Trained,
    cfg: RunConfig,
    test_set: FeatureSet,
    semantics: ClassSemantics,
    modes: Sequence[str],
    seen_set: FeatureSet | None = None,
    micro: bool = False,
) -> list[EvalReport]:
    """Score a trained run on ``test_set`` in each of ``modes`` ("zsl" |
    "gzsl"); one report per mode, in order.

    The generative family first synthesizes ``cfg.synth_per_class``
    features for each unseen class, once for all modes, then fits a
    final classifier per mode on them, joined in GZSL by the real
    seen-class features ``seen_set``.
    """
    if cfg.method == "embed":
        predict = partial(classify_batch, trained.model, trained.fusion, semantics)
        return [
            evaluate_run(predict, cfg.variation, test_set, semantics.ids, mode, micro)
            for mode in modes
        ]
    if "gzsl" in modes:
        if seen_set is None:
            raise ContractError("generative gzsl needs the real seen-class features")
        # the seen classes the final classifier would lack, before synthesis
        with_semantics = seen_set.split.seen_ids & set(semantics.ids.tolist())
        lacking = sorted(with_semantics - set(seen_set.labels.tolist()))
        if lacking:
            names = ", ".join(f"{c} ({seen_set.split.class_table[c]})" for c in lacking)
            raise ManifestError(f"generative gzsl needs training rows of seen classes {names}")
    synth = synthesize_set(
        trained.model, trained.fusion, semantics, test_set.split, cfg.synth_per_class, cfg.seed
    )
    reports = []
    for mode in modes:
        classifier = train_final_classifier(seen_set if mode == "gzsl" else None, synth, cfg)
        predict = classifier.predict_ids
        reports.append(
            evaluate_run(predict, cfg.variation, test_set, semantics.ids, mode, micro)
        )
    return reports
