"""The one place that knows how each model family is trained and
evaluated: embed is `train_embed`, then nearest-prototype prediction;
gen is `pretrain_classifier` and the WGAN, then at evaluation
`synthesize_set` and `train_final_classifier`. It owns the run
directory: `save_run` writes it and `load_run` checks and reads it back.
A run keeps the class semantics it was trained with, so evaluation
reads them from the run, not from the semantic input files. Input files
stay with the callers: the CLI, the scripts and the tests.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .datasets import FeatureSet, RunConfig, SplitSpec, load_run_config, sha256_file
from .embed_zsl import EmbedModel, classify_batch, embed_shapes, train_embed
from .errors import ConfigError, ContractError, FormatError, ManifestError, ShapeError
from .evaluation import EvalReport, evaluate_run
from .fusion import (
    ClassSemantics,
    FusionParams,
    export_fused_csv,
    fusion_shapes,
    resolve_semantics,
)
from .gen_zsl import (
    GanTrainer,
    Mlp,
    generator_sizes,
    mlp_shapes,
    pretrain_classifier,
    synthesize_set,
    train_final_classifier,
)


@dataclass
class Trained:
    """A trained run: parameter dicts by checkpoint group in write order
    (``embed, fusion`` or ``gen, disc, cls, fusion``; a restored run has
    only what evaluation reads), the `EmbedModel` or the generator `Mlp`,
    the class semantics it was trained with and the text of
    ``train_log.csv`` (empty when restored)."""

    stores: dict[str, ad.Params]
    fusion: FusionParams
    model: EmbedModel | Mlp
    semantics: ClassSemantics
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
            semantics,
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
        semantics,
        "step,critic_loss,wasserstein,penalty,gen_loss,cls_term\n"
        + "\n".join(log_rows)
        + "\n",
    )


def _class_table_digest(ids, names) -> bytes:
    """sha256 of a class table, one ``"<id> <name>\\n"`` line per class."""
    lines = "".join(f"{cid} {name}\n" for cid, name in zip(ids, names))
    return hashlib.sha256(lines.encode("utf-8")).digest()


def save_run(cfg: RunConfig, trained: Trained) -> Path:
    """Write the run directory ``cfg.out_dir``: ``fused_semantics.csv``
    if fusion was trained, the text checkpoint ``model.ckpt``, ``run.cfg``,
    ``train_log.csv`` and last ``model.bin``, the binary checkpoint of the
    ``cfg.method`` and ``fusion`` groups and, as ``sem``, the class
    semantics trained with, bound to the sha256 of both files and of the
    trained class table. Returns the text checkpoint's path."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    semantics = trained.semantics
    if trained.fusion.store:
        fused = resolve_semantics(semantics, trained.fusion)
        export_fused_csv(out_dir / "fused_semantics.csv", semantics.ids, fused)
    ckpt, binary, run_cfg = out_dir / "model.ckpt", out_dir / "model.bin", out_dir / "run.cfg"
    ckpt_digest = ad.save_params(ckpt, trained.stores)
    # paths relative to the run directory, so that identical runs in
    # different directories write identical run.cfg and model.bin bytes
    relative = {key: Path(os.path.relpath(value.resolve(), out_dir.resolve()))
                for key, value in vars(cfg).items() if isinstance(value, Path)}
    run_cfg.write_text(replace(cfg, **relative).to_text(), encoding="utf-8")
    (out_dir / "train_log.csv").write_text(trained.train_log, encoding="utf-8")
    # last, so a run directory that holds it is complete; class ids are
    # split positions, exact in float64
    sem = {"ids": semantics.ids.astype(np.float64), "e_c": semantics.e_c, "e_p": semantics.e_p}
    bound = (ckpt_digest, sha256_file(run_cfg),
             _class_table_digest(semantics.ids.tolist(), semantics.names))
    restored = {key: trained.stores[key] for key in (cfg.method, "fusion")}
    ad.write_params_binary(binary, {**restored, "sem": sem}, bound)
    return ckpt


# keys that fix what a run's parameters are and mean
_TRAINED_KEYS = ("method", "variation", "alpha", "q", "noise_dim", "hidden_mult")


def _stored_semantics(binary: Path, values) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The class ids, ``e_c`` and ``e_p`` of model.bin's ``sem`` records,
    refused unless they are ascending ids with finite (k, d) rows."""
    if any(f"sem.{name}" not in values for name in ("ids", "e_c", "e_p")):
        raise FormatError(f"{binary}: no class semantics (sem.ids, sem.e_c, sem.e_p)")
    ids, e_c, e_p = values["sem.ids"], values["sem.e_c"], values["sem.e_p"]
    # a comparison with a NaN is False, so NaN ids fail the range test
    if not (ids.ndim == 1 and ids.size and np.all((ids >= 0) & (ids < 2**53))
            and np.all(ids == np.floor(ids)) and np.all(np.diff(ids) > 0)):
        raise FormatError(f"{binary}: sem.ids are not ascending class ids")
    if not (e_c.ndim == 2 and e_c.shape == e_p.shape == (ids.size, e_c.shape[1])
            and e_c.shape[1]):
        raise FormatError(
            f"{binary}: {ids.size} classes with sem.e_c {e_c.shape} and sem.e_p {e_p.shape}"
        )
    if not (np.isfinite(e_c).all() and np.isfinite(e_p).all()):
        raise FormatError(f"{binary}: non-finite class semantics")
    return ids.astype(np.int64).tolist(), e_c, e_p


def load_run(cfg: RunConfig, split: SplitSpec) -> tuple[Trained, int]:
    """The ``fusion`` and ``embed`` or ``gen`` groups of the run in
    ``cfg.out_dir`` with the class semantics it was trained with,
    refused if trained under other ``_TRAINED_KEYS``, if its model.ckpt
    or run.cfg is not the one its model.bin was written with, or if
    ``split`` names its classes otherwise or has classes it has no
    semantics of; returned with the feature width ``m`` read from
    model.bin. The parameters are model.bin's arrays, each checked by
    name and shape against its family's table (`fusion_shapes`,
    `embed_shapes`, `mlp_shapes`); no model is initialized."""
    out_dir = Path(cfg.out_dir)
    ckpt, binary, run_cfg = out_dir / "model.ckpt", out_dir / "model.bin", out_dir / "run.cfg"
    for what, path in (("checkpoint", ckpt), ("run config", run_cfg)):
        if not path.exists():
            raise ConfigError(f"{what} not found: {path} (run train first)")
    if not binary.exists():
        raise FormatError(
            f"{ckpt}: a text-only checkpoint without {binary.name}, a format eval and "
            "synthesize no longer read; retrain the run"
        )
    saved = load_run_config(run_cfg)
    for key in _TRAINED_KEYS:
        if getattr(saved, key) != getattr(cfg, key):
            raise ConfigError(
                f"run {cfg.out_dir} was trained with {key} = {getattr(saved, key)}, "
                f"this config has {key} = {getattr(cfg, key)}"
            )
    values, (*bound, table_digest) = ad.load_params(binary)
    for path, digest in zip((ckpt, run_cfg), bound):
        if sha256_file(path) != digest:
            raise ConfigError(
                f"{path} is not the file {binary} was written with (its sha256 differs); "
                "retrain the run"
            )
    ids, e_c, e_p = _stored_semantics(binary, values)
    table = split.class_table
    names = [table.get(cid) for cid in ids]
    if None in names or _class_table_digest(ids, names) != table_digest:
        raise ConfigError(
            f"{cfg.split}: the split's classes are not the ones {binary} was trained "
            "with (the class table's sha256 differs); retrain the run"
        )
    missing = sorted(set(table) - set(ids))
    if missing:
        raise ManifestError(
            f"{cfg.split}: classes without semantics: {missing} (the run in "
            f"{out_dir} was trained without them)"
        )
    semantics = ClassSemantics(ids, names, e_c, e_p)
    # m is the embedding's input width or the generator's output width
    key, axis = ("embed.W_z", 1) if cfg.method == "embed" else ("gen.l1.W", 0)
    if key not in values or values[key].ndim != 2:
        raise FormatError(f"{binary}: no 2-d parameter {key!r} to read the feature width from")
    m, d = values[key].shape[axis], semantics.d
    if m <= 0:
        raise ContractError(f"{binary}: {key!r} gives a feature width of {m}")
    if cfg.method == "embed":
        shapes = embed_shapes(cfg.q or d, m, d)
    else:
        sizes = generator_sizes(m, d, cfg.noise_dim, [cfg.hidden_mult * m])
        shapes = mlp_shapes(sizes)
    try:
        fusion_store = ad.restore_store(fusion_shapes(d, cfg.variation), values, "fusion")
        store = ad.restore_store(shapes, values, cfg.method)
    except (FormatError, ShapeError) as exc:
        raise type(exc)(f"{binary}: {exc}") from None
    fusion = FusionParams(fusion_store, cfg.alpha, d, cfg.variation)
    model = EmbedModel(store, m, cfg.lam) if cfg.method == "embed" else Mlp(store, sizes, d)
    return Trained({cfg.method: store, "fusion": fusion_store}, fusion, model, semantics), m


def evaluate(
    trained: Trained,
    cfg: RunConfig,
    test_set: FeatureSet,
    modes: Sequence[str],
    seen_set: FeatureSet | None = None,
    micro: bool = False,
) -> list[EvalReport]:
    """Score a trained run on ``test_set`` in each of ``modes`` ("zsl" |
    "gzsl") with the class semantics it was trained with; one report per
    mode, in order.

    The generative family first synthesizes ``cfg.synth_per_class``
    features for each unseen class, once for all modes, then fits a
    final classifier per mode on them, joined in GZSL by the real
    seen-class features ``seen_set``.
    """
    semantics = trained.semantics
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
