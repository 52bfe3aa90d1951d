"""The train → synthesize → evaluate pipeline both families share."""

import csv
import importlib.util
import math

import pytest

from semfuse import autodiff as ad
from semfuse import pipeline
from semfuse.datasets import SynthConfig, split_for_eval, synth_dataset
from semfuse.embed_zsl import EmbedTrainConfig, train_embed
from semfuse.errors import ContractError
from semfuse.gen_zsl import (
    ClassifierTrainConfig,
    GanTrainer,
    GenTrainConfig,
    pretrain_classifier,
)
from conftest import REPO_ROOT


def small_data(seed=3):
    data, bundles = synth_dataset(
        SynthConfig(seen=4, unseen=2, m=6, d=4, per_class=12, sigma_z=0.1, seed=seed)
    )
    train, test = split_for_eval(data, seed=seed)
    return train, test, bundles


def small_config(method, variation="ours"):
    # batch 16 over the 36-row training half leaves a short last batch
    return pipeline.RunConfig(
        method=method,
        variation=variation,
        alpha=0.7,
        lr=0.01,
        epochs=3,
        lam=1e-3,
        batch_size=16,
        noise_dim=3,
        hidden_mult=1,
        n_critic=2,
        synth_per_class=8,
        classifier_epochs=4,
        seed=5,
    )


def reference_stores(cfg, train_set, bundles):
    """The trainers called directly, with the RunConfig mapping the CLI
    spelled out before the pipeline existed."""
    if cfg.method == "embed":
        run = train_embed(
            train_set,
            bundles,
            EmbedTrainConfig(
                q=cfg.q,
                lr=cfg.lr,
                epochs=cfg.epochs,
                lam=cfg.lam,
                alpha=cfg.alpha,
                seed=cfg.seed,
                batch_size=cfg.batch_size,
                optimizer=cfg.optimizer,
                variation=cfg.variation,
            ),
        )
        return {"embed": run.model.store, "fusion": run.fusion.store}
    classifier = pretrain_classifier(
        train_set,
        ClassifierTrainConfig(
            lr=cfg.classifier_lr,
            epochs=cfg.classifier_epochs,
            batch_size=cfg.batch_size,
            seed=cfg.seed,
        ),
    )
    steps = cfg.epochs * max(1, math.ceil(train_set.n / cfg.batch_size))
    trainer = GanTrainer(
        train_set,
        bundles,
        classifier,
        GenTrainConfig(
            noise_dim=cfg.noise_dim,
            hidden_mult=cfg.hidden_mult,
            eta=cfg.eta,
            cls_weight=cfg.cls_weight,
            n_critic=cfg.n_critic,
            lr=cfg.lr,
            batch_size=cfg.batch_size,
            steps=steps,
            seed=cfg.seed,
            alpha=cfg.alpha,
            variation=cfg.variation,
        ),
    )
    trainer.train()
    return {
        "gen": trainer.gen.store,
        "disc": trainer.disc.store,
        "cls": classifier.store,
        "fusion": trainer.fusion.store,
    }


def store_bytes(stores):
    return [
        (group, name, t.data.shape, t.data.tobytes())
        for group, store in stores.items()
        for name, t in store.items()
    ]


@pytest.mark.parametrize("method", ["embed", "gen"])
@pytest.mark.parametrize("variation", ["only-class-name", "ours"])
def test_train_equals_the_trainers_called_directly(method, variation):
    train, _, bundles = small_data()
    cfg = small_config(method, variation)
    trained = pipeline.train(cfg, train, bundles)
    assert store_bytes(trained.stores) == store_bytes(reference_stores(cfg, train, bundles))
    header, *rows = trained.train_log.splitlines()
    assert header.startswith("epoch," if method == "embed" else "step,")
    cycles = math.ceil(train.n / cfg.batch_size) if method == "gen" else 1
    assert len(rows) == cfg.epochs * cycles


@pytest.mark.parametrize("method", ["embed", "gen"])
def test_restored_checkpoint_gives_the_same_reports(method, tmp_path):
    train, test, bundles = small_data()
    cfg = small_config(method)
    trained = pipeline.train(cfg, train, bundles)
    ckpt = tmp_path / "model.ckpt"
    ad.save_params(ckpt, trained.stores)
    values = ad.load_params(ckpt, ("fusion", method))
    restored, m = pipeline.restore(cfg, values, bundles[0].dimension)
    assert m == train.m
    for mode in ("zsl", "gzsl"):
        reports = [
            pipeline.evaluate(run, cfg, test, bundles, mode, seen_set=train)
            for run in (trained, restored)
        ]
        assert reports[0] == reports[1], mode


def test_generative_gzsl_without_seen_features_is_refused():
    train, test, bundles = small_data()
    cfg = small_config("gen")
    trained = pipeline.train(cfg, train, bundles)
    with pytest.raises(ContractError, match="seen-class features"):
        pipeline.evaluate(trained, cfg, test, bundles, "gzsl")
    assert pipeline.evaluate(trained, cfg, test, bundles, "zsl").acc is not None


def test_synthetic_benchmark_script_writes_both_comparisons(tmp_path, capsys):
    path = REPO_ROOT / "scripts" / "run_synthetic_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_benchmark", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--epochs", "5", "--gan-epochs", "2", "--synth-per-class", "10",
                 "--out-dir", str(tmp_path)])
    for family in ("embed", "gen"):
        with (tmp_path / f"{family}_comparison.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [r["variation"] for r in rows] == ["only-class-name", "only-chatgpt", "ours"]
        assert all(r["mode"] == "combined" and r["borda"].isdigit() for r in rows)
    assert "gen family" in capsys.readouterr().out
