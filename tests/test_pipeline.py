"""The train → synthesize → evaluate pipeline both families share."""

import importlib.util
import math

import pytest

from semfuse import autodiff as ad
from semfuse import pipeline
from semfuse.datasets import SynthConfig, split_for_eval, synth_dataset
from semfuse.embed_zsl import train_embed
from semfuse.errors import ContractError, ManifestError
from semfuse.gen_zsl import GanTrainer, pretrain_classifier
from conftest import REPO_ROOT


def small_data(seed=3):
    data, semantics = synth_dataset(
        SynthConfig(seen=4, unseen=2, m=6, d=4, per_class=12, sigma_z=0.1, seed=seed)
    )
    train, test = split_for_eval(data, seed=seed)
    return train, test, semantics


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


def reference_stores(cfg, train_set, semantics):
    """The trainers called directly on the RunConfig, with the GAN's
    ``epochs × ceil(n / batch_size)`` cycles run by hand."""
    if cfg.method == "embed":
        run = train_embed(train_set, semantics, cfg)
        return {"embed": run.model.store, "fusion": run.fusion.store}
    classifier = pretrain_classifier(train_set, cfg)
    trainer = GanTrainer(train_set, semantics, classifier, cfg)
    for _ in range(cfg.epochs * math.ceil(train_set.n / cfg.batch_size)):
        trainer.wgan_step()
    return {
        "gen": trainer.gen.store,
        "disc": trainer.disc.store,
        "cls": classifier.store,
        "fusion": trainer.fusion.store,
    }


def store_bytes(stores):
    return [
        (group, name, w.shape, w.tobytes())
        for group, params in stores.items()
        for name, w in params.items()
    ]


@pytest.mark.parametrize("method", ["embed", "gen"])
@pytest.mark.parametrize("variation", ["only-class-name", "ours"])
def test_train_equals_the_trainers_called_directly(method, variation):
    train, _, semantics = small_data()
    cfg = small_config(method, variation)
    trained = pipeline.train(cfg, train, semantics)
    assert store_bytes(trained.stores) == store_bytes(reference_stores(cfg, train, semantics))
    header, *rows = trained.train_log.splitlines()
    assert header.startswith("epoch," if method == "embed" else "step,")
    cycles = math.ceil(train.n / cfg.batch_size) if method == "gen" else 1
    assert len(rows) == cfg.epochs * cycles


@pytest.mark.parametrize("method", ["embed", "gen"])
def test_restored_checkpoint_gives_the_same_reports(method, tmp_path):
    train, test, semantics = small_data()
    cfg = small_config(method)
    trained = pipeline.train(cfg, train, semantics)
    ckpt = tmp_path / "model.bin"
    ad.write_params_binary(ckpt, trained.stores, (bytes(32), bytes(32)))
    values, _ = ad.load_params(ckpt, ("fusion", method))
    restored, m = pipeline.restore(cfg, values, semantics.d)
    assert m == train.m
    reports = [
        pipeline.evaluate(run, cfg, test, semantics, ("zsl", "gzsl"), seen_set=train)
        for run in (trained, restored)
    ]
    assert [r.mode for r in reports[0]] == ["zsl", "gzsl"]
    assert reports[0] == reports[1]


def test_generative_evaluate_synthesizes_once_for_all_modes(monkeypatch):
    train, test, semantics = small_data()
    cfg = small_config("gen")
    trained = pipeline.train(cfg, train, semantics)
    one_mode = [
        pipeline.evaluate(trained, cfg, test, semantics, (mode,), seen_set=train)[0]
        for mode in ("zsl", "gzsl")
    ]
    calls = []
    synthesize_set = pipeline.synthesize_set

    def counting(*args, **kwargs):
        calls.append(args)
        return synthesize_set(*args, **kwargs)

    monkeypatch.setattr(pipeline, "synthesize_set", counting)
    both = pipeline.evaluate(trained, cfg, test, semantics, ("zsl", "gzsl"), seen_set=train)
    assert len(calls) == 1
    assert both == one_mode


def test_generative_gzsl_without_seen_features_is_refused():
    train, test, semantics = small_data()
    cfg = small_config("gen")
    trained = pipeline.train(cfg, train, semantics)
    with pytest.raises(ContractError, match="seen-class features"):
        pipeline.evaluate(trained, cfg, test, semantics, ("zsl", "gzsl"))
    (report,) = pipeline.evaluate(trained, cfg, test, semantics, ("zsl",))
    assert report.acc is not None


def test_generative_gzsl_refuses_a_seen_class_without_rows_before_synthesizing(monkeypatch):
    train, test, semantics = small_data()
    cfg = small_config("gen")
    trained = pipeline.train(cfg, train, semantics)
    calls = []
    monkeypatch.setattr(pipeline, "synthesize_set", lambda *args: calls.append(args))
    name = train.split.class_table[1]
    with pytest.raises(ManifestError, match=rf"seen classes 1 \({name}\)$"):
        pipeline.evaluate(trained, cfg, test, semantics, ("zsl", "gzsl"),
                          seen_set=train.take(train.labels != 1))
    assert calls == []


def test_synthetic_benchmark_script_writes_both_comparisons(tmp_path, capsys):
    path = REPO_ROOT / "scripts" / "run_synthetic_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_benchmark", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--epochs", "5", "--gan-epochs", "2", "--synth-per-class", "10",
                 "--out-dir", str(tmp_path)])
    header = "variation,mode,averaging,acc,acc_s,acc_u,hm,borda\r\n"
    expected = {
        "embed": "only-class-name,combined,macro,66.6667,62.8571,7.5000,13.4010,0\r\n"
        "only-chatgpt,combined,macro,95.8333,100.0000,0.0000,0.0000,1\r\n"
        "ours,combined,macro,100.0000,100.0000,33.3333,50.0000,4\r\n",
        "gen": "only-class-name,combined,macro,33.3333,100.0000,0.0000,0.0000,2\r\n"
        "only-chatgpt,combined,macro,0.0000,100.0000,0.0000,0.0000,1\r\n"
        "ours,combined,macro,33.3333,100.0000,16.6667,28.5714,4\r\n",
    }
    for family, rows in expected.items():
        written = (tmp_path / f"{family}_comparison.csv").read_bytes().decode()
        assert written == header + rows, family
    assert "gen family" in capsys.readouterr().out
