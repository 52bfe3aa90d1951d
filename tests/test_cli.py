import shutil

import numpy as np
import pytest

from semfuse import pipeline
from semfuse.cli import main
from semfuse.evaluation import read_report_csv
from semfuse.fusion import read_bundles


def write_config(path, demo_dir, out_dir, **overrides):
    base = {
        "split": str(demo_dir / "split.cfg"),
        "word_vectors": str(demo_dir / "word_vectors.txt"),
        "variation": "ours",
        "alpha": "0.5",
        "method": "embed",
        "lr": "0.01",
        "epochs": "60",
        "lam": "0.0001",
        "seed": "1",
        "out_dir": str(out_dir),
    }
    base.update({k: str(v) for k, v in overrides.items()})
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()), encoding="utf-8")
    return path


def test_fetch_descriptions_fully_cached(demo_dir, capsys):
    assert main(["fetch-descriptions", "--split", str(demo_dir / "split.cfg")]) == 0
    out = capsys.readouterr().out
    assert "0 fetched, 6 cached" in out


def test_fetch_descriptions_offline_miss_exits_4(demo_dir, tmp_path, capsys):
    from semfuse.llm_client import DescriptionCache

    cache = DescriptionCache(tmp_path / "cache")
    for name in ("bed", "chair", "table"):
        cache.put(name, f"A {name}.")
    split = tmp_path / "split.cfg"
    split.write_text(
        "dataset = broken\nseen = bed, chair\nunseen = zeppelin, table\n"
        f"descriptions = {tmp_path / 'cache'}\n"
    )
    code = main(["fetch-descriptions", "--split", str(split)])
    assert code == 4
    assert "zeppelin" in capsys.readouterr().err


def test_fetch_descriptions_mock_endpoint_populates_cache(tmp_path, monkeypatch, capsys):
    import json
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            name = body["messages"][0]["content"].split(" object")[0].split("the ")[-1]
            payload = json.dumps(
                {"choices": [{"message": {"content": f"A {name} has four legs."}}]}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("CHAT_API_KEY", "k-local")
        split = tmp_path / "split.cfg"
        split.write_text(
            "dataset = mock\nseen = chair, stool\nunseen = bench, table\n"
            f"descriptions = {tmp_path / 'cache'}\n"
        )
        code = main(
            [
                "fetch-descriptions",
                "--split",
                str(split),
                "--endpoint-url",
                f"http://127.0.0.1:{server.server_port}/v1/chat",
            ]
        )
    finally:
        server.shutdown()
    assert code == 0
    assert "4 fetched, 0 cached" in capsys.readouterr().out
    assert (tmp_path / "cache" / "chair.txt").read_text() == "A chair has four legs."


def test_build_semantics_zeroes_the_unused_side(demo_dir, tmp_path):
    for variation, zero_side in (("only-class-name", "e_p"), ("only-chatgpt", "e_c")):
        out = tmp_path / f"{variation}.csv"
        assert (
            main(
                [
                    "build-semantics",
                    "--split",
                    str(demo_dir / "split.cfg"),
                    "--word-vectors",
                    str(demo_dir / "word_vectors.txt"),
                    "--variation",
                    variation,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        bundles, got = read_bundles(out)
        assert got == variation and len(bundles) == 6
        for b in bundles:
            zeroed = b.e_p if zero_side == "e_p" else b.e_c
            kept = b.e_c if zero_side == "e_p" else b.e_p
            assert np.array_equal(zeroed, np.zeros_like(zeroed))
            assert np.abs(kept).max() > 0


def test_build_semantics_ours_fills_both_sides(demo_dir, tmp_path):
    out = tmp_path / "ours.csv"
    main(
        [
            "build-semantics",
            "--split",
            str(demo_dir / "split.cfg"),
            "--word-vectors",
            str(demo_dir / "word_vectors.txt"),
            "--variation",
            "ours",
            "--out",
            str(out),
        ]
    )
    bundles, _ = read_bundles(out)
    assert all(np.abs(b.e_c).max() > 0 and np.abs(b.e_p).max() > 0 for b in bundles)


def test_train_and_eval_reports_are_byte_identical(demo_dir, tmp_path):
    cfg_a = write_config(tmp_path / "a.cfg", demo_dir, tmp_path / "run_a")
    cfg_b = write_config(tmp_path / "b.cfg", demo_dir, tmp_path / "run_b")
    for cfg in (cfg_a, cfg_b):
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg), "--mode", "gzsl"]) == 0
        assert main(["eval", "--config", str(cfg), "--mode", "zsl"]) == 0
    for name in ("model.ckpt", "report_gzsl.csv", "report_zsl.csv", "train_log.csv"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, name


def test_eval_without_checkpoint_exits_2(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "never_trained")
    assert main(["eval", "--config", str(cfg), "--mode", "zsl"]) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_unknown_config_key_exits_2(demo_dir, tmp_path):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "o", turbo="yes")
    assert main(["train", "--config", str(cfg)]) == 2


def test_alpha_outside_sweep_set_exits_2(demo_dir, tmp_path):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "o", alpha="0.42")
    assert main(["train", "--config", str(cfg)]) == 2


def test_ragged_word_vectors_exit_3(demo_dir, tmp_path):
    bad = tmp_path / "bad_vectors.txt"
    bad.write_text("cat 1.0 2.0\ndog 1.0\n")
    code = main(
        [
            "build-semantics",
            "--split",
            str(demo_dir / "split.cfg"),
            "--word-vectors",
            str(bad),
            "--variation",
            "only-class-name",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 3


def test_compare_on_stub_reports_matches_borda_oracle(tmp_path, capsys):
    from semfuse.evaluation import EvalReport, write_report_csv

    rows = {
        "only-class-name": (45.79, 83.15, 10.95, 19.35),
        "only-chatgpt": (54.74, 56.09, 8.71, 15.09),
        "ours": (52.26, 85.45, 15.33, 25.99),
    }
    paths = []
    for variation, (acc, acc_s, acc_u, hm) in rows.items():
        reports = [
            EvalReport(variation, "zsl", acc=acc),
            EvalReport(variation, "gzsl", acc_s=acc_s, acc_u=acc_u, hm=hm),
        ]
        path = tmp_path / f"{variation}.csv"
        write_report_csv(path, reports)
        paths.append(str(path))
    out = tmp_path / "compare.csv"
    assert main(["compare", "--reports", *paths, "--out", str(out)]) == 0
    merged = read_report_csv(out)
    points = {r.variation: r.borda for r in merged}
    assert points == {"only-class-name": 0, "only-chatgpt": 1, "ours": 3}


def test_compare_needs_inputs(tmp_path):
    assert main(["compare", "--modes", "zsl"]) == 2


def test_sweep_alpha_row_count(demo_dir, tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg", demo_dir, tmp_path / "sweep", epochs="25"
    )
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep-alpha",
            "--config",
            str(cfg),
            "--alphas",
            "0.1,0.3,0.5,0.7,1.0",
            "--modes",
            "zsl,gzsl",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_report_csv(out)
    assert len(rows) == 10  # |alphas| x |modes|
    assert sum(r.mode == "zsl" for r in rows) == 5
    assert {r.variation for r in rows} == {
        "alpha=0.1", "alpha=0.3", "alpha=0.5", "alpha=0.7", "alpha=1"
    }


def test_sweep_alpha_empty_set_exits_2(demo_dir, tmp_path):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "sweep")
    assert main(["sweep-alpha", "--config", str(cfg), "--alphas", ""]) == 2


def test_gen_pipeline_train_eval_synthesize(demo_dir, tmp_path):
    cfg = write_config(
        tmp_path / "g.cfg",
        demo_dir,
        tmp_path / "gen_run",
        method="gen",
        epochs="30",
        lr="0.001",
        noise_dim="4",
        classifier_epochs="60",
        synth_per_class="20",
    )
    assert main(["train-gen", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg), "--mode", "gzsl"]) == 0
    report = read_report_csv(tmp_path / "gen_run" / "report_gzsl.csv")[0]
    assert report.hm is not None
    out = tmp_path / "synthetic.csv"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 * 20  # two unseen classes
    assert {line.split(",")[0] for line in lines} == {"table", "toilet"}


def test_compare_configs_synthesizes_each_generative_run_once(demo_dir, tmp_path, monkeypatch):
    calls = []
    synthesize_set = pipeline.synthesize_set
    monkeypatch.setattr(pipeline, "synthesize_set",
                        lambda *args: calls.append(args) or synthesize_set(*args))
    configs = [
        str(write_config(tmp_path / f"{v}.cfg", demo_dir, tmp_path / v, method="gen",
                         variation=v, epochs="3", noise_dim="4", classifier_epochs="10",
                         synth_per_class="10"))
        for v in ("only-class-name", "ours")
    ]
    out = tmp_path / "compare.csv"
    assert main(["compare", "--configs", *configs, "--modes", "zsl,gzsl",
                 "--out", str(out)]) == 0
    assert len(calls) == 2
    rows = read_report_csv(out)
    assert [r.variation for r in rows] == ["only-class-name", "ours"]
    assert all(r.acc is not None and r.hm is not None for r in rows)


def test_train_embed_writes_fused_semantics(demo_dir, tmp_path):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "fused_run", epochs="10")
    assert main(["train-embed", "--config", str(cfg)]) == 0
    fused = (tmp_path / "fused_run" / "fused_semantics.csv").read_text().splitlines()
    assert len(fused) == 7  # header + six classes


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverging_training_exits_2_without_checkpoint(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "diverged",
                       optimizer="sgd", lr="10", epochs="200")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "training diverged" in capsys.readouterr().err
    assert not (tmp_path / "diverged" / "model.ckpt").exists()


@pytest.mark.parametrize(
    "command,method,optimizer,epochs,message",
    [
        ("train", "gen", "nonsense", "2", "unknown optimizer 'nonsense'"),
        ("train", "embed", "nonsense", "0", "unknown optimizer 'nonsense'"),
        ("train", "embed", "nonsense", "3", "unknown optimizer 'nonsense'"),
        ("train", "gen", "sgd", "2", "method gen trains with adam only, not 'sgd'"),
        ("train-gen", "embed", "sgd", "2", "method gen trains with adam only, not 'sgd'"),
    ],
)
def test_unusable_optimizer_exits_2_before_reading_inputs(
    demo_dir, tmp_path, capsys, command, method, optimizer, epochs, message
):
    # the split does not exist: refusing the config must come first
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "run", method=method,
                       optimizer=optimizer, split=tmp_path / "absent.cfg")
    assert main([command, "--config", str(cfg), "--epochs", epochs]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def ours_run(demo_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("ours_run")
    cfg = write_config(root / "c.cfg", demo_dir, root / "run")
    assert main(["train", "--config", str(cfg)]) == 0
    return cfg


@pytest.mark.parametrize(
    "override,key,trained,given",
    [
        (["--variation", "only-class-name"], "variation", "ours", "only-class-name"),
        (["--alpha", "0.3"], "alpha", "0.5", "0.3"),
    ],
)
def test_eval_refuses_a_config_the_run_was_not_trained_under(
    ours_run, tmp_path, capsys, override, key, trained, given
):
    out = tmp_path / "report.csv"
    code = main(["eval", "--config", str(ours_run), "--mode", "zsl", "--out", str(out),
                 *override])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{key} = {trained}" in err and f"{key} = {given}" in err
    assert not out.exists()


def test_eval_without_run_config_exits_2(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "run", epochs="5")
    assert main(["train", "--config", str(cfg)]) == 0
    (tmp_path / "run" / "run.cfg").unlink()
    assert main(["eval", "--config", str(cfg), "--mode", "zsl"]) == 2
    assert "run config not found" in capsys.readouterr().err


def test_only_ours_saves_fusion_layers(demo_dir, tmp_path):
    for variation in ("only-class-name", "only-chatgpt", "ours"):
        out_dir = tmp_path / variation
        cfg = write_config(tmp_path / f"{variation}.cfg", demo_dir, out_dir,
                           variation=variation, epochs="5")
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = (out_dir / "model.ckpt").read_text().splitlines()
        has_fusion = any(line.startswith("fusion.") for line in ckpt)
        assert has_fusion == (variation == "ours"), variation
        assert (out_dir / "fused_semantics.csv").exists() == (variation == "ours"), variation


def _write_split(path, demo_dir, **features):
    """A copy of the demo split with its feature files replaced; a None
    value leaves that key out."""
    paths = {"train_features": demo_dir / "train.csv", "test_features": demo_dir / "test.csv"}
    paths.update(features)
    lines = [line for line in (demo_dir / "split.cfg").read_text().splitlines()
             if not line.startswith(("train_features", "test_features"))]
    lines += [f"{key} = {value}" for key, value in paths.items() if value is not None]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def gen_run(demo_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("gen_run")
    cfg = write_config(root / "g.cfg", demo_dir, root / "run", method="gen", epochs="5",
                       lr="0.001", noise_dim="4", classifier_epochs="20",
                       synth_per_class="10")
    assert main(["train", "--config", str(cfg)]) == 0
    return root, cfg


def test_synthesize_needs_no_test_features(demo_dir, gen_run):
    root, cfg = gen_run
    assert main(["synthesize", "--config", str(cfg), "--out", str(root / "a.csv")]) == 0
    split = _write_split(root / "no_test.cfg", demo_dir, test_features=None)
    cfg_b = write_config(root / "b.cfg", demo_dir, root / "run", method="gen",
                         noise_dim="4", synth_per_class="10", split=split)
    assert main(["synthesize", "--config", str(cfg_b), "--out", str(root / "b.csv")]) == 0
    assert (root / "a.csv").read_bytes() == (root / "b.csv").read_bytes()


@pytest.mark.parametrize("method", ["embed", "gen"])
def test_eval_refuses_test_features_of_another_width(
    demo_dir, gen_run, ours_run, tmp_path, capsys, method
):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("".join(
        line.split(",", 1)[0] + ",0.5,0.25,1.0\n"
        for line in (demo_dir / "test.csv").read_text().splitlines()
    ))
    split = _write_split(tmp_path / "narrow.cfg", demo_dir, test_features=narrow)
    run_cfg = gen_run[1] if method == "gen" else ours_run
    cfg = tmp_path / "narrow_run.cfg"
    cfg.write_text(run_cfg.read_text().replace(f"split = {demo_dir / 'split.cfg'}",
                                               f"split = {split}"))
    out = tmp_path / "report.csv"
    assert main(["eval", "--config", str(cfg), "--mode", "zsl", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "width 3" in err and "width 12" in err
    assert not out.exists()


def test_gen_eval_reads_no_critic_or_classifier_values(gen_run):
    root, cfg = gen_run
    assert main(["eval", "--config", str(cfg), "--mode", "gzsl",
                 "--out", str(root / "intact.csv")]) == 0
    ckpt = root / "run" / "model.ckpt"
    intact = ckpt.read_text()
    lines = intact.splitlines()
    assert any(line.startswith("disc.") for line in lines)
    assert any(line.startswith("cls.") for line in lines)
    ckpt.write_text("".join(
        " ".join(line.split()[:2] + ["unparseable"]) + "\n"
        if line.startswith(("disc.", "cls.")) else line + "\n"
        for line in lines
    ))
    try:
        assert main(["eval", "--config", str(cfg), "--mode", "gzsl",
                     "--out", str(root / "damaged.csv")]) == 0
    finally:
        ckpt.write_text(intact)
    assert (root / "intact.csv").read_bytes() == (root / "damaged.csv").read_bytes()


def test_ragged_needed_word_vector_exits_3_naming_its_line(demo_dir, tmp_path, capsys):
    bad = tmp_path / "bad_vectors.txt"
    bad.write_text("bed 1.0 2.0\nchair 1.0 2.0\ndesk 1.0\n")
    code = main(["build-semantics", "--split", str(demo_dir / "split.cfg"),
                 "--word-vectors", str(bad), "--variation", "only-class-name",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "bad_vectors.txt:3: expected 2 values, got 1" in capsys.readouterr().err


def test_eval_of_a_checkpoint_without_its_width_record_exits_3(ours_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(ours_run.parent / "run", run)
    ckpt = run / "model.ckpt"
    kept = [line for line in ckpt.read_text().splitlines() if not line.startswith("embed.W_z ")]
    ckpt.write_text("\n".join(kept) + "\n")
    code = main(["eval", "--config", str(ours_run), "--mode", "zsl", "--out-dir", str(run)])
    assert code == 3
    assert "'embed.W_z'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_eval_whose_final_classifier_diverges_exits_2_without_report(
    demo_dir, gen_run, tmp_path, capsys
):
    root, cfg = gen_run
    huge = tmp_path / "huge_rate.cfg"
    huge.write_text(cfg.read_text() + "classifier_lr = 1e308\n")
    out = tmp_path / "report.csv"
    assert main(["eval", "--config", str(huge), "--mode", "gzsl", "--out", str(out)]) == 2
    assert "training diverged" in capsys.readouterr().err
    assert not out.exists()
