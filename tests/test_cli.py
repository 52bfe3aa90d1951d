import hashlib
import importlib.util
import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from semfuse import autodiff as ad
from semfuse import pipeline
from semfuse.cli import main
from semfuse.evaluation import read_report_csv
from semfuse.fusion import read_bundles

import checkpoint_files
from conftest import REPO_ROOT


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
        server.server_close()
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
        semantics, got = read_bundles(out)
        assert got == variation and len(semantics.ids) == 6
        zeroed = semantics.e_p if zero_side == "e_p" else semantics.e_c
        kept = semantics.e_c if zero_side == "e_p" else semantics.e_p
        assert np.array_equal(zeroed, np.zeros_like(zeroed))
        assert np.abs(kept).max(axis=1).min() > 0


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
    semantics, _ = read_bundles(out)
    assert np.abs(semantics.e_c).max(axis=1).min() > 0
    assert np.abs(semantics.e_p).max(axis=1).min() > 0


def test_bundle_rows_must_name_the_split_classes(demo_dir, tmp_path, capsys):
    bundles = tmp_path / "bundles.csv"
    argv = ["build-semantics", "--split", str(demo_dir / "split.cfg"),
            "--word-vectors", str(demo_dir / "word_vectors.txt"), "--out", str(bundles)]
    assert main(argv) == 0
    # the same classes with the first two seen ones swapped: id 0 is chair here
    split = tmp_path / "split.cfg"
    text = (demo_dir / "split.cfg").read_text(encoding="utf-8")
    text = text.replace("= train.csv", f"= {demo_dir / 'train.csv'}")
    text = text.replace("= test.csv", f"= {demo_dir / 'test.csv'}")
    split.write_text(text.replace("seen = bed, chair,", "seen = chair, bed,"), encoding="utf-8")
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "swapped_run",
                       split=split, bundles=bundles, epochs=2)
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "class 0 is 'bed' in the bundle file and 'chair' in the split" in err
    assert not (tmp_path / "swapped_run").exists()
    # an id the split does not have is refused the same way
    split.write_text(text.replace(", toilet", ""), encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == 2
    assert "class 5 is 'toilet' in the bundle file and not in the split" in capsys.readouterr().err


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


def test_compare_refuses_reports_and_configs_together(demo_dir, tmp_path, capsys):
    from semfuse.evaluation import EvalReport, write_report_csv

    report = tmp_path / "ours.csv"
    write_report_csv(report, [EvalReport("ours", "zsl", acc=50.0)])
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "never")
    argv = ["compare", "--reports", str(report), "--configs", str(cfg)]
    assert main(argv) == 2
    assert "either --reports or --configs, not both" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_compare_refuses_reports_of_different_averaging(tmp_path, capsys):
    from semfuse.evaluation import EvalReport, write_report_csv

    mixed = tmp_path / "mixed.csv"
    write_report_csv(mixed, [
        EvalReport("ours", "zsl", "macro", acc=50.0),
        EvalReport("ours", "gzsl", "micro", acc_s=60.0, acc_u=20.0, hm=30.0),
    ])
    assert main(["compare", "--reports", str(mixed)]) == 2
    assert "mix averaging ['macro', 'micro']" in capsys.readouterr().err

    paths = []
    for variation, averaging in (("ours", "macro"), ("only-chatgpt", "micro")):
        paths.append(str(tmp_path / f"{variation}.csv"))
        write_report_csv(paths[-1], [EvalReport(variation, "zsl", averaging, acc=50.0)])
    assert main(["compare", "--reports", *paths]) == 2
    assert "blocks of averaging ['macro', 'micro']" in capsys.readouterr().err


def test_compare_refuses_two_reports_of_one_variation(tmp_path, capsys):
    from semfuse.evaluation import EvalReport, write_report_csv

    paths = []
    for name, variation, acc in (("a", "ours", 50.0), ("b", "ours", 70.0),
                                 ("c", "only-chatgpt", 60.0)):
        paths.append(str(tmp_path / f"{name}.csv"))
        write_report_csv(paths[-1], [EvalReport(variation, "zsl", acc=acc)])
    out = tmp_path / "compare.csv"
    assert main(["compare", "--reports", *paths, "--out", str(out)]) == 2
    assert "variation 'ours' appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ("variation,mode,acc,acc_s,acc_u,hm,borda\nours,zsl,50.0,,,,\n",
         "bad.csv:2: missing column 'averaging'"),
        ("variation,mode,averaging,acc,acc_s,acc_u,hm,borda\nours,zsl,macro,fifty,,,,\n",
         "bad.csv:2: column 'acc': could not convert string to float: 'fifty'"),
        ("variation,mode,averaging,acc,acc_s,acc_u,hm,borda\nours,zsl,macro,150,,,,\n",
         "bad.csv:2: acc 150.0 outside [0, 100]"),
    ],
)
def test_compare_names_the_line_and_column_of_a_malformed_report(tmp_path, capsys, text, message):
    from semfuse.evaluation import EvalReport, write_report_csv

    good = tmp_path / "good.csv"
    write_report_csv(good, [EvalReport("only-chatgpt", "zsl", acc=60.0)])
    (tmp_path / "bad.csv").write_text(text)
    assert main(["compare", "--reports", str(good), str(tmp_path / "bad.csv")]) == 3
    assert message in capsys.readouterr().err


def test_compare_out_creates_its_directory(tmp_path, capsys):
    from semfuse.evaluation import EvalReport, write_report_csv

    paths = []
    for variation, acc in (("ours", 50.0), ("only-chatgpt", 60.0)):
        paths.append(str(tmp_path / f"{variation}.csv"))
        write_report_csv(paths[-1], [EvalReport(variation, "zsl", acc=acc)])
    out = tmp_path / "new" / "dir" / "compare.csv"
    assert main(["compare", "--reports", *paths, "--out", str(out)]) == 0
    assert [r.borda for r in read_report_csv(out)] == [0, 1]


@pytest.mark.parametrize("alphas,label", [("0.5,0.5", "alpha=0.5"),
                                          ("0.3,0.1,0.1000001", "alpha=0.1")])
def test_sweep_alpha_refuses_alphas_sharing_a_label(tmp_path, capsys, alphas, label):
    # the config is never read: the check comes before any input
    cfg = tmp_path / "missing.cfg"
    assert main(["sweep-alpha", "--config", str(cfg), "--alphas", alphas]) == 2
    assert f"more than one alpha runs as {label}" in capsys.readouterr().err


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
    assert not (tmp_path / "diverged").exists()


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


@pytest.mark.parametrize(
    "command,method,key,value,message",
    [
        ("train", "embed", "batch_size", "0", "batch_size = 0 is below its minimum 1"),
        ("train", "embed", "batch_size", "-5", "batch_size = -5 is below its minimum 1"),
        ("train", "embed", "epochs", "-1", "epochs = -1 is below its minimum 0"),
        ("train", "gen", "classifier_epochs", "-1", "classifier_epochs = -1 is below its minimum 0"),
        ("train", "gen", "n_critic", "0", "n_critic = 0 is below its minimum 1"),
        ("train", "gen", "synth_per_class", "0", "synth_per_class = 0 is below its minimum 1"),
        ("train", "gen", "noise_dim", "0", "noise_dim = 0 is below its minimum 1"),
        ("train", "gen", "hidden_mult", "0", "hidden_mult = 0 is below its minimum 1"),
        ("train", "embed", "q", "0", "q = 0 is below its minimum 1"),
        ("train", "embed", "lr", "-0.01", "lr = -0.01 is below its minimum 0.0"),
        ("train", "gen", "classifier_lr", "-1", "classifier_lr = -1.0 is below its minimum 0.0"),
        ("train", "gen", "eta", "0", "eta = 0.0 must be positive"),
        ("train", "embed", "lam", "-1", "lam = -1.0 is below its minimum 0.0"),
        ("train", "embed", "lam", "nan", "lam = nan is below its minimum 0.0"),
        ("train", "gen", "cls_weight", "-5", "cls_weight = -5.0 is below its minimum 0.0"),
        ("train", "embed", "alpha", "5", "alpha value 5.0 lies outside [0, 1]"),
        ("train", "gen", "alpha_set", "0.5,5", "alpha_set value 5.0 lies outside [0, 1]"),
        ("eval", "embed", "batch_size", "0", "batch_size = 0 is below its minimum 1"),
        ("synthesize", "gen", "n_critic", "0", "n_critic = 0 is below its minimum 1"),
    ],
)
def test_out_of_range_count_exits_2_before_reading_inputs(
    demo_dir, tmp_path, capsys, command, method, key, value, message
):
    # the split does not exist: refusing the config must come first
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "run", method=method,
                       split=tmp_path / "absent.cfg", **{key: value})
    extra = ["--out", str(tmp_path / "synth.csv")] if command == "synthesize" else []
    assert main([command, "--config", str(cfg), *extra]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_epochs_flag_out_of_range_exits_2(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "run")
    assert main(["train", "--config", str(cfg), "--epochs", "-1"]) == 2
    assert capsys.readouterr().err == "config error: epochs = -1 is below its minimum 0\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--alphas", "0.1,abc"], "--alphas: could not convert string to float: 'abc'"),
        (["--alphas", "0.5,5"], "alpha_set value 5.0 lies outside [0, 1]"),
        (["--alphas", "0.5", "--modes", "zsl,foo"], "--modes: unknown mode 'foo'"),
    ],
)
def test_sweep_alpha_refuses_its_flags_before_training(
    demo_dir, tmp_path, capsys, flags, message
):
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "run", epochs=2)
    assert main(["sweep-alpha", "--config", str(cfg), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_compare_configs_refuses_an_unknown_mode_before_training(demo_dir, tmp_path, capsys):
    cfgs = [
        write_config(tmp_path / f"{v}.cfg", demo_dir, tmp_path / v, variation=v, epochs=2)
        for v in ("only-class-name", "ours")
    ]
    argv = ["compare", "--configs", *map(str, cfgs), "--modes", "zsl,foo"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: --modes: unknown mode 'foo'\n"
    assert not (tmp_path / "only-class-name").exists() and not (tmp_path / "ours").exists()


def test_run_cfg_of_a_relative_config_reads_back(demo_dir, tmp_path, monkeypatch):
    # paths in the config are relative to it, and it is named relative
    # to the working directory; run.cfg must resolve to the same files
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo").symlink_to(demo_dir)
    (tmp_path / "cfg").mkdir()
    write_config(tmp_path / "cfg" / "c.cfg", demo_dir, "../runs/unused",
                 split="../demo/split.cfg", word_vectors="../demo/word_vectors.txt")
    assert main(["train", "--config", "cfg/c.cfg", "--out-dir", "runs/a"]) == 0
    run_cfg = "runs/a/run.cfg"
    assert main(["eval", "--config", "cfg/c.cfg", "--out-dir", "runs/a", "--mode", "zsl",
                 "--out", "first.csv"]) == 0
    assert main(["eval", "--config", run_cfg, "--mode", "zsl", "--out", "second.csv"]) == 0
    assert Path("first.csv").read_bytes() == Path("second.csv").read_bytes()
    assert main(["train", "--config", run_cfg, "--out-dir", "runs/b"]) == 0
    for name in ("model.ckpt", "train_log.csv"):
        assert Path("runs/a", name).read_bytes() == Path("runs/b", name).read_bytes()


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


def test_synthesize_refuses_a_per_class_below_one(gen_run, tmp_path, capsys):
    root, cfg = gen_run
    out = tmp_path / "synth.csv"
    for per_class in ("0", "-3"):
        argv = ["synthesize", "--config", str(cfg), "--per-class", per_class]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"--per-class {per_class} is below its minimum 1" in capsys.readouterr().err
    assert not out.exists()
    # refused before the config, any input or the checkpoint is read
    argv = ["synthesize", "--config", str(tmp_path / "missing.cfg"), "--per-class", "0"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "--per-class 0 is below its minimum 1" in capsys.readouterr().err


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
    binary = root / "run" / "model.bin"
    intact = binary.read_bytes()
    damaged = bytearray(intact)
    spans = checkpoint_files.value_spans(binary)
    skipped = [name for name in spans if name.startswith(("disc.", "cls."))]
    assert any(n.startswith("disc.") for n in skipped) and any(n.startswith("cls.") for n in skipped)
    for name in skipped:  # every value a NaN
        start, stop = spans[name]
        damaged[start:stop] = b"\xff" * (stop - start)
    binary.write_bytes(bytes(damaged))
    try:
        values, _ = ad.load_params(binary)
        assert all(np.isnan(values[name]).all() for name in skipped)
        assert main(["eval", "--config", str(cfg), "--mode", "gzsl",
                     "--out", str(root / "damaged.csv")]) == 0
    finally:
        binary.write_bytes(intact)
    assert (root / "intact.csv").read_bytes() == (root / "damaged.csv").read_bytes()


def test_gen_gzsl_refuses_a_seen_class_without_training_rows(demo_dir, tmp_path, capsys):
    # no sofa (id 3) rows: the final gzsl classifier would lack a seen candidate
    train = tmp_path / "train.csv"
    train.write_text("".join(line + "\n" for line in
                             (demo_dir / "train.csv").read_text().splitlines()
                             if not line.startswith("sofa,")))
    split = _write_split(tmp_path / "split.cfg", demo_dir, train_features=train)
    cfg = write_config(tmp_path / "g.cfg", demo_dir, tmp_path / "run", method="gen",
                       epochs="2", noise_dim="4", classifier_epochs="5",
                       synth_per_class="5", split=split)
    assert main(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "report.csv"
    assert main(["eval", "--config", str(cfg), "--mode", "gzsl", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: generative gzsl needs training rows of seen classes 3 (sofa)\n"
    )
    assert not out.exists()
    assert main(["eval", "--config", str(cfg), "--mode", "zsl", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "blob,message",
    [
        (b"FSET" + struct.pack("<II", 2**32 - 1, 2**32 - 1), "truncated at row 1"),
        (b"FSET" + struct.pack("<III", 1, 1, 3) + b"b\xffd" + bytes(8),
         "row 1 name is not UTF-8"),
        (b"FSET" + struct.pack("<II", 0, 12), "no feature rows"),
        (b"FSET" + struct.pack("<III", 1, 1, 3) + b"bed" + struct.pack("<d", np.inf),
         "row 1: non-finite feature value"),
    ],
    ids=["header-beyond-the-file", "name-not-utf8", "no-rows", "non-finite"],
)
def test_malformed_binary_features_exit_3_naming_the_file(
    demo_dir, tmp_path, capsys, blob, message
):
    features = tmp_path / "train.bin"
    features.write_bytes(blob)
    split = _write_split(tmp_path / "split.cfg", demo_dir, train_features=features)
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "run", split=split)
    assert main(["train", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith(f"data format error: {features}: {message}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_non_finite_csv_features_exit_3_naming_the_line(demo_dir, tmp_path, capsys, value):
    lines = (demo_dir / "train.csv").read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + "," + value
    features = tmp_path / "train.csv"
    features.write_text("\n".join(lines) + "\n")
    split = _write_split(tmp_path / "split.cfg", demo_dir, train_features=features)
    cfg = write_config(tmp_path / "c.cfg", demo_dir, tmp_path / "run", split=split)
    assert main(["train", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        f"data format error: {features}:5: non-finite feature value\n"
    )
    assert not (tmp_path / "run").exists()


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
    values, bound = ad.load_params(run / "model.bin")
    del values["embed.W_z"]
    ad.write_params_binary(run / "model.bin", {"": values}, bound)
    code = main(["eval", "--config", str(ours_run), "--mode", "zsl", "--out-dir", str(run)])
    assert code == 3
    assert "'embed.W_z'" in capsys.readouterr().err


def _copy_run(ours_run, tmp_path):
    """A copy of the trained run's directory, and a report path in none."""
    run = tmp_path / "run"
    shutil.copytree(ours_run.parent / "run", run)
    return run, tmp_path / "report.csv"


def _eval_copied_run(ours_run, run, out):
    return main(["eval", "--config", str(ours_run), "--mode", "zsl", "--out-dir", str(run),
                 "--out", str(out)])


def test_eval_of_a_text_only_run_exits_3(ours_run, tmp_path, capsys):
    run, out = _copy_run(ours_run, tmp_path)
    (run / "model.bin").unlink()  # as a run trained before the binary records
    assert _eval_copied_run(ours_run, run, out) == 3
    err = capsys.readouterr().err
    assert f"{run / 'model.ckpt'}: a text-only checkpoint" in err and "retrain" in err
    assert not out.exists()


def test_eval_of_a_truncated_binary_checkpoint_exits_3_naming_record_and_offset(
    ours_run, tmp_path, capsys
):
    run, out = _copy_run(ours_run, tmp_path)
    binary = run / "model.bin"
    last = list(checkpoint_files.value_spans(binary))[-1]
    blob = binary.read_bytes()
    binary.write_bytes(blob[:-8])
    assert _eval_copied_run(ours_run, run, out) == 3
    err = capsys.readouterr().err
    assert f"{binary}: record" in err and f"{last!r} at byte" in err
    assert f"truncated at byte {len(blob) - 8}" in err
    assert not out.exists()


def test_eval_refuses_a_text_checkpoint_its_binary_was_not_written_with(
    ours_run, tmp_path, capsys
):
    run, out = _copy_run(ours_run, tmp_path)
    with (run / "model.ckpt").open("a") as handle:
        handle.write("\n")
    assert _eval_copied_run(ours_run, run, out) == 2
    err = capsys.readouterr().err
    assert f"{run / 'model.ckpt'} is not the file {run / 'model.bin'} was written with" in err
    assert not out.exists()


def test_eval_refuses_a_checkpoint_trained_under_another_run_config(
    ours_run, tmp_path, capsys
):
    other = tmp_path / "other_seed"
    assert main(["train", "--config", str(ours_run), "--seed", "2",
                 "--out-dir", str(other)]) == 0
    run, out = _copy_run(ours_run, tmp_path)
    for name in ("model.ckpt", "model.bin"):
        shutil.copy(other / name, run / name)
    assert _eval_copied_run(ours_run, run, out) == 2
    err = capsys.readouterr().err
    assert f"{run / 'run.cfg'} is not the file {run / 'model.bin'} was written with" in err
    assert not out.exists()


def test_synthesize_out_creates_its_directory(gen_run, tmp_path):
    _, cfg = gen_run
    out = tmp_path / "nodir" / "x.csv"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().count("\n") > 0


def test_build_semantics_out_creates_its_directory(demo_dir, tmp_path):
    out = tmp_path / "nodir" / "b.csv"
    argv = ["build-semantics", "--split", str(demo_dir / "split.cfg"),
            "--word-vectors", str(demo_dir / "word_vectors.txt"), "--out", str(out)]
    assert main(argv) == 0
    semantics, variation = read_bundles(out)
    assert variation == "ours" and len(semantics.ids) == 6


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


# sha256 of each file a short run on `scripts/make_demo_data.py` data writes
DEMO_RUN_DIGESTS = {
    "embed": {
        "model.ckpt": "a168fbfb9663d6b854123db1017714c8484c9ae5ed40bb500f85a42ba4b35a14",
        "train_log.csv": "48d3a26e9056177185aba13df2bbdb6bfd6014c26e7a425790ac5aad3621c4ac",
        "fused_semantics.csv": "d5e517149b9ca79ce42861648a9bc4d99f4a1933bee682f260ad2c56d8a9d7e1",
    },
    "gen": {
        "model.ckpt": "a73d56245320fe05aa4734e9248ac91e3407f181f3eee10d174952340457bb13",
        "train_log.csv": "3be8c0dac425871086723f46c841015108df35dad8bb83c4970c9776a2f0587d",
        "fused_semantics.csv": "bb35701a233658444230b225ee47ce40d6c9ff7d657e84db0acd84b0f74cf564",
        "synth.csv": "b7bbdfd7f03920fd34e2871ee312c3958b4738099a3b950cbe28ca7ba0a93ae8",
    },
}


@pytest.mark.parametrize("method", ["embed", "gen"])
def test_demo_runs_keep_their_bytes(tmp_path, monkeypatch, method):
    path = REPO_ROOT / "scripts" / "make_demo_data.py"
    spec = importlib.util.spec_from_file_location("make_demo_data", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    demo, run = tmp_path / "demo", tmp_path / "run"
    monkeypatch.setattr(sys, "argv", [str(path), "--out-dir", str(demo), "--per-class", "12"])
    script.main()
    # 84 training rows: shuffled minibatches of 64 for either family
    epochs = {"embed": "40", "gen": "4"}[method]
    argv = ["train", "--config", str(demo / "run.cfg"), "--out-dir", str(run)]
    save_params, saved = ad.save_params, []

    def recording(*args):
        saved.append(save_params(*args))
        return saved[-1]

    monkeypatch.setattr(ad, "save_params", recording)
    assert main([*argv, "--method", method, "--epochs", epochs]) == 0
    # the digest the export returns is that of the bytes it wrote
    assert saved == [hashlib.sha256((run / "model.ckpt").read_bytes()).digest()]
    if method == "gen":
        argv = ["synthesize", "--config", str(run / "run.cfg"), "--per-class", "20"]
        assert main([*argv, "--out", str(run / "synth.csv")]) == 0
    digests = {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
               for name in DEMO_RUN_DIGESTS[method]}
    assert digests == DEMO_RUN_DIGESTS[method]
    # the binary records hold the text export's bits, bound to it and to run.cfg
    text = checkpoint_files.load_text_params(run / "model.ckpt")
    values, bound = ad.load_params(run / "model.bin")
    assert list(values) == list(text)
    assert all(values[name].tobytes() == text[name].tobytes() for name in text)
    assert bound == tuple(hashlib.sha256((run / name).read_bytes()).digest()
                          for name in ("model.ckpt", "run.cfg"))
