"""Config-driven command-line pipeline.

Subcommands cover the experiment flow end to end: fetch-descriptions,
build-semantics, train (plus train-embed / train-gen aliases),
synthesize, eval, compare, and sweep-alpha. Runs are deterministic
given config file plus seed; reports are CSV plus an aligned table.

Exit codes: 0 success, 2 configuration or manifest problems (also a
non-finite training loss, and an eval or synthesize config that differs
from the run's training config), 3 malformed data files, 4 transport
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .datasets import (
    FeatureSet,
    load_features,
    load_split,
    read_kv_file,
    write_features_csv,
)
from .embed_zsl import EmbedPredictor, EmbedTrainConfig, init_embed_model, train_embed
from .errors import ConfigError, ContractError, FormatError, TransportError
from .evaluation import (
    EvalReport,
    borda_count,
    evaluate_run,
    format_report_table,
    read_report_csv,
    write_report_csv,
)
from .fusion import (
    ALPHA_SWEEP,
    VARIATIONS,
    SemanticBundle,
    export_fused_csv,
    init_fusion,
    read_bundles,
    resolve_semantics,
    write_bundles,
)
from .gen_zsl import (
    ClassifierTrainConfig,
    GanTrainer,
    GenPredictor,
    GenTrainConfig,
    init_generator,
    pretrain_classifier,
    synthesize_set,
    train_final_classifier,
)
from .llm_client import DescriptionCache, EndpointConfig, fetch_all, fetch_description
from .wordvec import embed_text, load_word_vectors

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_TRANSPORT = 4


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


_PATH_KEYS = {"split", "word_vectors", "bundles", "out_dir"}
_INT_KEYS = {
    "epochs",
    "q",
    "batch_size",
    "noise_dim",
    "hidden_mult",
    "n_critic",
    "synth_per_class",
    "classifier_epochs",
    "seed",
}
_FLOAT_KEYS = {"alpha", "lr", "lam", "eta", "cls_weight", "classifier_lr"}
_STR_KEYS = {"variation", "method", "optimizer"}


def load_run_config(path) -> RunConfig:
    """Parse a key = value config file; paths resolve against the file."""
    path = Path(path)
    kv = read_kv_file(path)
    config = RunConfig()
    for key, raw in kv.items():
        try:
            if key in _PATH_KEYS:
                p = Path(raw)
                value = p if p.is_absolute() else path.parent / p
            elif key in _INT_KEYS:
                value = int(raw)
            elif key in _FLOAT_KEYS:
                value = float(raw)
            elif key in _STR_KEYS:
                value = raw
            elif key == "alpha_set":
                value = tuple(float(v) for v in raw.split(",") if v.strip())
            else:
                raise ConfigError(f"{path}: unknown config key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {exc}") from exc
        config = replace(config, **{key: value})
    return config


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    for name in ("seed", "alpha", "variation", "method", "epochs"):
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            config = replace(config, **{name: value})
    if getattr(args, "out_dir", None) is not None:
        config = replace(config, out_dir=Path(args.out_dir))
    config.validate()
    return config


# ---------------------------------------------------------------------------
# bundle construction


def build_bundles(split, table, variation: str, cache_dir=None) -> list[SemanticBundle]:
    """Bundles for every class of a split, honoring the variation.

    The side a variation does not use is zeroed; "ours" fills both and
    leaves fusion to training. Description text comes from the cache
    only; a miss fails like any other offline miss.
    """
    d = table.dimension
    needs_desc = variation in ("only-chatgpt", "ours")
    cache = None
    if needs_desc:
        if cache_dir is None:
            raise ConfigError(
                f"variation {variation!r} needs a description cache directory"
            )
        cache = DescriptionCache(cache_dir)
    bundles = []
    for name, cid in sorted(split.class_ids.items(), key=lambda kv: kv[1]):
        e_c = (
            np.zeros(d)
            if variation == "only-chatgpt"
            else embed_text(table, name)
        )
        if needs_desc:
            text = fetch_description(name, cache, None)
            e_p = embed_text(table, text)
        else:
            e_p = np.zeros(d)
        bundles.append(SemanticBundle(cid, name, e_c, e_p))
    return bundles


def obtain_bundles(config: RunConfig, split) -> list[SemanticBundle]:
    if config.bundles is not None:
        bundles, variation = read_bundles(config.bundles)
        if variation != config.variation:
            raise ConfigError(
                f"bundle file was built for variation {variation!r}, "
                f"config says {config.variation!r}"
            )
        return bundles
    if config.word_vectors is None:
        raise ConfigError("config needs either 'bundles' or 'word_vectors'")
    table = load_word_vectors(config.word_vectors)
    return build_bundles(split, table, config.variation, split.description_dir)


# ---------------------------------------------------------------------------
# training / evaluation plumbing


def _require(value, message: str):
    if value is None:
        raise ConfigError(message)
    return value


def _train_features(split) -> FeatureSet:
    path = _require(split.train_features, "split manifest has no train_features")
    return load_features(path, split)


def _test_features(split) -> FeatureSet:
    path = _require(split.test_features, "split manifest has no test_features")
    return load_features(path, split)


def _ckpt_path(config: RunConfig) -> Path:
    return Path(config.out_dir) / "model.ckpt"


def run_train(config: RunConfig) -> Path:
    """Train per the config and write checkpoint plus logs; returns the
    checkpoint path."""
    config.validate()
    split = load_split(_require(config.split, "config needs a split manifest"))
    bundles = obtain_bundles(config, split)
    data = _train_features(split)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if config.method == "embed":
        run = train_embed(
            data,
            bundles,
            EmbedTrainConfig(
                q=config.q,
                lr=config.lr,
                epochs=config.epochs,
                lam=config.lam,
                alpha=config.alpha,
                seed=config.seed,
                batch_size=config.batch_size,
                optimizer=config.optimizer,
                variation=config.variation,
            ),
        )
        stores = {"embed": run.model.store}
        fusion = run.fusion
        log_rows = [f"{i},{loss:.17g}" for i, loss in enumerate(run.loss_history)]
        log_header = "epoch,loss"
    else:
        classifier = pretrain_classifier(
            data,
            ClassifierTrainConfig(
                lr=config.classifier_lr,
                epochs=config.classifier_epochs,
                batch_size=config.batch_size,
                seed=config.seed,
            ),
        )
        steps = config.epochs * max(1, math.ceil(data.n / config.batch_size))
        trainer = GanTrainer(data, bundles, classifier, _gen_config(config, steps))
        records = trainer.train()
        stores = {
            "gen": trainer.gen.store,
            "disc": trainer.disc.store,
            "cls": classifier.store,
        }
        fusion = trainer.fusion
        log_rows = [
            f"{i},{r.critic_loss:.17g},{r.wasserstein:.17g},{r.penalty:.17g},"
            f"{r.gen_loss:.17g},{r.cls_term:.17g}"
            for i, r in enumerate(records)
        ]
        log_header = "step,critic_loss,wasserstein,penalty,gen_loss,cls_term"

    stores["fusion"] = fusion.store
    if len(fusion.store):
        export_fused_csv(out_dir / "fused_semantics.csv", resolve_semantics(bundles, fusion))
    ckpt = _ckpt_path(config)
    ad.save_params(ckpt, stores)
    (out_dir / "run.cfg").write_text(config.to_text(), encoding="utf-8")
    (out_dir / "train_log.csv").write_text(
        log_header + "\n" + "\n".join(log_rows) + "\n", encoding="utf-8"
    )
    return ckpt


def _gen_config(config: RunConfig, steps: int) -> GenTrainConfig:
    return GenTrainConfig(
        noise_dim=config.noise_dim,
        hidden_mult=config.hidden_mult,
        eta=config.eta,
        cls_weight=config.cls_weight,
        n_critic=config.n_critic,
        lr=config.lr,
        batch_size=config.batch_size,
        steps=steps,
        seed=config.seed,
        alpha=config.alpha,
        variation=config.variation,
    )


# keys that fix what a run's parameters are and mean
_TRAINED_KEYS = ("method", "variation", "alpha", "q", "noise_dim", "hidden_mult")


def _restore_artifacts(config: RunConfig, bundles, m: int):
    """Rebuild trained components from the checkpoint for evaluation,
    refusing a run trained under different ``_TRAINED_KEYS``."""
    ckpt, run_cfg = _ckpt_path(config), Path(config.out_dir) / "run.cfg"
    for what, path in (("checkpoint", ckpt), ("run config", run_cfg)):
        if not path.exists():
            raise ConfigError(f"{what} not found: {path} (run train first)")
    trained = load_run_config(run_cfg)
    for key in _TRAINED_KEYS:
        if getattr(trained, key) != getattr(config, key):
            raise ConfigError(
                f"run {config.out_dir} was trained with {key} = {getattr(trained, key)}, "
                f"this config has {key} = {getattr(config, key)}"
            )
    values = ad.load_params(ckpt)
    d = bundles[0].dimension
    fusion = init_fusion(d, 0, config.alpha, config.variation)
    ad.restore_store(fusion.store, values, "fusion")
    if config.method == "embed":
        model = init_embed_model(config.q or d, m, d, config.lam, 0)
        ad.restore_store(model.store, values, "embed")
        return EmbedPredictor(model, fusion), fusion
    gen = init_generator(m, d, config.noise_dim, 0, [config.hidden_mult * m])
    ad.restore_store(gen.store, values, "gen")
    return gen, fusion


def run_eval(config: RunConfig, mode: str, micro: bool = False) -> EvalReport:
    """Evaluate a trained run; deterministic given config and seed."""
    config.validate()
    split = load_split(_require(config.split, "config needs a split manifest"))
    bundles = obtain_bundles(config, split)
    test_set = _test_features(split)
    artifacts, fusion = _restore_artifacts(config, bundles, test_set.m)

    if config.method == "embed":
        predictor = artifacts
    else:
        synth = synthesize_set(
            artifacts,
            fusion,
            bundles,
            split.unseen_ids,
            config.synth_per_class,
            config.seed,
            split.class_table,
        )
        real_seen = _train_features(split) if mode == "gzsl" else None
        classifier = train_final_classifier(
            real_seen,
            synth,
            ClassifierTrainConfig(
                lr=config.classifier_lr,
                epochs=config.classifier_epochs,
                batch_size=config.batch_size,
                seed=config.seed,
            ),
        )
        predictor = GenPredictor(classifier, config.variation)
    return evaluate_run(predictor, test_set, bundles, mode, micro)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fetch_descriptions(args) -> int:
    split = load_split(args.split)
    cache_dir = args.cache or split.description_dir
    if cache_dir is None:
        raise ConfigError("no cache directory: pass --cache or set it in the split")
    cache = DescriptionCache(cache_dir)
    endpoint = None
    if args.endpoint_url:
        endpoint = EndpointConfig(
            url=args.endpoint_url, api_key_env=args.api_key_env, model=args.model
        )
    names = split.seen + split.unseen
    for name in names:
        state = "cached" if cache.get(name) is not None else "missing"
        print(f"  {name}: {state}")
    fetched, cached = fetch_all(names, cache, endpoint)
    print(f"{fetched} fetched, {cached} cached")
    return EXIT_OK


def cmd_build_semantics(args) -> int:
    split = load_split(args.split)
    table = load_word_vectors(args.word_vectors)
    cache_dir = args.cache or split.description_dir
    bundles = build_bundles(split, table, args.variation, cache_dir)
    write_bundles(args.out, bundles, args.variation)
    print(f"wrote {len(bundles)} bundles (d={table.dimension}) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    if args.force_method:
        config = replace(config, method=args.force_method)
    ckpt = run_train(config)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    report = run_eval(config, args.mode, args.micro)
    out = Path(args.out) if args.out else Path(config.out_dir) / f"report_{args.mode}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(out, [report])
    print(format_report_table([report]))
    print(f"report written to {out}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    if config.method != "gen":
        raise ConfigError("synthesize needs a generative-method config")
    split = load_split(_require(config.split, "config needs a split manifest"))
    bundles = obtain_bundles(config, split)
    test_set = _test_features(split)
    gen, fusion = _restore_artifacts(config, bundles, test_set.m)
    per_class = args.per_class or config.synth_per_class
    synth = synthesize_set(
        gen, fusion, bundles, split.unseen_ids, per_class, config.seed, split.class_table
    )
    names = [split.class_table[int(c)] for c in synth.labels]
    write_features_csv(args.out, names, synth.features)
    print(f"wrote {synth.n} synthetic rows for {len(synth.unseen_ids)} classes to {args.out}")
    return EXIT_OK


def _merge_block(reports: list[EvalReport]) -> EvalReport:
    """Collapse one variation's zsl/gzsl rows into a single metric row."""
    merged: dict[str, float] = {}
    for r in reports:
        for name, value in r.metrics().items():
            if name in merged and merged[name] != value:
                raise ContractError(
                    f"conflicting {name} values for variation {r.variation!r}"
                )
            merged[name] = value
    return EvalReport(
        reports[0].variation,
        "combined",
        reports[0].averaging,
        acc=merged.get("acc"),
        acc_s=merged.get("acc_s"),
        acc_u=merged.get("acc_u"),
        hm=merged.get("hm"),
    )


def cmd_compare(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    blocks: list[EvalReport] = []
    if args.reports:
        for path in args.reports:
            rows = read_report_csv(path)
            if not rows:
                raise ConfigError(f"{path}: empty report")
            variations = {r.variation for r in rows}
            if len(variations) != 1:
                raise ConfigError(f"{path}: more than one variation in a report file")
            blocks.append(_merge_block(rows))
    elif args.configs:
        for path in args.configs:
            config = _apply_overrides(load_run_config(path), args)
            run_train(config)
            blocks.append(_merge_block([run_eval(config, mode) for mode in modes]))
    else:
        raise ConfigError("compare needs --reports or --configs")
    points = borda_count(blocks)
    for block in blocks:
        block.borda = points[block.variation]
    print(format_report_table(blocks))
    if args.out:
        write_report_csv(args.out, blocks)
        print(f"comparison written to {args.out}")
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    config = replace(config, variation="ours")
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    if not alphas:
        raise ContractError("alpha sweep set is empty")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    reports: list[EvalReport] = []
    base_out = Path(config.out_dir)
    for alpha in alphas:
        run_config = replace(
            config,
            alpha=alpha,
            alpha_set=tuple(alphas),
            out_dir=base_out / f"alpha_{alpha:g}",
        )
        run_train(run_config)
        for mode in modes:
            report = run_eval(run_config, mode)
            report.variation = f"alpha={alpha:g}"
            reports.append(report)
    out = args.out or base_out / "alpha_sweep.csv"
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(out, reports)
    print(format_report_table(reports))
    print(f"sweep written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semfuse",
        description="zero-shot classification with fused class semantics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch-descriptions", help="populate the description cache")
    p.add_argument("--split", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--endpoint-url", default=None)
    p.add_argument("--model", default="gpt-3.5-turbo")
    p.add_argument("--api-key-env", default="CHAT_API_KEY")
    p.set_defaults(func=cmd_fetch_descriptions)

    p = sub.add_parser("build-semantics", help="embed class names and descriptions")
    p.add_argument("--split", required=True)
    p.add_argument("--word-vectors", required=True)
    p.add_argument("--variation", choices=VARIATIONS, default="ours")
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_semantics)

    def add_config_options(p, with_mode=False):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--variation", choices=VARIATIONS, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        if with_mode:
            p.add_argument("--mode", choices=("zsl", "gzsl"), default="gzsl")

    for name, forced in (("train", None), ("train-embed", "embed"), ("train-gen", "gen")):
        p = sub.add_parser(name, help=f"train the {forced or 'configured'} model")
        add_config_options(p)
        if forced is None:
            p.add_argument("--method", choices=("embed", "gen"), default=None)
        p.set_defaults(func=cmd_train, force_method=forced)

    p = sub.add_parser("eval", help="evaluate a trained run")
    add_config_options(p, with_mode=True)
    p.add_argument("--micro", action="store_true", help="per-sample averaging")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synthesize", help="write synthetic unseen-class features")
    add_config_options(p)
    p.add_argument("--per-class", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("compare", help="borda-count comparison of variations")
    p.add_argument("--reports", nargs="+", default=None)
    p.add_argument("--configs", nargs="+", default=None)
    p.add_argument("--modes", default="zsl,gzsl")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-alpha", help="train and evaluate over an alpha set")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", default=",".join(str(a) for a in ALPHA_SWEEP))
    p.add_argument("--modes", default="zsl,gzsl")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep_alpha)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except FormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ConfigError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
