"""Config-driven command-line pipeline.

Subcommands cover the experiment flow end to end: fetch-descriptions,
build-semantics, train (plus train-embed / train-gen aliases),
synthesize, eval, compare, and sweep-alpha. Runs are deterministic
given config file plus seed; reports are CSV plus an aligned table.

Exit codes: 0 success, 2 configuration or manifest problems (also a
non-finite training loss, an eval or synthesize config that differs
from the run's training config, a run directory's run.cfg or model.ckpt
that is not the one its model.bin was written with, and eval test
features of another width than the checkpoint's), 3 malformed data files
(also a run directory with only a text checkpoint), 4 transport
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import pipeline
from .datasets import (
    FeatureSet,
    RunConfig,
    load_features,
    load_run_config,
    load_split,
    write_features_csv,
)
from .errors import ConfigError, ContractError, FormatError, ManifestError, TransportError
from .evaluation import (
    EvalReport,
    borda_count,
    format_report_table,
    merge_modes,
    read_report_csv,
    write_report_csv,
)
from .fusion import (
    ALPHA_SWEEP,
    VARIATIONS,
    ClassSemantics,
    export_fused_csv,
    read_bundles,
    resolve_semantics,
    write_bundles,
)
from .gen_zsl import synthesize_set
from .llm_client import DescriptionCache, EndpointConfig, fetch_all, fetch_description
from .wordvec import embed_text, load_word_vectors, tokenize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_TRANSPORT = 4


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


def build_bundles(split, word_vectors, variation: str, cache_dir=None) -> ClassSemantics:
    """Semantics of every class of a split, honoring the variation.

    The side a variation does not use is zeroed; "ours" fills both and
    leaves fusion to training. Description text comes from the cache
    only; a miss fails like any other offline miss. The word-vector file
    is loaded filtered to the tokens of the texts the variation embeds.
    """
    needs_desc = variation in ("only-chatgpt", "ours")
    cache = None
    if needs_desc:
        if cache_dir is None:
            raise ConfigError(
                f"variation {variation!r} needs a description cache directory"
            )
        cache = DescriptionCache(cache_dir)
    names = split.seen + split.unseen  # a class id is its position here
    # the texts each side embeds; None marks a zeroed side
    name_texts = [None if variation == "only-chatgpt" else name for name in names]
    desc_texts = [
        fetch_description(name, cache, None) if needs_desc else None for name in names
    ]
    vocabulary = {
        token
        for text in name_texts + desc_texts
        if text is not None
        for token in tokenize(text)
    }
    table = load_word_vectors(word_vectors, vocabulary)

    def side(texts):
        zeros = np.zeros(table.dimension)
        return [zeros if text is None else embed_text(table, text) for text in texts]

    return ClassSemantics(np.arange(len(names)), names, side(name_texts), side(desc_texts))


def obtain_bundles(config: RunConfig, split) -> ClassSemantics:
    """The config's bundle file, whose rows must name the split's class
    of each id, or else semantics built from its word vectors."""
    if config.bundles is not None:
        semantics, variation = read_bundles(config.bundles)
        if variation != config.variation:
            raise ConfigError(
                f"bundle file was built for variation {variation!r}, "
                f"config says {config.variation!r}"
            )
        table = split.class_table
        for cid, name in zip(semantics.ids.tolist(), semantics.names):
            if table.get(cid) != name:
                where = f"{table[cid]!r} in the split" if cid in table else "not in the split"
                raise ManifestError(
                    f"{config.bundles}: class {cid} is {name!r} in the bundle file "
                    f"and {where}"
                )
        return semantics
    if config.word_vectors is None:
        raise ConfigError("config needs either 'bundles' or 'word_vectors'")
    return build_bundles(split, config.word_vectors, config.variation, split.description_dir)


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


def _run_files(config: RunConfig) -> tuple[Path, Path, Path]:
    """A run directory's text checkpoint export, the binary checkpoint
    runs are restored from, and its run config."""
    out_dir = Path(config.out_dir)
    return out_dir / "model.ckpt", out_dir / "model.bin", out_dir / "run.cfg"


def _sha256(path: Path) -> bytes:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.digest()


def run_train(config: RunConfig) -> Path:
    """Train per the config and write checkpoints plus logs; returns the
    text checkpoint's path."""
    split = load_split(_require(config.split, "config needs a split manifest"))
    semantics = obtain_bundles(config, split)
    trained = pipeline.train(config, _train_features(split), semantics)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if trained.fusion.store:
        fused = resolve_semantics(semantics, trained.fusion)
        export_fused_csv(out_dir / "fused_semantics.csv", semantics.ids, fused)
    ckpt, binary, run_cfg = _run_files(config)
    ckpt_digest = ad.save_params(ckpt, trained.stores)
    run_cfg.write_text(config.to_text(), encoding="utf-8")
    (out_dir / "train_log.csv").write_text(trained.train_log, encoding="utf-8")
    # last, so a run directory that holds it is complete
    ad.write_params_binary(binary, trained.stores, (ckpt_digest, _sha256(run_cfg)))
    return ckpt


# keys that fix what a run's parameters are and mean
_TRAINED_KEYS = ("method", "variation", "alpha", "q", "noise_dim", "hidden_mult")


def _restore(config: RunConfig, d: int) -> tuple[pipeline.Trained, int]:
    """Read a trained run back from its binary checkpoint, refusing one
    trained under different ``_TRAINED_KEYS`` or whose text export or
    run config is not the one the checkpoint was written with; returns
    it with the feature width ``m`` read from the checkpoint's records."""
    ckpt, binary, run_cfg = _run_files(config)
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
        if getattr(saved, key) != getattr(config, key):
            raise ConfigError(
                f"run {config.out_dir} was trained with {key} = {getattr(saved, key)}, "
                f"this config has {key} = {getattr(config, key)}"
            )
    values, bound = ad.load_params(binary, ("fusion", config.method))
    for path, digest in zip((ckpt, run_cfg), bound):
        if _sha256(path) != digest:
            raise ConfigError(
                f"{path} is not the file {binary} was written with (its sha256 differs); "
                "retrain the run"
            )
    try:
        return pipeline.restore(config, values, d)
    except FormatError as exc:
        raise FormatError(f"{binary}: {exc}") from None


def run_eval(config: RunConfig, modes: Sequence[str], micro: bool = False) -> list[EvalReport]:
    """Evaluate a trained run in each of ``modes``, one report per mode;
    deterministic given config and seed."""
    config.validate()
    split = load_split(_require(config.split, "config needs a split manifest"))
    semantics = obtain_bundles(config, split)
    test_set = _test_features(split)
    trained, m = _restore(config, semantics.d)
    if test_set.m != m:
        raise ConfigError(
            f"test features {split.test_features} have width {test_set.m}, "
            f"the checkpoint was trained on width {m}"
        )
    seen_set = None
    if config.method == "gen" and "gzsl" in modes:  # real seen rows join synthetic ones
        seen_set = _train_features(split)
    return pipeline.evaluate(trained, config, test_set, semantics, modes, seen_set, micro)


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
    cache_dir = args.cache or split.description_dir
    semantics = build_bundles(split, args.word_vectors, args.variation, cache_dir)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_bundles(args.out, semantics, args.variation)
    print(f"wrote {len(semantics.ids)} bundles (d={semantics.d}) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    ckpt = run_train(config)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _apply_overrides(load_run_config(args.config), args)
    (report,) = run_eval(config, (args.mode,), args.micro)
    out = Path(args.out) if args.out else Path(config.out_dir) / f"report_{args.mode}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(out, [report])
    print(format_report_table([report]))
    print(f"report written to {out}")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    if args.per_class is not None and args.per_class < 1:
        raise ConfigError(f"--per-class {args.per_class} is below its minimum 1")
    config = _apply_overrides(load_run_config(args.config), args)
    if config.method != "gen":
        raise ConfigError("synthesize needs a generative-method config")
    split = load_split(_require(config.split, "config needs a split manifest"))
    semantics = obtain_bundles(config, split)
    trained, _ = _restore(config, semantics.d)
    per_class = config.synth_per_class if args.per_class is None else args.per_class
    synth = synthesize_set(trained.model, trained.fusion, semantics, split, per_class, config.seed)
    names = [split.class_table[int(c)] for c in synth.labels]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_features_csv(args.out, names, synth.features)
    print(f"wrote {synth.n} synthetic rows for {synth.n // per_class} classes to {args.out}")
    return EXIT_OK


def _parse_modes(text: str) -> list[str]:
    modes = [m.strip() for m in text.split(",") if m.strip()]
    for mode in modes:
        if mode not in ("zsl", "gzsl"):
            raise ConfigError(f"--modes: unknown mode {mode!r}")
    if not modes:
        raise ConfigError("--modes names no mode")
    return modes


def cmd_compare(args) -> int:
    blocks: list[EvalReport] = []
    if bool(args.reports) == bool(args.configs):
        raise ConfigError("compare needs either --reports or --configs, not both")
    if args.reports:
        for path in args.reports:
            rows = read_report_csv(path)
            if not rows:
                raise ConfigError(f"{path}: empty report")
            variations = {r.variation for r in rows}
            if len(variations) != 1:
                raise ConfigError(f"{path}: more than one variation in a report file")
            blocks.append(merge_modes(rows))
    else:
        modes = _parse_modes(args.modes)
        configs = [_apply_overrides(load_run_config(path), args) for path in args.configs]
        for config in configs:
            run_train(config)
            blocks.append(merge_modes(run_eval(config, modes)))
    averaging = sorted({block.averaging for block in blocks})
    if len(averaging) > 1:
        raise ConfigError(f"compare mixes blocks of averaging {averaging}")
    points = borda_count(blocks)
    for block in blocks:
        block.borda = points[block.variation]
    print(format_report_table(blocks))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_report_csv(args.out, blocks)
        print(f"comparison written to {args.out}")
    return EXIT_OK


def cmd_sweep_alpha(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError as exc:
        raise ConfigError(f"--alphas: {exc}") from None
    if not alphas:
        raise ContractError("alpha sweep set is empty")
    labels = [f"{alpha:g}" for alpha in alphas]  # each run's directory and report label
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(f"--alphas: more than one alpha runs as alpha={label}")
    config = _apply_overrides(load_run_config(args.config), args)
    modes = _parse_modes(args.modes)
    # the runs differ only in an alpha from the set, so one check covers all
    config = replace(config, variation="ours", alpha=alphas[0], alpha_set=tuple(alphas))
    config.validate()
    reports: list[EvalReport] = []
    base_out = Path(config.out_dir)
    for alpha, label in zip(alphas, labels):
        run_config = replace(config, alpha=alpha, out_dir=base_out / f"alpha_{label}")
        run_train(run_config)
        for report in run_eval(run_config, modes):
            report.variation = f"alpha={label}"
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
        # an alias's method overrides the config's like --method does
        p.set_defaults(func=cmd_train, method=forced)

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
