"""Config-driven command-line pipeline.

Subcommands cover the experiment flow end to end: fetch-descriptions,
build-semantics, train (plus train-embed / train-gen aliases),
synthesize, eval, compare, and sweep-alpha. Reports are CSV plus an
aligned table, byte-identical given config file plus seed. train stores
the class semantics it trained with in model.bin; eval and synthesize
score with those and read no word vectors, bundles or descriptions.

Exit codes: 0 success, 2 configuration or manifest problems (also a
config value out of range, named after its config file or the flag
that set it, an input or output path that is missing, of the wrong
kind or not readable or writable, split class names sharing a
description file, a bundle file lacking a class of the split, a
non-finite training loss, an eval or synthesize config that differs
from the run's training config, a run directory without model.bin or
run.cfg, or whose run.cfg is not the one its model.bin was written
with, an eval or synthesize split whose class table is not the trained
one or that has classes without stored semantics, a model.bin record
of another shape than the model's, and eval test features or GZSL seen
rows of another width than the checkpoint's), 3 malformed data files
(also a model.bin of an older format, one missing a record the model
needs, and one whose records do not match its CRC-32), 4 transport
failures, 141 (128 + SIGPIPE) a stdout whose reader has gone.

`main` builds the parser of the invoked subcommand only. Its usage
line names every subcommand, so usage lines and errors read as with the
full parser, which `--help`, no command and an unknown command get.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

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
    read_bundles,
    write_bundles,
)
from .gen_zsl import synthesize_set
from .llm_client import DescriptionCache, EndpointConfig, fetch_all, fetch_description
from .wordvec import embed_text, load_word_vectors, tokenize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_TRANSPORT = 4
EXIT_BROKEN_PIPE = 141


# the run-config keys that command-line flags override, and the flags
_FLAGS = {"seed": "--seed", "alpha": "--alpha", "variation": "--variation",
          "method": "--method", "epochs": "--epochs", "out_dir": "--out-dir"}


def _validated(config: RunConfig, path, flags: dict[str, str]) -> RunConfig:
    """``config``, validated; a refusal starts with where the values it
    names came from: the flag in ``flags`` of each key the command line
    set, the config file ``path`` for the others."""
    config.validate(lambda keys: ", ".join(dict.fromkeys(flags.get(k, str(path)) for k in keys)))
    return config


def _apply_overrides(path, args) -> RunConfig:
    """The run config at ``path`` with the values of the command line's
    flags, validated."""
    config, flags = load_run_config(path), {}
    for name, flag in _FLAGS.items():
        value = getattr(args, name, None)
        if value is not None:
            # an alias such as train-gen sets the method, not --method
            flags[name] = args.command if name == "method" and args.command != "train" else flag
            config = replace(config, **{name: Path(value) if name == "out_dir" else value})
    return _validated(config, path, flags)


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
    """The config's bundle file, whose rows must name every class of the
    split by its id, or else semantics built from its word vectors."""
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
        missing = sorted(set(table) - set(semantics.ids.tolist()))
        if missing:
            raise ManifestError(f"{config.bundles}: classes without semantics: {missing}")
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


def _require_directory_path(path: Path) -> None:
    """Refuse, with the error making it would raise, a run directory
    ``path`` that exists as a non-directory or whose nearest existing
    ancestor is not a directory; creates nothing."""
    if path.is_dir():
        return
    if path.exists():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(path))
    ancestor = next((p for p in path.parents if p.exists()), None)
    if ancestor is not None and not ancestor.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))


def _features(split, key: str, m: int | None = None) -> FeatureSet:
    """The split's ``train_features`` or ``test_features`` file, read;
    with ``m``, refused unless its width is the checkpoint's ``m``."""
    path = _require(getattr(split, key), f"split manifest has no {key}")
    features = load_features(path, split)
    if m is not None and features.m != m:
        raise ConfigError(
            f"{key.replace('_', ' ')} {path} have width {features.m}, "
            f"the checkpoint was trained on width {m}"
        )
    return features


def run_train(config: RunConfig) -> Path:
    """Train per the config and write its run directory; returns the
    path of its model.bin."""
    _require_directory_path(Path(config.out_dir))
    split = load_split(_require(config.split, "config needs a split manifest"))
    semantics = obtain_bundles(config, split)
    trained = pipeline.train(config, _features(split, "train_features"), semantics)
    return pipeline.save_run(config, trained)


def run_eval(config: RunConfig, modes: Sequence[str], micro: bool = False) -> list[EvalReport]:
    """Evaluate a trained run under its validated ``config`` in each of
    ``modes``, one report per mode, with the class semantics it was
    trained with; deterministic given config and seed."""
    split = load_split(_require(config.split, "config needs a split manifest"))
    trained, m = pipeline.load_run(config, split)
    test_set = _features(split, "test_features", m)
    seen_set = None
    if config.method == "gen" and "gzsl" in modes:  # real seen rows join synthetic ones
        seen_set = _features(split, "train_features", m)
    return pipeline.evaluate(trained, config, test_set, modes, seen_set, micro)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fetch_descriptions(args) -> int:
    split = load_split(args.split)
    cache_dir = args.cache or split.description_dir
    if cache_dir is None:
        raise ConfigError("no cache directory: pass --cache or set it in the split")
    cache = DescriptionCache(cache_dir)
    endpoint = EndpointConfig(args.endpoint_url or None, args.api_key_env, args.model)
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
    config = _apply_overrides(args.config, args)
    ckpt = run_train(config)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _apply_overrides(args.config, args)
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
    config = _apply_overrides(args.config, args)
    if config.method != "gen":
        raise ConfigError("synthesize needs a generative-method config")
    split = load_split(_require(config.split, "config needs a split manifest"))
    trained, _ = pipeline.load_run(config, split)
    per_class = config.synth_per_class if args.per_class is None else args.per_class
    synth = synthesize_set(
        trained.model, trained.fusion, trained.semantics, split, per_class, config.seed
    )
    table = split.class_table
    names = [table[int(c)] for c in synth.labels]
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
    if bool(args.reports) == bool(args.configs):  # neither, or both
        both = ", not both" if args.reports else ""
        raise ConfigError(f"compare needs either --reports or --configs{both}")
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
        configs = [_apply_overrides(path, args) for path in args.configs]
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
    config = _apply_overrides(args.config, args)
    modes = _parse_modes(args.modes)
    # the runs differ only in an alpha from the set, so one check covers all
    config = replace(config, variation="ours", alpha=alphas[0], alpha_set=tuple(alphas))
    _validated(config, args.config, {"alpha": "--alphas", "alpha_set": "--alphas"})
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


def _config_options(p, with_mode=False) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--variation", choices=VARIATIONS, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    if with_mode:
        p.add_argument("--mode", choices=("zsl", "gzsl"), default="gzsl")


def _fetch_descriptions_arguments(p) -> None:
    p.add_argument("--split", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--endpoint-url", default=None)
    p.add_argument("--model", default="gpt-3.5-turbo")
    p.add_argument("--api-key-env", default="CHAT_API_KEY")
    p.set_defaults(func=cmd_fetch_descriptions)


def _build_semantics_arguments(p) -> None:
    p.add_argument("--split", required=True)
    p.add_argument("--word-vectors", required=True)
    p.add_argument("--variation", choices=VARIATIONS, default="ours")
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_semantics)


def _train_arguments(forced: str | None):
    def add(p) -> None:
        _config_options(p)
        if forced is None:
            p.add_argument("--method", choices=("embed", "gen"), default=None)
        # an alias's method overrides the config's like --method does
        p.set_defaults(func=cmd_train, method=forced)

    return add


def _eval_arguments(p) -> None:
    _config_options(p, with_mode=True)
    p.add_argument("--micro", action="store_true", help="per-sample averaging")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)


def _synthesize_arguments(p) -> None:
    _config_options(p)
    p.add_argument("--per-class", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)


def _compare_arguments(p) -> None:
    p.add_argument("--reports", nargs="+", default=None)
    p.add_argument("--configs", nargs="+", default=None)
    p.add_argument("--modes", default="zsl,gzsl")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)


def _sweep_alpha_arguments(p) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", default=",".join(str(a) for a in ALPHA_SWEEP))
    p.add_argument("--modes", default="zsl,gzsl")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep_alpha)


# name -> (help text, adds the subcommand's arguments), in --help order
SUBCOMMANDS = {
    "fetch-descriptions": ("populate the description cache", _fetch_descriptions_arguments),
    "build-semantics": ("embed class names and descriptions", _build_semantics_arguments),
    "train": ("train the configured model", _train_arguments(None)),
    "train-embed": ("train the embed model", _train_arguments("embed")),
    "train-gen": ("train the gen model", _train_arguments("gen")),
    "eval": ("evaluate a trained run", _eval_arguments),
    "synthesize": ("write synthetic unseen-class features", _synthesize_arguments),
    "compare": ("borda-count comparison of variations", _compare_arguments),
    "sweep-alpha": ("train and evaluate over an alpha set", _sweep_alpha_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of every subcommand, or of ``command`` alone,
    which parses its command lines alike: the usage line lists every
    subcommand either way."""
    parser = argparse.ArgumentParser(
        prog="semfuse",
        description="zero-shot classification with fused class semantics",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(SUBCOMMANDS) + "}"
    )
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, no command and an unknown one get every subcommand's arguments
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # closed, stdout leaves the interpreter's last flush nothing to do
        with contextlib.suppress(BrokenPipeError):  # the close fails on the same pipe
            sys.stdout.close()
        return EXIT_BROKEN_PIPE
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except FormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ConfigError, ContractError, OSError) as exc:
        # an OSError is a path that is missing, of the wrong kind or not
        # readable or writable; its message names the path
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
