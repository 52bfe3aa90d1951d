"""Inputs and command sequences of the benchmark workloads.

Every input is generated from the workload seed and reaches semfuse
only as files: feature files from the ``semfuse.datasets`` writers,
bundle files from ``semfuse build-semantics`` and the demo set from
``scripts/make_demo_data.py``. Inputs are written by a child process,

    python3 perfbench/bench_workloads.py <workload> <seed> <work dir>

so the memory that generating them takes never counts towards the
measuring process's peak. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Command:
    """One CLI invocation. ``kind`` is "train" or "eval" (compare counts
    as eval); ``outputs`` are checked by sha256, relative to the work
    directory; ``before`` runs untimed ahead of the command."""

    kind: str
    argv: list[str]
    outputs: list[str]
    before: Callable[[], None] | None = None


@dataclass
class Workload:
    config: Path  # run config whose inputs the set-up time loads
    commands: list[Command]
    # run once after the last pass: checked, not timed
    checks: list[Command] = field(default_factory=list)


def _write_config(path: Path, **values) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def _base(config: Path, work: Path, out: str, extra) -> list[str]:
    return ["--config", str(config), "--out-dir", str(work / out), *extra]


def _pipeline(config: Path, work: Path, out: str, extra=(), fused=False) -> list[Command]:
    """train, then eval --mode zsl and --mode gzsl, into ``work/out``.
    A fused variation also writes its fused semantics."""
    base = _base(config, work, out, extra)
    trained = ["train_log.csv", "model.ckpt"] + ["fused_semantics.csv"] * fused
    return [
        Command("train", ["train", *base], [f"{out}/{name}" for name in trained]),
        *(
            Command("eval", ["eval", *base, "--mode", mode], [f"{out}/report_{mode}.csv"])
            for mode in ("zsl", "gzsl")
        ),
    ]


def _synthesize(config: Path, work: Path, out: str, extra=()) -> Command:
    """The generator's unseen-class features at full precision, which
    the generative eval path trains its classifier on."""
    return Command(
        "eval",
        ["synthesize", *_base(config, work, out, extra), "--out", str(work / out / "synth.csv")],
        [f"{out}/synth.csv"],
    )


# ---------------------------------------------------------------------------
# synthetic world for the real-width workloads


def _number_pool(rng, size: int = 1 << 16) -> list[str]:
    """Preformatted normal draws; filler rows index into it so writing a
    large word-vector file costs no per-value formatting."""
    return [f"{v:.6f}" for v in rng.normal(size=size)]


@dataclass
class _World:
    """Class latents with word vectors, descriptions and features that
    are noisy views of them, so the pipelines have signal to learn."""

    seen: list[str]
    unseen: list[str]
    latents: np.ndarray  # (classes, d)
    mixing: np.ndarray  # (m, d)
    words: dict[str, np.ndarray]  # every token a class name or description uses
    descriptions: dict[str, str]


def _world(rng, seen: int, unseen: int, d: int, m: int, own_words: int = 20) -> _World:
    names = [f"obj{i}" for i in range(seen + unseen)]
    latents = rng.normal(size=(len(names), d))
    common = [f"common{i}" for i in range(12)]
    words = {w: rng.normal(size=d) for w in common}
    descriptions = {}
    for c, name in enumerate(names):
        words[name] = latents[c] + 0.3 * rng.normal(size=d)
        own = [f"w{c}x{j}" for j in range(own_words)]
        for w in own:
            words[w] = latents[c] + 0.3 * rng.normal(size=d)
        text = rng.choice(own + common, size=36)
        descriptions[name] = f"A {name} is " + " ".join(text) + "."
    return _World(
        names[:seen],
        names[seen:],
        latents,
        rng.normal(size=(m, d)) / np.sqrt(d),
        words,
        descriptions,
    )


def _write_word_vectors(path: Path, rng, world: _World, filler: int) -> None:
    """The world's tokens scattered among ``filler`` unrelated tokens."""
    d = world.latents.shape[1]
    used = list(world.words)
    slots = np.sort(rng.choice(filler + len(used), size=len(used), replace=False))
    pool = _number_pool(rng)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{filler + len(used)} {d}\n")
        k = next_filler = 0
        for start in range(0, filler + len(used), 4096):
            stop = min(start + 4096, filler + len(used))
            picks = rng.integers(0, len(pool), size=(stop - start, d)).tolist()
            lines = []
            for row, line in zip(range(start, stop), picks):
                if k < len(used) and slots[k] == row:
                    vec = " ".join(f"{v:.6f}" for v in world.words[used[k]])
                    lines.append(f"{used[k]} {vec}\n")
                    k += 1
                else:
                    lines.append(f"filler{next_filler} " + " ".join(pool[i] for i in line) + "\n")
                    next_filler += 1
            handle.writelines(lines)


def _write_features(path: Path, rng, world: _World, counts: dict[str, int], writer):
    names, rows = [], []
    index = {name: c for c, name in enumerate(world.seen + world.unseen)}
    for name, n in counts.items():
        z = world.latents[index[name]] @ world.mixing.T
        rows.append(z + 0.1 * rng.normal(size=(n, z.size)))
        names += [name] * n
    writer(path, names, np.vstack(rows))


def _write_world(work: Path, rng, world: _World, writer, train_per: int, test_seen: int,
                 test_unseen: int, suffix: str) -> Path:
    """Descriptions, features and a split manifest; returns the manifest."""
    from semfuse.llm_client import DescriptionCache

    cache = DescriptionCache(work / "descriptions")
    for name, text in world.descriptions.items():
        cache.put(name, text)
    _write_features(work / f"train.{suffix}", rng, world,
                    {c: train_per for c in world.seen}, writer)
    _write_features(work / f"test.{suffix}", rng, world,
                    {**{c: test_seen for c in world.seen},
                     **{c: test_unseen for c in world.unseen}}, writer)
    split = work / "split.cfg"
    _write_config(
        split,
        dataset="bench",
        seen=", ".join(world.seen),
        unseen=", ".join(world.unseen),
        train_features=f"train.{suffix}",
        test_features=f"test.{suffix}",
        descriptions="descriptions",
    )
    return split


# ---------------------------------------------------------------------------
# workloads: each writes its inputs (in the child process) and plans its
# commands over them (in the measuring process)


def embed_ingest_inputs(work: Path, seed: int, root: Path) -> None:
    """Embedding family, fused variation, real-width text inputs."""
    from semfuse.datasets import write_features_csv

    rng = np.random.default_rng(seed)
    world = _world(rng, seen=10, unseen=5, d=300, m=2048)
    split = _write_world(work, rng, world, write_features_csv, 20, 5, 10, "csv")
    _write_word_vectors(work / "word_vectors.txt", rng, world, filler=5_000)
    _write_config(
        work / "run.cfg",
        split=split.name,
        word_vectors="word_vectors.txt",
        variation="ours",
        method="embed",
        q=128,
        lr=0.01,
        epochs=5,
        lam=0.0001,
        batch_size=64,
        seed=seed,
    )


def embed_ingest(work: Path) -> Workload:
    config = work / "run.cfg"
    return Workload(config, _pipeline(config, work, "runs", fused=True))


def gen_wide_inputs(work: Path, seed: int, root: Path) -> None:
    """Generative family, fused variation, wide arrays, prebuilt bundles
    and binary features."""
    from semfuse import cli
    from semfuse.datasets import write_features_binary

    rng = np.random.default_rng(seed)
    world = _world(rng, seen=4, unseen=3, d=300, m=384)
    split = _write_world(work, rng, world, write_features_binary, 16, 8, 16, "bin")
    _write_word_vectors(work / "word_vectors.txt", rng, world, filler=0)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "build-semantics", "--split", str(split), "--word-vectors",
            str(work / "word_vectors.txt"), "--variation", "ours", "--out",
            str(work / "bundles.csv"),
        ])
    if code != 0:
        raise RuntimeError(f"build-semantics exited {code}")
    _write_config(
        work / "run.cfg",
        split=split.name,
        bundles="bundles.csv",
        variation="ours",
        method="gen",
        lr=0.0001,
        # 64 seen rows at batch 64: one GAN cycle per epoch, enough that
        # the cycles, not the checkpoint save, hold most of train_s
        epochs=16,
        batch_size=64,
        hidden_mult=1,
        noise_dim=16,
        synth_per_class=200,
        classifier_epochs=50,
        seed=seed,
    )


def gen_wide(work: Path) -> Workload:
    config = work / "run.cfg"
    return Workload(
        config, _pipeline(config, work, "runs", fused=True), [_synthesize(config, work, "runs")]
    )


def suite_small_inputs(work: Path, seed: int, root: Path) -> None:
    """The demo set plus one run config per family."""
    demo = work / "demo"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_demo_data.py"),
         "--out-dir", str(demo), "--seed", str(seed)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    common = dict(split="split.cfg", word_vectors="word_vectors.txt", seed=seed)
    _write_config(demo / "embed.cfg", **common, method="embed", lr=0.01, epochs=60, lam=0.0001)
    _write_config(
        demo / "gen.cfg", **common, method="gen", lr=0.0002, epochs=8, noise_dim=8,
        cls_weight=0.1, synth_per_class=100, classifier_epochs=40,
    )


def _merge_reports(run_dirs: list[Path]) -> Callable[[], None]:
    """Join each run's zsl and gzsl reports into the one file per
    variation that ``compare --reports`` expects."""

    def merge():
        for run in run_dirs:
            rows = []
            for mode in ("zsl", "gzsl"):
                with (run / f"report_{mode}.csv").open(newline="", encoding="utf-8") as f:
                    body = list(csv.reader(f))
                rows = rows or body[:1]
                rows += body[1:]
            with (run / "combined.csv").open("w", newline="", encoding="utf-8") as f:
                csv.writer(f).writerows(rows)

    return merge


def suite_small(work: Path) -> Workload:
    """Both families x all three variations on the demo set, then the
    two Borda blocks."""
    from semfuse.fusion import VARIATIONS

    demo = work / "demo"
    commands, checks = [], []
    for family in ("embed", "gen"):
        config = demo / f"{family}.cfg"
        outs = [f"runs/{family}/{variation}" for variation in VARIATIONS]
        for out, variation in zip(outs, VARIATIONS):
            extra = ["--variation", variation]
            commands += _pipeline(config, work, out, extra, fused=variation == "ours")
            if family == "gen":
                checks.append(_synthesize(config, work, out, extra))
        block = f"runs/{family}_block.csv"
        reports = [str(work / out / "combined.csv") for out in outs]
        commands.append(Command(
            "eval", ["compare", "--reports", *reports, "--out", str(work / block)],
            [block], _merge_reports([work / out for out in outs]),
        ))
    return Workload(demo / "embed.cfg", commands, checks)


# name -> (writes the inputs, plans the commands)
WORKLOADS = {
    "embed-ingest": (embed_ingest_inputs, embed_ingest),
    "gen-wide": (gen_wide_inputs, gen_wide),
    "suite-small": (suite_small_inputs, suite_small),
}


def generate(name: str, work: Path, seed: int, root: Path) -> None:
    """Write a workload's inputs into ``work`` from a child process."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), name, str(seed), str(work)],
        check=True, env=env,
    )


if __name__ == "__main__":
    _name, _seed, _work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[_name][0](_work, _seed, Path(__file__).resolve().parent.parent)
