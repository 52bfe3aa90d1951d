#!/usr/bin/env python3
"""Synthetic benchmark: three semantic variations, both model families.

Trains the embedding and generative pipelines on a seeded synthetic
dataset for each variation (only-class-name, only-chatgpt, ours),
evaluates ZSL and GZSL, and prints one comparison block per family with
its Borda-count column. Reports land as CSV in --out-dir.
"""

import argparse
from pathlib import Path

from semfuse import pipeline
from semfuse.datasets import SynthConfig, split_for_eval, synth_dataset
from semfuse.evaluation import (
    borda_count,
    format_report_table,
    merge_modes,
    write_report_csv,
)
from semfuse.fusion import VARIATIONS

# the frozen hyperparameters of each family, beyond seed, alpha and variation
FAMILIES = {
    "embed": dict(lr=0.005, lam=1e-4),
    "gen": dict(noise_dim=8, cls_weight=0.1, lr=2e-4),
}


def run_variation(family, variation, data, semantics, args):
    train, test = split_for_eval(data, seed=args.seed)
    cfg = pipeline.RunConfig(
        method=family,
        variation=variation,
        alpha=args.alpha,
        alpha_set=(args.alpha,),
        epochs=args.epochs if family == "embed" else args.gan_epochs,
        synth_per_class=args.synth_per_class,
        seed=args.seed,
        **FAMILIES[family],
    )
    trained = pipeline.train(cfg, train, semantics)
    return merge_modes(
        pipeline.evaluate(trained, cfg, test, semantics, ("zsl", "gzsl"), seen_set=train)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=400, help="embedding-family epochs")
    parser.add_argument(
        "--gan-epochs", type=int, default=100, help="generative-family epochs"
    )
    parser.add_argument("--synth-per-class", type=int, default=200)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--sigma-c", type=float, default=1.0, help="class-name noise")
    parser.add_argument("--sigma-p", type=float, default=0.05, help="description noise")
    parser.add_argument("--out-dir", default="runs/synthetic")
    args = parser.parse_args(argv)

    data, semantics = synth_dataset(
        SynthConfig(
            seen=7,
            unseen=3,
            m=32,
            d=16,
            per_class=40,
            sigma_c=args.sigma_c,
            sigma_p=args.sigma_p,
            sigma_z=0.05,
            latent_rank=6,
            seed=args.seed,
        )
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for family in FAMILIES:
        blocks = [
            run_variation(family, variation, data, semantics, args) for variation in VARIATIONS
        ]
        points = borda_count(blocks)
        for block in blocks:
            block.borda = points[block.variation]
        print(f"\n=== {family} family (seed {args.seed}) ===")
        print(format_report_table(blocks))
        write_report_csv(out_dir / f"{family}_comparison.csv", blocks)
    print(f"\nreports written under {out_dir}")


if __name__ == "__main__":
    main()
