#!/usr/bin/env python3
"""Synthetic benchmark: three semantic variations, both model families.

Trains the embedding and generative pipelines on a seeded synthetic
dataset for each variation (only-class-name, only-chatgpt, ours),
evaluates ZSL and GZSL, and prints one comparison block per family with
its Borda-count column. Reports land as CSV in --out-dir.
"""

import argparse
from pathlib import Path

from semfuse.datasets import SynthConfig, split_for_eval, synth_dataset
from semfuse.embed_zsl import EmbedPredictor, EmbedTrainConfig, train_embed
from semfuse.evaluation import (
    borda_count,
    evaluate_run,
    format_report_table,
    write_report_csv,
)
from semfuse.fusion import VARIATIONS
from semfuse.gen_zsl import (
    ClassifierTrainConfig,
    GanTrainer,
    GenPredictor,
    GenTrainConfig,
    pretrain_classifier,
    synthesize_set,
    train_final_classifier,
)


def merge(zsl, gzsl):
    zsl.acc_s, zsl.acc_u, zsl.hm = gzsl.acc_s, gzsl.acc_u, gzsl.hm
    zsl.mode = "combined"
    return zsl


def run_embed(variation, data, bundles, args):
    train, test = split_for_eval(data, seed=args.seed)
    cfg = EmbedTrainConfig(
        lr=0.005,
        epochs=args.epochs,
        lam=1e-4,
        alpha=args.alpha,
        seed=args.seed,
        variation=variation,
    )
    run = train_embed(train, bundles, cfg)
    predictor = EmbedPredictor(run.model, run.fusion)
    return merge(
        evaluate_run(predictor, test, bundles, "zsl"),
        evaluate_run(predictor, test, bundles, "gzsl"),
    )


def run_gen(variation, data, bundles, args):
    train, test = split_for_eval(data, seed=args.seed)
    clf_cfg = ClassifierTrainConfig(lr=0.05, epochs=100, seed=args.seed)
    frozen = pretrain_classifier(train, clf_cfg)
    trainer = GanTrainer(
        train,
        bundles,
        frozen,
        GenTrainConfig(
            noise_dim=8,
            eta=10.0,
            cls_weight=0.1,
            n_critic=5,
            lr=2e-4,
            steps=args.gan_steps,
            seed=args.seed,
            alpha=args.alpha,
            variation=variation,
        ),
    )
    trainer.train()
    synth = synthesize_set(
        trainer.gen,
        trainer.fusion,
        bundles,
        data.unseen_ids,
        args.synth_per_class,
        args.seed,
        data.class_table,
    )
    gzsl_clf = train_final_classifier(train, synth, clf_cfg)
    zsl_clf = train_final_classifier(None, synth, clf_cfg)
    return merge(
        evaluate_run(GenPredictor(zsl_clf, variation), test, bundles, "zsl"),
        evaluate_run(GenPredictor(gzsl_clf, variation), test, bundles, "gzsl"),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=400, help="embedding-family epochs")
    parser.add_argument("--gan-steps", type=int, default=300)
    parser.add_argument("--synth-per-class", type=int, default=200)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--sigma-c", type=float, default=1.0, help="class-name noise")
    parser.add_argument("--sigma-p", type=float, default=0.05, help="description noise")
    parser.add_argument("--out-dir", default="runs/synthetic")
    args = parser.parse_args()

    data, bundles = synth_dataset(
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

    for family, runner in (("embed", run_embed), ("gen", run_gen)):
        blocks = [runner(variation, data, bundles, args) for variation in VARIATIONS]
        points = borda_count(blocks)
        for block in blocks:
            block.borda = points[block.variation]
        print(f"\n=== {family} family (seed {args.seed}) ===")
        print(format_report_table(blocks))
        write_report_csv(out_dir / f"{family}_comparison.csv", blocks)
    print(f"\nreports written under {out_dir}")


if __name__ == "__main__":
    main()
