#!/usr/bin/env python3
"""Sweep the difficulty-aware regularization weight and report its effect.

For each weight, trains a stage-0 linear model on the planted-hard task
across several seeds and scores held-out accuracy, difficulty inversion
score, and expected calibration error.  The planted difficulty flags are
the ground truth for DIS.  The interesting readout is whether nonzero
weights push difficult-instance confidence below easy-instance confidence
(DIS up) without giving up accuracy.
"""

import argparse

import numpy as np

from cascadekit import (
    Architecture,
    ScoredTable,
    TrainConfig,
    accuracy,
    dis,
    ece,
    planted_hard_task,
    predict_batch,
    train,
)


def score_model(model, dataset):
    probs = predict_batch(model, dataset.feature_matrix())
    scored = ScoredTable(
        probs.max(axis=1), probs.argmax(axis=1), dataset.label_array(), dataset.difficulty_array()
    )
    return accuracy(scored), dis(scored), ece(scored)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weights", type=float, nargs="+", default=[0.0, 0.25, 0.5, 1.0])
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument("--train-size", type=int, default=800)
    parser.add_argument("--eval-size", type=int, default=2000)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--learning-rate", type=float, default=0.2)
    parser.add_argument("--margin", type=float, default=0.2)
    args = parser.parse_args()

    results = {w: [] for w in args.weights}
    for seed in range(args.num_seeds):
        train_ds = planted_hard_task(args.train_size, seed=seed * 100)
        eval_ds = planted_hard_task(args.eval_size, seed=seed * 100 + 7)
        for weight in args.weights:
            config = TrainConfig(
                epochs=args.epochs,
                learning_rate=args.learning_rate,
                dar_weight=weight,
                margin=args.margin,
                seed=seed,
            )
            model = train(train_ds, Architecture("linear"), config)
            results[weight].append(score_model(model, eval_ds))

    print(f"{args.num_seeds} seeds, train n={args.train_size}, eval n={args.eval_size}")
    print(f"{'weight':>8} {'accuracy':>18} {'dis':>18} {'ece':>18}")
    baseline = np.array(results[args.weights[0]])
    for weight in args.weights:
        table = np.array(results[weight])
        cells = [
            f"{table[:, j].mean():.4f} +/- {table[:, j].std():.4f}" for j in range(3)
        ]
        print(f"{weight:>8.2f} {cells[0]:>18} {cells[1]:>18} {cells[2]:>18}")
    for weight in args.weights[1:]:
        table = np.array(results[weight])
        wins = int((table[:, 1] > baseline[:, 1]).sum())
        drop = float((baseline[:, 0] - table[:, 0]).max())
        print(
            f"weight {weight:g} vs {args.weights[0]:g}: dis up in {wins}/{args.num_seeds} "
            f"seeds, worst accuracy drop {drop:.4f}"
        )


if __name__ == "__main__":
    main()
