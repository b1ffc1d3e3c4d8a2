#!/usr/bin/env python3
"""Does adding a mid-sized model to a 2-stage cascade pay off?  Ask both ways.

Trains small (linear, cost 2), middle (linear, cost 6), and big (mlp,
cost 12) models on the tiered task, calibrates the 2-stage and 3-stage
cascades to the same target speed-up, and compares the measured accuracy
difference against the closed-form prediction computed from the 3-stage
exit histogram and standalone accuracies.  Also prints the two upper
bounds that can rule an insertion out before training the middle model.
"""

import argparse

import numpy as np

from cascadekit import (
    Architecture,
    Cascade,
    GainScenario,
    StageSpec,
    TrainConfig,
    ValidationError,
    calibrate_threshold,
    empirical_gain,
    gain_upper_bound,
    max_gain_bound,
    predict_batch,
    predict_gain,
    run_cascade,
    solve_original_exits,
    tiered_task,
    train,
)


def standalone_accuracy(model, dataset):
    preds = predict_batch(model, dataset.feature_matrix()).argmax(axis=1)
    return float((preds == dataset.label_array()).mean())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument("--size", type=int, default=1500)
    parser.add_argument("--target", type=float, default=2.0)
    args = parser.parse_args()

    agreements = skipped = 0
    header = f"{'seed':>4} {'predicted':>10} {'measured':>10} {'tight_bound':>12} {'loose_bound':>12}"
    print(header)
    for seed in range(args.num_seeds):
        train_ds = tiered_task(args.size, seed=seed * 100 + 3)
        eval_ds = tiered_task(args.size, seed=seed * 100 + 11)
        small = train(
            train_ds, Architecture("linear"), TrainConfig(epochs=10, learning_rate=0.2, seed=seed)
        )
        middle = train(
            train_ds,
            Architecture("linear"),
            TrainConfig(epochs=10, learning_rate=0.2, seed=seed + 50),
        )
        big = train(
            train_ds,
            Architecture("mlp", hidden_size=8),
            TrainConfig(epochs=30, learning_rate=0.1, seed=seed),
        )
        without = Cascade((StageSpec(small, 2), StageSpec(big, 12)), (1.0,), 12)
        with_extra = Cascade(
            (StageSpec(small, 2), StageSpec(middle, 6), StageSpec(big, 12)), (1.0, 1.0), 12
        )
        try:
            without = Cascade(without.stages, calibrate_threshold(without, eval_ds, args.target), 12)
            with_extra = Cascade(
                with_extra.stages, calibrate_threshold(with_extra, eval_ds, args.target), 12
            )
            measured = empirical_gain(without, with_extra, eval_ds)
        except ValidationError as exc:
            print(f"{seed:>4} skipped: {exc}")
            skipped += 1
            continue

        hist = np.bincount(run_cascade(with_extra, eval_ds).exit_stage, minlength=3).tolist()
        scenario = GainScenario(
            layer_counts=(2, 12),
            accuracies=(standalone_accuracy(small, eval_ds), standalone_accuracy(big, eval_ds)),
            insert_after=0,
            new_layers=6,
            new_accuracy=standalone_accuracy(middle, eval_ds),
            new_exits=(hist[0], hist[2]),
            new_model_exits=hist[1],
        )
        predicted = predict_gain(scenario)
        tight = gain_upper_bound(scenario)
        loose = max_gain_bound(
            scenario.layer_counts, scenario.accuracies, solve_original_exits(scenario).exits
        )
        agreements += (predicted > 0) == (measured > 0)
        print(f"{seed:>4} {predicted:>+10.4f} {measured:>+10.4f} {tight:>+12.4f} {loose:>+12.4f}")

    judged = args.num_seeds - skipped
    print(f"sign agreement: {agreements}/{judged} seeds ({skipped} skipped)")


if __name__ == "__main__":
    main()
