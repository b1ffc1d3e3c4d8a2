"""Binary instance-difficulty labeling via leave-one-out cross-training.

For each of several consecutive seeds, K fold-held-out models are trained
and each instance is predicted by the one model that never saw it.  An
instance is easy (difficulty 0) only if every seed's model got it right;
a single miss marks it difficult.  Fold assignment is fixed across seeds,
so seeds vary initialization and batch order only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classifier import Architecture, TrainConfig, predict_batch, train_arrays
from .dataset import Dataset, assign_folds
from .errors import ValidationError, boolean, column, column_rows, integer, string_keys
from .jsonio import decoder, read_json, typed, write_json

DEFAULT_NUM_FOLDS = 8
DEFAULT_NUM_SEEDS = 5


@dataclass(frozen=True)
class DifficultyReport:
    """Per-instance difficulty labels plus the per-seed evidence behind them."""

    labels: dict[str, int]
    per_seed_correct: dict[str, list[bool]]
    num_folds: int
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = string_keys(self.labels, "labels key")
        flags, refusal = column(tuple(labels.values()), integer, "labels", 0, 1)
        if refusal is not None:
            raise ValidationError(refusal)
        object.__setattr__(self, "labels", dict(zip(labels, flags)))
        per_seed = string_keys(self.per_seed_correct, "per_seed_correct key")
        rows, refusal = column_rows(per_seed.values(), boolean, "per_seed_correct", "a sequence of booleans")
        if refusal is not None:
            raise ValidationError(refusal)
        object.__setattr__(self, "per_seed_correct", dict(zip(per_seed, map(list, rows))))
        object.__setattr__(self, "num_folds", integer(self.num_folds, "num_folds"))
        object.__setattr__(self, "seeds", tuple(integer(s, "seeds") for s in self.seeds))
        if self.labels.keys() != self.per_seed_correct.keys():
            raise ValidationError("labels and per_seed_correct must cover the same ids")
        for inst_id, outcomes in self.per_seed_correct.items():
            if len(outcomes) != len(self.seeds):
                raise ValidationError(
                    f"instance {inst_id!r} has {len(outcomes)} seed outcomes, "
                    f"expected {len(self.seeds)}"
                )
            expected = 0 if all(outcomes) else 1
            if self.labels[inst_id] != expected:
                raise ValidationError(
                    f"instance {inst_id!r}: label {self.labels[inst_id]} inconsistent "
                    f"with seed outcomes {outcomes}"
                )

    @property
    def num_easy(self) -> int:
        return sum(1 for d in self.labels.values() if d == 0)

    @property
    def num_difficult(self) -> int:
        return sum(1 for d in self.labels.values() if d == 1)


def label_difficulty(
    dataset: Dataset,
    architecture: Architecture,
    base_config: TrainConfig,
    num_folds: int = DEFAULT_NUM_FOLDS,
    num_seeds: int = DEFAULT_NUM_SEEDS,
) -> DifficultyReport:
    """Label every instance easy (0) or difficult (1) for an architecture.

    Trains one model per (seed, fold) on the dataset minus that fold, with
    seeds ``base_config.seed .. base_config.seed + num_seeds - 1``, and
    scores each instance with its held-out models.  Difficulty labeling
    uses the plain task loss, so ``base_config.dar_weight`` must be 0.
    """
    num_seeds = integer(num_seeds, "num_seeds", low=1)
    if base_config.dar_weight != 0:
        raise ValidationError("difficulty labeling requires dar_weight = 0")

    folds = assign_folds(dataset, num_folds, base_config.seed)
    ids = dataset.ids()
    fold = np.array([folds.fold_of[inst_id] for inst_id in ids])
    X, y = dataset.feature_matrix(), dataset.label_array()
    heldout = [np.flatnonzero(fold == k) for k in range(num_folds)]
    train_rows = [np.flatnonzero(fold != k) for k in range(num_folds)]

    seeds = tuple(base_config.seed + s for s in range(num_seeds))
    correct = np.zeros((len(dataset), num_seeds), dtype=bool)
    for seed_index, seed in enumerate(seeds):
        # The fold models of one seed train in lockstep.
        trained = train_arrays(
            X, y, train_rows, dataset.num_classes, architecture, replace(base_config, seed=seed)
        )
        for (model, _), rows in zip(trained, heldout):
            correct[rows, seed_index] = predict_batch(model, X[rows]).argmax(axis=1) == y[rows]
    per_seed_correct = dict(zip(ids, correct.tolist()))

    labels = {
        inst_id: 0 if all(outcomes) else 1
        for inst_id, outcomes in per_seed_correct.items()
    }
    return DifficultyReport(labels, per_seed_correct, num_folds, seeds)


def report_to_dict(report: DifficultyReport) -> dict:
    """The report as a JSON document, in containers of its own (``dataclasses.asdict``
    would also copy every id and flag, one by one)."""
    per_seed = report.per_seed_correct
    return {
        "labels": dict(report.labels),
        "per_seed_correct": {inst_id: list(outcomes) for inst_id, outcomes in per_seed.items()},
        "num_folds": report.num_folds,
        "seeds": report.seeds,
    }


@decoder("difficulty report")
def report_from_dict(payload: dict) -> DifficultyReport:
    return typed(payload, DifficultyReport, "")


def save_report(report: DifficultyReport, path) -> None:
    write_json(path, report_to_dict(report))


def load_report(path) -> DifficultyReport:
    return read_json(path, report_from_dict)
