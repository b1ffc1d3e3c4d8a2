import re
import reprlib
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit import (
    Architecture,
    Dataset,
    DifficultyReport,
    Instance,
    TrainConfig,
    ValidationError,
    assign_folds,
    label_difficulty,
    load_report,
    predict_batch,
    save_report,
    train,
)
from cascadekit.classifier import train_arrays
from cascadekit.difficulty import report_from_dict, report_to_dict
from cascadekit.errors import boolean, integer, string_keys


def blob_dataset_with_flip(n=24, seed=42):
    """Two tight blobs, plus one instance sitting in the wrong blob."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        side = i % 2
        x = rng.normal(loc=(2.0 if side else -2.0), scale=0.3)
        instances.append(Instance(f"i{i}", np.array([x, rng.normal(scale=0.3)]), side))
    instances.append(Instance("flip", np.array([2.0, 0.0]), 0))
    return Dataset(tuple(instances), num_classes=2, feature_dim=2)


FAST = TrainConfig(epochs=8, learning_rate=0.5, seed=0)


# --- report validation -------------------------------------------------------


def test_report_enforces_all_seeds_rule():
    DifficultyReport(
        labels={"a": 0, "b": 1},
        per_seed_correct={"a": [True, True], "b": [True, False]},
        num_folds=2,
        seeds=(0, 1),
    )
    with pytest.raises(ValidationError, match="inconsistent"):
        DifficultyReport(
            labels={"a": 0},
            per_seed_correct={"a": [True, False]},
            num_folds=2,
            seeds=(0, 1),
        )
    with pytest.raises(ValidationError, match="inconsistent"):
        DifficultyReport(
            labels={"a": 1},
            per_seed_correct={"a": [True, True]},
            num_folds=2,
            seeds=(0, 1),
        )


def test_report_rejects_id_mismatch():
    with pytest.raises(ValidationError, match="same ids"):
        DifficultyReport(
            labels={"a": 0},
            per_seed_correct={"b": [True]},
            num_folds=2,
            seeds=(0,),
        )


def test_report_rejects_wrong_outcome_count():
    with pytest.raises(ValidationError, match="seed outcomes"):
        DifficultyReport(
            labels={"a": 0},
            per_seed_correct={"a": [True, True]},
            num_folds=2,
            seeds=(0,),
        )


def test_report_counts():
    report = DifficultyReport(
        labels={"a": 0, "b": 1, "c": 1},
        per_seed_correct={"a": [True], "b": [False], "c": [False]},
        num_folds=2,
        seeds=(0,),
    )
    assert report.num_easy == 1
    assert report.num_difficult == 2



def oracle_report_fields(labels, per_seed_correct, seeds):
    """The per-value checks the report ran before its outcomes were read as
    one column, with a row that is not a sequence refused by name."""
    labels = {k: integer(d, "labels", 0, 1) for k, d in string_keys(labels, "labels key").items()}
    per_seed = {}
    for inst_id, outcomes in string_keys(per_seed_correct, "per_seed_correct key").items():
        try:
            outcomes = tuple(outcomes)
        except TypeError:
            raise ValidationError(
                f"per_seed_correct must be a sequence of booleans, got {reprlib.repr(outcomes)}"
            ) from None
        per_seed[inst_id] = [boolean(outcome, "per_seed_correct") for outcome in outcomes]
    if labels.keys() != per_seed.keys():
        raise ValidationError("labels and per_seed_correct must cover the same ids")
    for inst_id, outcomes in per_seed.items():
        if len(outcomes) != len(seeds):
            raise ValidationError(
                f"instance {inst_id!r} has {len(outcomes)} seed outcomes, expected {len(seeds)}"
            )
        if labels[inst_id] != (0 if all(outcomes) else 1):
            raise ValidationError(
                f"instance {inst_id!r}: label {labels[inst_id]} inconsistent with seed outcomes {outcomes}"
            )
    return labels, per_seed


ODD_FLAGS = [True, False, 2, -1, 1.0, "1", None, 2**70, np.int64(1), np.int8(0), np.uint64(1)]
ODD_OUTCOMES = [0, 1, 1.0, "x", None, np.bool_(False), np.bool_(True), np.int64(1)]
NOT_SEQUENCES = [5, None, 2.5, True, np.array(1)]


@st.composite
def report_fields(draw):
    """A report's labels and outcomes, derived from drawn outcomes; in a
    faulty draw, any value may be swapped for one of another type, a row
    for one that is not a sequence, and an id for one of another type."""
    faulty = draw(st.booleans())
    seeds = tuple(range(draw(st.integers(1, 3))))
    ids = draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=6))
    outcomes = {k: draw(st.lists(st.booleans(), min_size=len(seeds), max_size=len(seeds))) for k in ids}
    labels = {k: 0 if all(row) else 1 for k, row in outcomes.items()}
    container = draw(st.sampled_from([list, tuple, np.array]))
    per_seed = {k: container(row) for k, row in outcomes.items()}
    if faulty and ids:
        k = draw(st.sampled_from(ids))
        fault = draw(st.sampled_from(["flag", "outcome", "row", "key", "length"]))
        if fault == "flag":
            labels[k] = draw(st.sampled_from(ODD_FLAGS))
        elif fault == "outcome":
            row = list(outcomes[k])
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_OUTCOMES))
            per_seed[k] = row
        elif fault == "row":
            per_seed[k] = draw(st.sampled_from(NOT_SEQUENCES))
        elif fault == "key":
            target = draw(st.sampled_from([labels, per_seed]))
            target[7] = target.pop(k)
        else:
            per_seed[k] = list(outcomes[k]) + [True]
    return labels, per_seed, seeds


@settings(max_examples=400, deadline=None)
@given(fields=report_fields())
def test_report_reads_as_the_per_value_checks_do(fields):
    labels, per_seed, seeds = fields
    try:
        want = oracle_report_fields(labels, per_seed, seeds)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            DifficultyReport(labels, per_seed, 2, seeds)
        return
    report = DifficultyReport(labels, per_seed, 2, seeds)
    assert (report.labels, report.per_seed_correct) == want
    assert [type(d) for d in report.labels.values()] == [int] * len(want[0])
    for row in report.per_seed_correct.values():
        assert type(row) is list and {type(v) for v in row} <= {bool}

# --- labeling ----------------------------------------------------------------


def test_label_flip_outlier_marked_difficult():
    ds = blob_dataset_with_flip()
    report = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=2)
    assert report.labels["flip"] == 1
    # the clean blob points are all predicted correctly by held-out models
    assert report.num_difficult == 1
    assert set(report.labels) == set(ds.ids())
    assert report.seeds == (0, 1)


def test_labels_follow_per_seed_evidence():
    ds = blob_dataset_with_flip()
    report = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=3)
    for inst_id, outcomes in report.per_seed_correct.items():
        assert len(outcomes) == 3
        assert report.labels[inst_id] == (0 if all(outcomes) else 1)


def test_labeling_is_deterministic():
    ds = blob_dataset_with_flip()
    a = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=2)
    b = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=2)
    assert a == b


def test_more_seeds_never_relabel_difficult_as_easy():
    # seeds are consecutive from the base, so the 1-seed evidence is a
    # prefix of the 3-seed evidence: difficult can only grow
    ds = blob_dataset_with_flip(seed=7)
    one = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=1)
    three = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=3)
    difficult_one = {k for k, v in one.labels.items() if v == 1}
    difficult_three = {k for k, v in three.labels.items() if v == 1}
    assert difficult_one <= difficult_three
    for inst_id in one.labels:
        assert three.per_seed_correct[inst_id][0] == one.per_seed_correct[inst_id][0]


def test_labeling_rejects_regularized_config():
    ds = blob_dataset_with_flip()
    bad = TrainConfig(epochs=2, dar_weight=0.5, seed=0)
    with pytest.raises(ValidationError, match="dar_weight"):
        label_difficulty(ds, Architecture("linear"), bad, num_folds=3)


def test_labeling_rejects_bad_counts():
    ds = blob_dataset_with_flip()
    with pytest.raises(ValidationError):
        label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=0)
    with pytest.raises(ValidationError):
        label_difficulty(ds, Architecture("linear"), FAST, num_folds=1)


def test_apply_difficulty_attaches_labels():
    ds = blob_dataset_with_flip()
    report = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=1)
    labeled = ds.with_difficulty(report.labels)
    assert labeled.ids() == ds.ids()
    arr = labeled.difficulty_array()
    assert arr.sum() == report.num_difficult


# --- lockstep fold training against the per-fold loop it replaced -------------


def oracle_label_difficulty(dataset, architecture, base_config, num_folds, num_seeds):
    """One train(dataset.subset(...)) per (seed, fold), as labeling used to run;
    returns the report and the fold models, seed-major."""
    folds = assign_folds(dataset, num_folds, base_config.seed)
    fold_indices = {k: [] for k in range(num_folds)}
    for idx, inst in enumerate(dataset.instances):
        fold_indices[folds.fold_of[inst.id]].append(idx)
    seeds = tuple(base_config.seed + s for s in range(num_seeds))
    per_seed_correct = {inst.id: [False] * num_seeds for inst in dataset.instances}
    models = []
    for seed_index, seed in enumerate(seeds):
        for heldout in fold_indices.values():
            heldout_set = set(heldout)
            train_ds = dataset.subset([i for i in range(len(dataset)) if i not in heldout_set])
            model = train(train_ds, architecture, replace(base_config, seed=seed))
            models.append(model)
            X = np.stack([dataset.instances[i].features for i in heldout])
            y = np.array([dataset.instances[i].label for i in heldout])
            correct = predict_batch(model, X).argmax(axis=1) == y
            for idx, ok in zip(heldout, correct):
                per_seed_correct[dataset.instances[idx].id][seed_index] = bool(ok)
    labels = {k: 0 if all(v) else 1 for k, v in per_seed_correct.items()}
    return DifficultyReport(labels, per_seed_correct, num_folds, seeds), models


@st.composite
def labeling_runs(draw):
    num_folds = draw(st.integers(2, 5))
    n = draw(st.integers(num_folds, 30))
    dim = draw(st.integers(1, 4))
    num_classes = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["linear", "mlp"]))
    arch = Architecture(kind, draw(st.integers(1, 4)) if kind == "mlp" else None)
    # Fold train sizes differ by up to one per class, so batch sizes around
    # them put ragged batches at different steps in different folds, and
    # sizes above n put a fold's whole training set in one short batch.
    config = TrainConfig(
        epochs=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([None, 0.5, 2.0])),
        batch_size=draw(st.integers(1, n + 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(scale=2.0, size=(n, dim))
    instances = tuple(
        Instance(f"i{k}", X[k], int(rng.integers(0, num_classes))) for k in range(n)
    )
    num_seeds = draw(st.integers(1, 3))
    return Dataset(instances, num_classes, dim), arch, config, num_folds, num_seeds


@settings(max_examples=150, deadline=None)
@given(labeling_runs())
def test_lockstep_labeling_matches_per_fold_oracle(run):
    dataset, arch, config, num_folds, num_seeds = run
    old_report, old_models = oracle_label_difficulty(dataset, arch, config, num_folds, num_seeds)
    assert label_difficulty(dataset, arch, config, num_folds, num_seeds) == old_report

    folds = assign_folds(dataset, num_folds, config.seed)
    fold = np.array([folds.fold_of[inst.id] for inst in dataset.instances])
    rows = [np.flatnonzero(fold != k) for k in range(num_folds)]
    models = []
    for s in range(num_seeds):
        trained = train_arrays(
            dataset.feature_matrix(),
            dataset.label_array(),
            rows,
            dataset.num_classes,
            arch,
            replace(config, seed=config.seed + s),
        )
        models += [model for model, _ in trained]
    assert len(models) == len(old_models)
    for model, old in zip(models, old_models):
        for name in old.weights:
            assert np.array_equal(model.weights[name], old.weights[name]), name


def test_lockstep_trainer_rejects_bad_inputs():
    ds = blob_dataset_with_flip()
    X, y, linear = ds.feature_matrix(), ds.label_array(), Architecture("linear")
    dar = TrainConfig(epochs=1, dar_weight=0.5)
    difficulty = np.zeros(len(ds), dtype=np.int64)
    # The regularizer trains one model at a time, and needs difficulty flags.
    with pytest.raises(ValidationError, match="dar_weight"):
        train_arrays(X, y, [np.arange(10), np.arange(10, 20)], 2, linear, dar, difficulty)
    with pytest.raises(ValidationError, match="dar_weight"):
        train_arrays(X, y, [np.arange(10)], 2, linear, dar)
    with pytest.raises(ValidationError, match="empty"):
        train_arrays(X, y, [np.arange(3), np.arange(0)], 2, linear, FAST)
    with pytest.raises(ValidationError, match="empty"):
        train_arrays(X, y, [], 2, linear, FAST)


# --- serialization -------------------------------------------------------------


def test_report_roundtrip(tmp_path):
    ds = blob_dataset_with_flip()
    report = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=2)
    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report


def test_report_dict_is_a_copy():
    report = DifficultyReport({"a": 0, "b": 1}, {"a": [True, True], "b": [True, False]}, 2, (3, 4))
    document = report_to_dict(report)
    assert document == asdict(report)
    document["labels"]["c"] = 0
    document["per_seed_correct"]["a"].append(False)
    assert report.labels == {"a": 0, "b": 1} and report.per_seed_correct["a"] == [True, True]


def test_report_dict_rejects_malformed():
    good = report_to_dict(
        DifficultyReport(
            labels={"a": 0},
            per_seed_correct={"a": [True]},
            num_folds=2,
            seeds=(0,),
        )
    )
    assert report_from_dict(good).labels == {"a": 0}
    with pytest.raises(ValidationError, match="malformed"):
        report_from_dict({"labels": {"a": 0}})
