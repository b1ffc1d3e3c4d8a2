import numpy as np
import pytest

from cascadekit import (
    Architecture,
    Dataset,
    DifficultyReport,
    Instance,
    TrainConfig,
    ValidationError,
    apply_difficulty,
    label_difficulty,
    load_report,
    save_report,
)
from cascadekit.difficulty import report_from_dict, report_to_dict


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
    labeled = apply_difficulty(ds, report)
    assert labeled.ids() == ds.ids()
    arr = labeled.difficulty_array()
    assert arr.sum() == report.num_difficult


# --- serialization -------------------------------------------------------------


def test_report_roundtrip(tmp_path):
    ds = blob_dataset_with_flip()
    report = label_difficulty(ds, Architecture("linear"), FAST, num_folds=3, num_seeds=2)
    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report


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
