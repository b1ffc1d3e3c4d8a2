"""The value rule of the Python API.

Every public constructor and function reads its integer, real, string
and boolean arguments through ``errors.integer`` / ``errors.real`` /
``errors.string`` / ``errors.boolean`` (or their column form): a wrong
value fails with ``<name> must be an integer[ >= k| in [a, b]], got
<repr>``, ``<name> must be a number, got <repr>``, ``<name> must be a
string, got <repr>`` or ``<name> must be a boolean, got <repr>``, and a
numpy value is stored as a Python ``int`` / ``float`` / ``str`` /
``bool``, so whatever the API builds, the JSON writers can save and the
readers load back.
"""

import dataclasses
import json
import pathlib
import re
import reprlib
import typing

import numpy as np
import pytest

import cascadekit
from cascadekit import (
    Architecture,
    Cascade,
    ClassDistribution,
    ClassifierModel,
    Dataset,
    DifficultyReport,
    ExitTrace,
    FoldAssignment,
    GainScenario,
    GradientCheckResult,
    Instance,
    MetricsReport,
    NumericError,
    OriginalExits,
    ScoredInstance,
    ScoredTable,
    StageSpec,
    TraceTable,
    TrainConfig,
    ValidationError,
    assign_folds,
    calibrate_threshold,
    cascade_predict,
    dar_pair_loss,
    ece,
    empirical_gain,
    evaluate,
    f1_binary,
    hash_featurize,
    label_difficulty,
    load_cascade,
    load_dataset,
    load_metrics,
    load_model,
    load_report,
    load_scenario,
    load_traces,
    max_gain_bound,
    planted_hard_task,
    predict_batch,
    run_batched,
    run_cascade,
    save_cascade,
    save_dataset,
    save_metrics,
    save_model,
    save_report,
    save_scenario,
    save_traces,
    scored_from_traces,
    speedup_ratio,
    tiered_task,
    train,
)
from cascadekit.classifier import model_to_dict, total_loss
from cascadekit.dataset import InstanceColumns

SOURCES = pathlib.Path(cascadekit.__file__).parent


def _linear(feature_dim=2, num_classes=2):
    weights = {"w": np.zeros((feature_dim, num_classes)), "b": np.zeros(num_classes)}
    return ClassifierModel(Architecture("linear"), feature_dim, num_classes, weights, TrainConfig())


def _dataset(n=6):
    rng = np.random.default_rng(0)
    return Dataset(
        tuple(Instance(f"i{k}", rng.normal(size=2), k % 2, (k // 2) % 2) for k in range(n)), 2, 2
    )


def _traces():
    return TraceTable(("i0", "i1"), [0, 1], [[0.25, 0.75], [0.5, 0.5]], ((2,), (2, 12)), (2, 14))


def _traced_scores():
    return scored_from_traces(_traces(), _dataset(2))


def _cascade():
    return Cascade((StageSpec(_linear(), 2), StageSpec(_linear(), 12)), (0.5,), 12)


def _trace(**fields):
    valid = dict(
        instance_id="a",
        exit_stage=0,
        distribution=ClassDistribution(np.array([0.25, 0.75])),
        confidence=0.75,
        executed_costs=(2,),
        total_cost=2,
    )
    return ExitTrace(**{**valid, **fields})


def _report(**fields):
    valid = dict(
        num_instances=2, accuracy=0.5, ece=0.1, speedup=2.0, exit_histogram=(1, 1), f1=None, dis=None
    )
    return MetricsReport(**{**valid, **fields})


def _scenario(**fields):
    valid = dict(
        layer_counts=(2, 12),
        accuracies=(0.85, 0.94),
        insert_after=0,
        new_layers=6,
        new_accuracy=0.91,
        new_exits=(50, 30),
        new_model_exits=20,
    )
    return GainScenario(**{**valid, **fields})


def _difficulty_report(**fields):
    valid = dict(labels={"a": 0}, per_seed_correct={"a": [True]}, num_folds=2, seeds=(7,))
    return DifficultyReport(**{**valid, **fields})


# One row per entry point the rule newly covers: (id, call, the whole message).
REJECTED = [
    ("hidden-size-float", lambda: Architecture("mlp", 2.5), "hidden_size must be an integer >= 1, got 2.5"),
    ("hidden-size-bool", lambda: Architecture("mlp", True), "hidden_size must be an integer >= 1, got True"),
    (
        "model-feature-dim",
        lambda: ClassifierModel(Architecture("linear"), True, 2, _linear(1).weights, TrainConfig()),
        "feature_dim must be an integer >= 1, got True",
    ),
    ("train-config-epochs", lambda: TrainConfig(epochs=0), "epochs must be an integer >= 1, got 0"),
    (
        "train-config-rate",
        lambda: TrainConfig(learning_rate="0.1"),
        "learning_rate must be a number, got '0.1'",
    ),
    ("trace-exit-stage", lambda: _trace(exit_stage=0.0), "exit_stage must be an integer, got 0.0"),
    ("trace-confidence", lambda: _trace(confidence="0.75"), "confidence must be a number, got '0.75'"),
    ("trace-costs", lambda: _trace(executed_costs=(2.0,)), "executed_costs must be an integer >= 1, got 2.0"),
    # A cost below a stage's least layer_cost used to load, and speedup_ratio then read -12.0.
    (
        "trace-cost-zero",
        lambda: _trace(executed_costs=(0,), total_cost=0),
        "executed_costs must be an integer >= 1, got 0",
    ),
    (
        "trace-total",
        lambda: _trace(total_cost=True, executed_costs=(1,)),
        "total_cost must be an integer, got True",
    ),
    (
        "table-total",
        lambda: TraceTable(("a",), [0], [[0.5, 0.5]], ((1,),), (True,)),
        "trace 'a': total_cost must be an integer, got True",
    ),
    (
        "table-stage-float",
        lambda: TraceTable(("a",), [0.7], [[0.5, 0.5]], ((1,),), (1,)),
        "trace 'a': exit_stage must be an integer, got 0.7",
    ),
    (
        "table-stage-bool",
        lambda: TraceTable(("a",), [True], [[0.5, 0.5]], ((1, 1),), (2,)),
        "trace 'a': exit_stage must be an integer, got True",
    ),
    (
        "table-cost",
        lambda: TraceTable(("a",), [1], [[0.5, 0.5]], ((0.5, 0.5),), (1,)),
        "trace 'a': executed_costs must be an integer >= 1, got 0.5",
    ),
    (
        "table-cost-below-one",
        lambda: TraceTable(("a",), [0], np.array([[0.9, 0.1]]), ((-1,),), (-1,)),
        "trace 'a': executed_costs must be an integer >= 1, got -1",
    ),
    (
        "table-id",
        lambda: TraceTable((1,), [0], [[0.5, 0.5]], ((1,),), (1,)),
        "trace 1: instance_id must be a string, got 1",
    ),
    (
        # Distinct row objects are each read; a set of the rows would hide True behind 1.
        "table-cost-distinct-rows",
        lambda: TraceTable(("a", "b", "c"), [0, 0, 0], [[1.0]] * 3, ((1,), (1,), (True,)), (1, 1, 1)),
        "trace 'c': executed_costs must be an integer >= 1, got True",
    ),
    (
        "table-cost-row",
        lambda: TraceTable(("a",), [0], [[1.0]], (2,), (2,)),
        "trace 'a': executed_costs must be a sequence of integers, got 2",
    ),
    (
        "trace-cost-row",
        lambda: ExitTrace("a", 0, ClassDistribution(np.array([1.0])), 1.0, 2, 2),
        "executed_costs must be a sequence of integers, got 2",
    ),
    # A string row was read as its characters, and a mapping row as its keys.
    (
        "table-cost-string-row",
        lambda: TraceTable(("a",), [1], np.array([[1.0]]), ("12",), (3,)),
        "trace 'a': executed_costs must be a sequence of integers, got '12'",
    ),
    (
        "table-cost-mapping-row",
        lambda: TraceTable(("a",), [0], np.array([[1.0]]), ({1: 2},), (1,)),
        "trace 'a': executed_costs must be a sequence of integers, got {1: 2}",
    ),
    (
        "report-outcomes-string",
        lambda: DifficultyReport({"a": 0}, {"a": "yes"}, 2, (0, 1, 2)),
        "per_seed_correct must be a sequence of booleans, got 'yes'",
    ),
    (
        "report-count",
        lambda: _report(num_instances=2.5, exit_histogram=(1, 1.5)),
        "num_instances must be an integer, got 2.5",
    ),
    (
        "report-histogram",
        lambda: _report(exit_histogram=(1, 1.0)),
        "exit_histogram must be an integer >= 0, got 1.0",
    ),
    ("report-accuracy", lambda: _report(accuracy="0.5"), "accuracy must be a number, got '0.5'"),
    ("report-no-accuracy", lambda: _report(accuracy=None), "accuracy must be a number, got None"),
    ("report-speedup", lambda: _report(speedup=True), "speedup must be a number, got True"),
    ("report-f1", lambda: _report(f1="1"), "f1 must be a number, got '1'"),
    ("report-folds", lambda: _difficulty_report(num_folds=2.5), "num_folds must be an integer, got 2.5"),
    ("report-seeds", lambda: _difficulty_report(seeds=(7.0,)), "seeds must be an integer, got 7.0"),
    (
        "report-labels",
        lambda: _difficulty_report(labels={"a": False}),
        "labels must be an integer in [0, 1], got False",
    ),
    (
        "scenario-accuracies",
        lambda: _scenario(accuracies=("0.85", 0.94)),
        "accuracies must be a number, got '0.85'",
    ),
    ("scenario-new-accuracy", lambda: _scenario(new_accuracy=True), "new_accuracy must be a number, got True"),
    ("original-exits", lambda: OriginalExits(("1",)), "exits must be a number, got '1'"),
    ("scored-confidence", lambda: ScoredInstance("0.5", 1, 1), "confidence must be a number, got '0.5'"),
    ("scored-confidence-bool", lambda: ScoredInstance(True, 1, 1), "confidence must be a number, got True"),
    ("fold-assignment", lambda: FoldAssignment(2.5, {}), "num_folds must be an integer, got 2.5"),
    ("fold-key", lambda: FoldAssignment(2, {"a": 0, 1: 1}), "fold_of key must be a string, got 1"),
    (
        "report-label-key",
        lambda: DifficultyReport({1: 0}, {1: [True]}, 2, (7,)),
        "labels key must be a string, got 1",
    ),
    (
        "report-outcome-key",
        lambda: DifficultyReport({"1": 0}, {1: [True]}, 2, (7,)),
        "per_seed_correct key must be a string, got 1",
    ),
    (
        "gradient-check",
        lambda: GradientCheckResult(0.0, 2.5, False),
        "num_parameters must be an integer, got 2.5",
    ),
    (
        "threshold-overflow",
        lambda: _cascade().with_shared_threshold(10**400),
        f"thresholds must be a number, got {reprlib.repr(10**400)}",
    ),
    (
        "ece-bins-float",
        lambda: ece(_traced_scores(), num_bins=2.5),
        "num_bins must be an integer >= 1, got 2.5",
    ),
    (
        "ece-bins-bool",
        lambda: ece(_traced_scores(), num_bins=True),
        "num_bins must be an integer >= 1, got True",
    ),
    ("assign-folds", lambda: assign_folds(_dataset(), 2.5, 0), "num_folds must be an integer >= 2, got 2.5"),
    (
        "label-folds",
        lambda: label_difficulty(_dataset(), Architecture("linear"), TrainConfig(), num_folds=2.5),
        "num_folds must be an integer >= 2, got 2.5",
    ),
    (
        "label-seeds",
        lambda: label_difficulty(_dataset(), Architecture("linear"), TrainConfig(), num_seeds=2.5),
        "num_seeds must be an integer >= 1, got 2.5",
    ),
    ("featurize-dim-float", lambda: hash_featurize("a b", 2.5), "dim must be an integer >= 1, got 2.5"),
    ("featurize-dim-bool", lambda: hash_featurize("a b", True), "dim must be an integer >= 1, got True"),
    (
        "evaluate-stages",
        lambda: evaluate(_traces(), _dataset(2), 12, num_stages=2.5),
        "num_stages must be an integer >= 1, got 2.5",
    ),
    (
        "evaluate-class-high",
        lambda: evaluate(_traces(), _dataset(2), 12, positive_class=7),
        "positive_class must be an integer in [0, 1], got 7",
    ),
    (
        "evaluate-class-low",
        lambda: evaluate(_traces(), _dataset(2), 12, positive_class=-1),
        "positive_class must be an integer in [0, 1], got -1",
    ),
    (
        "evaluate-class-bool",
        lambda: evaluate(_traces(), _dataset(2), 12, positive_class=True),
        "positive_class must be an integer in [0, 1], got True",
    ),
    (
        "f1-class",
        lambda: f1_binary(_traced_scores(), 1.5),
        "positive_class must be an integer >= 0, got 1.5",
    ),
    (
        "calibrate-target",
        lambda: calibrate_threshold(_cascade(), _dataset(), "2"),
        "target_speedup must be a number, got '2'",
    ),
    (
        "calibrate-tolerance",
        lambda: calibrate_threshold(_cascade(), _dataset(), 2.0, tolerance=True),
        "tolerance must be a number, got True",
    ),
    ("pair-loss-margin", lambda: dar_pair_loss(0.2, 0.9, "0.3"), "margin must be a number, got '0.3'"),
    (
        "pair-loss-confidence",
        lambda: dar_pair_loss(0.2, None, 0.3),
        "conf_easy must be a number, got None",
    ),
    (
        "max-gain-bound",
        lambda: max_gain_bound((2, 12.0), (0.8, 0.9), (10.0, 5.0)),
        "layer_counts must be an integer >= 1, got 12.0",
    ),
    (
        "planted-size",
        lambda: planted_hard_task(2.5, 0),
        "num_instances must be an integer >= 1, got 2.5",
    ),
    ("tiered-seed", lambda: tiered_task(10, -1), "seed must be an integer >= 0, got -1"),
    (
        # Used to build with features [1.5, 1.0]: the cast read the string and the bool.
        "instance-features",
        lambda: Instance("a", ["1.5", True], 0),
        "instance 'a': features must be a number, got '1.5'",
    ),
    (
        # Used to build with labels [1, 1] and difficulty [1, 0]: the columns were cast unread.
        "columns-label",
        lambda: Dataset(InstanceColumns(("a", "b"), [[1.0], [2.0]], [1.5, True], ["1", 0]), 2, 1),
        "instance 'a': label must be an integer >= 0, got 1.5",
    ),
    (
        "columns-bool-labels",
        lambda: Dataset(InstanceColumns(("a",), np.ones((1, 1)), np.array([True]), np.array([0])), 2, 1),
        "instance 'a': label must be an integer >= 0, got True",
    ),
    (
        "columns-flag",
        lambda: Dataset(InstanceColumns(("a", "b"), np.ones((2, 1)), [0, 1], [0, "1"]), 2, 1),
        "instance 'b': difficulty must be an integer in [0, 1], got '1'",
    ),
    (
        "scored-table-bool-labels",
        lambda: ScoredTable(np.array([0.5]), np.array([True]), np.array([1])),
        "row 0: predicted_label must be an integer >= 0, got True",
    ),
    (
        "scored-table-confidence",
        lambda: ScoredTable([0.5, 0.25, 0.5, 1.5], [1] * 4, [1] * 4),
        "row 3: confidence 1.5 outside [0, 1]",
    ),
    # Probabilities used to be cast to float64 before any check: strings and bools built,
    # and a ragged or complex vector failed with a raw ValueError or TypeError.
    ("distribution-string", lambda: ClassDistribution(["0.5", "0.5"]), "probs must be a number, got '0.5'"),
    ("distribution-word", lambda: ClassDistribution(["x"]), "probs must be a number, got 'x'"),
    ("distribution-bool", lambda: ClassDistribution([True, False]), "probs must be a number, got True"),
    ("distribution-complex", lambda: ClassDistribution([1 + 0j]), "probs must be a number, got (1+0j)"),
    ("distribution-none", lambda: ClassDistribution([None, 1.0]), "probs must be a number, got None"),
    ("distribution-ragged", lambda: ClassDistribution([[1.0], [0.5, 0.5]]), "probs must be a flat vector"),
    (
        "table-probs-bool",
        lambda: TraceTable(("a",), [0], [[True]], ((1,),), (1,)),
        "trace 'a': probs must be a number, got True",
    ),
    (
        "table-probs-ragged",
        lambda: TraceTable(("a", "b"), [0, 0], [[1.0], [0.5, 0.5]], ((1,), (1,)), (1, 1)),
        "trace columns must be flat (probs a matrix) and of one length",
    ),
    (
        "table-probs-nested-row",
        lambda: TraceTable(("a", "b"), [0, 0], [[1.0], [[1.0]]], ((1,), (1,)), (1, 1)),
        "trace 'b': probs must be a flat vector",
    ),
    (
        # Used to fail with a raw ValueError from np.ndim.
        "instance-ragged-features",
        lambda: Instance("a", [[1.0], [1.0, 2.0]], 0),
        "instance 'a': features must be a flat vector",
    ),
    # Labels beyond int64 used to build as rows and fail with a raw OverflowError in a table.
    (
        "scored-label-beyond-int64",
        lambda: ScoredInstance(0.5, 2**70, 1),
        f"predicted_label must be an integer within int64, got {2**70}",
    ),
    (
        "scored-table-label-beyond-int64",
        lambda: ScoredTable([0.5], [2**70], [1]),
        f"row 0: predicted_label must be an integer within int64, got {2**70}",
    ),
    (
        "scored-table-gold-beyond-int64",
        lambda: ScoredTable(np.array([0.5, 0.5]), [1, 1], [0, 2**64]),
        f"row 1: gold_label must be an integer within int64, got {2**64}",
    ),
    (
        "instance-label-beyond-int64",
        lambda: Instance("a", [1.0], 2**70),
        f"instance 'a': label must be an integer within int64, got {2**70}",
    ),
    (
        "columns-label-beyond-int64",
        lambda: Dataset(InstanceColumns(("a", "b"), [[1.0], [2.0]], [0, 2**63], [0, 0]), 2**64, 1),
        f"instance 'b': label must be an integer within int64, got {2**63}",
    ),
    # Feature matrices used to be cast to float, so strings and bools were read as numbers.
    (
        "predict-batch-strings",
        lambda: predict_batch(_linear(), [["1", "2"]]),
        "row 0: X must be a number, got '1'",
    ),
    (
        "predict-batch-bools",
        lambda: predict_batch(_linear(), np.array([[True, False]])),
        "row 0: X must be a number, got True",
    ),
    (
        # Used to say "feature matrix has 2 columns, model expects 2".
        "predict-batch-flat",
        lambda: predict_batch(_linear(), np.array([1.0, 2.0])),
        "X must be a matrix, one feature row per instance",
    ),
    (
        # Used to fail with a raw ValueError.
        "run-batched-strings",
        lambda: run_batched(_cascade(), ["a"], [["x", "y"]]),
        "row 0: X must be a number, got 'x'",
    ),
    (
        # Used to raise a raw TypeError from len().
        "run-batched-ids",
        lambda: run_batched(_cascade(), 5, [[0.0, 0.0]]),
        "ids must be a sequence of strings, got 5",
    ),
    # The execution entry points used to end in a raw AttributeError on a wrong-typed argument.
    (
        "run-cascade-instances",
        lambda: run_cascade(_cascade(), list(_dataset(1).instances)),
        f"dataset must be a Dataset, got {reprlib.repr(list(_dataset(1).instances))}",
    ),
    ("run-cascade-none", lambda: run_cascade(_cascade(), None), "dataset must be a Dataset, got None"),
    (
        "cascade-predict-array",
        lambda: cascade_predict(_cascade(), np.zeros(2)),
        f"instance must be an Instance, got {reprlib.repr(np.zeros(2))}",
    ),
    (
        # A one-row run_batched, refused in predict_batch's words.
        "cascade-predict-width",
        lambda: cascade_predict(_cascade(), Instance("x", np.zeros(3), 0)),
        "feature matrix has 3 columns, model expects 2",
    ),
    (
        "run-batched-cascade",
        lambda: run_batched("x", ["a"], [[0.0, 0.0]]),
        "cascade must be a Cascade, got 'x'",
    ),
    (
        # Used to raise a raw "'int' object is not iterable".
        "report-outcome-row",
        lambda: _difficulty_report(per_seed_correct={"a": 5}),
        "per_seed_correct must be a sequence of booleans, got 5",
    ),
    # Positions used to be read by range indexing: bools as 1 and 0, others with a raw error.
    (
        "subset-bools",
        lambda: _dataset(2).subset([True, False]),
        "indices must be an integer in [-2, 1], got True",
    ),
    ("subset-beyond", lambda: _dataset(2).subset([100]), "indices must be an integer in [-2, 1], got 100"),
    # A positions argument that is not a sequence used to raise a raw TypeError.
    ("subset-int", lambda: _dataset(2).subset(5), "indices must be a sequence of integers, got 5"),
    (
        "subset-numpy-int",
        lambda: _dataset(2).subset(np.int64(1)),
        f"indices must be a sequence of integers, got {np.int64(1)!r}",
    ),
    (
        "subset-0d-array",
        lambda: _dataset(2).subset(np.array(1)),
        "indices must be a sequence of integers, got array(1)",
    ),
    ("subset-none", lambda: _dataset(2).subset(None), "indices must be a sequence of integers, got None"),
    ("subset-float", lambda: _dataset(2).subset(2.5), "indices must be a sequence of integers, got 2.5"),
    ("subset-string", lambda: _dataset(2).subset("ab"), "indices must be an integer in [-2, 1], got 'a'"),
    ("fold-seed-string", lambda: assign_folds(_dataset(), 2, "x"), "seed must be an integer >= 0, got 'x'"),
    ("fold-seed-bool", lambda: assign_folds(_dataset(), 2, True), "seed must be an integer >= 0, got True"),
    ("fold-seed-float", lambda: assign_folds(_dataset(), 2, 1.5), "seed must be an integer >= 0, got 1.5"),
    ("featurize-text", lambda: hash_featurize(5, 4), "text must be a string, got 5"),
    ("tiered-id-prefix", lambda: tiered_task(3, 0, id_prefix=5), "id_prefix must be a string, got 5"),
    ("planted-id-prefix", lambda: planted_hard_task(3, 0, id_prefix=5), "id_prefix must be a string, got 5"),
    # A high and a low surrogate were saved as two escapes that loaded back as one other character.
    (
        "trace-id-surrogates",
        lambda: _trace(instance_id="\ud800\udc00"),
        "instance_id must be a string without surrogates, got '\\ud800\\udc00'",
    ),
    (
        "instance-id-surrogate",
        lambda: Instance("a\udfff", np.zeros(2), 0),
        "id must be a string without surrogates, got 'a\\udfff'",
    ),
    # These used to end in a raw AttributeError or TypeError on a wrong-typed argument.
    ("calibrate-cascade", lambda: calibrate_threshold("x", _dataset(), 2.0), "cascade must be a Cascade, got 'x'"),
    (
        "calibrate-instances",
        lambda: calibrate_threshold(_cascade(), list(_dataset(1).instances), 2.0),
        f"calibration must be a Dataset, got {reprlib.repr(list(_dataset(1).instances))}",
    ),
    ("evaluate-traces-none", lambda: evaluate(None, _dataset(2), 12), "traces must be a Sequence, got None"),
    ("evaluate-trace-row", lambda: evaluate(["x"], _dataset(2), 12), "traces must be an ExitTrace, got 'x'"),
    (
        "evaluate-instances",
        lambda: evaluate(_traces(), list(_dataset(2).instances), 12),
        f"dataset must be a Dataset, got {reprlib.repr(list(_dataset(2).instances))}",
    ),
    (
        "evaluate-cost",
        lambda: evaluate(_traces(), _dataset(2), "12"),
        "full_model_cost must be an integer >= 1, got '12'",
    ),
    (
        "gain-without",
        lambda: empirical_gain("x", _cascade(), _dataset()),
        "cascade_without must be a Cascade, got 'x'",
    ),
    (
        "gain-with",
        lambda: empirical_gain(_cascade(), None, _dataset()),
        "cascade_with must be a Cascade, got None",
    ),
    ("gain-dataset", lambda: empirical_gain(_cascade(), _cascade(), None), "dataset must be a Dataset, got None"),
    ("speedup-traces-none", lambda: speedup_ratio(None, 12), "traces must be a Sequence, got None"),
    ("speedup-trace-row", lambda: speedup_ratio([5], 12), "traces must be an ExitTrace, got 5"),
    # Refusals that no other test reaches.
    ("evaluate-no-traces", lambda: evaluate([], _dataset(2), 12), "evaluate needs at least one scored instance"),
    ("report-speedup-nan", lambda: _report(speedup=float("nan")), "speedup = nan is not a positive finite number"),
    (
        "scored-confidence-matrix",
        lambda: ScoredTable(np.full((2, 2), 0.5), [0, 1], [0, 1]),
        "scored columns must be flat and of one length",
    ),
    ("scenario-layer-count", lambda: _scenario(layer_counts=(0, 12)), "layer counts must be >= 1"),
    (
        "trace-ids-scalar",
        lambda: TraceTable(5, [0], [[0.5, 0.5]], ((2,),), (2,)),
        "trace columns must be flat (probs a matrix) and of one length",
    ),
    (
        "instance-columns-lengths",
        lambda: Dataset(InstanceColumns(("a", "b"), np.zeros((3, 2)), [0, 0, 0], [-1, -1, -1]), 2, 2),
        "instance columns must be of one length, the features a matrix",
    ),
    ("loss-empty-batch", lambda: total_loss(_linear(), [], TrainConfig()), "batch must be non-empty"),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in REJECTED], ids=[row[0] for row in REJECTED]
)
def test_wrong_value_is_rejected(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


# --- the rule cannot drift ------------------------------------------------------------

# A valid instance of every public dataclass with a numeric field.  Where it
# can, a count is 1 and a number 1.0, so that True (== 1) breaks no other
# check and only the value rule can reject it.
FIXTURES = {
    Architecture: lambda: dict(kind="mlp", hidden_size=1),
    Cascade: lambda: dict(
        stages=(StageSpec(_linear(), 1), StageSpec(_linear(), 1)), thresholds=(1.0,), full_model_cost=1
    ),
    ClassDistribution: lambda: dict(probs=[0.0, 1.0]),
    ClassifierModel: lambda: dict(
        architecture=Architecture("linear"),
        feature_dim=1,
        num_classes=1,
        weights={"w": np.zeros((1, 1)), "b": np.zeros(1)},
        train_config=TrainConfig(),
    ),
    Dataset: lambda: dict(instances=(Instance("a", np.zeros(1), 0),), num_classes=1, feature_dim=1),
    DifficultyReport: lambda: dict(labels={"a": 1}, per_seed_correct={"a": [False]}, num_folds=1, seeds=(1,)),
    ExitTrace: lambda: dict(
        instance_id="a",
        exit_stage=1,
        distribution=ClassDistribution(np.array([0.0, 1.0])),
        confidence=1.0,
        executed_costs=(1, 1),
        total_cost=2,
    ),
    FoldAssignment: lambda: dict(num_folds=1, fold_of={"a": 0}),
    GainScenario: lambda: dict(
        layer_counts=(1, 12),
        accuracies=(1.0, 1.0),
        insert_after=0,
        new_layers=6,
        new_accuracy=1.0,
        new_exits=(1, 1),
        new_model_exits=1,
    ),
    GradientCheckResult: lambda: dict(max_rel_error=1.0, num_parameters=1, kink_excluded=False),
    Instance: lambda: dict(id="a", features=np.zeros(1), label=1, difficulty=1),
    MetricsReport: lambda: dict(
        num_instances=1, accuracy=1.0, ece=1.0, speedup=1.0, exit_histogram=(1,), f1=1.0, dis=1.0
    ),
    OriginalExits: lambda: dict(exits=(1.0,)),
    ScoredInstance: lambda: dict(confidence=1.0, predicted_label=1, gold_label=1, difficulty=1),
    ScoredTable: lambda: dict(confidence=[1.0], predicted_label=[1], gold_label=[1], difficulty=[1]),
    StageSpec: lambda: dict(model=_linear(), layer_cost=1),
    TraceTable: lambda: dict(
        ids=("a",), exit_stage=[1], probs=[[0.0, 1.0]], executed_costs=((1, 1),), total_cost=(2,)
    ),
    TrainConfig: lambda: dict(
        epochs=1, learning_rate=1.0, batch_size=1, dar_weight=1.0, margin=0.5, seed=1, pair_cap=1
    ),
}


def _numeric_kind(hint):
    """``(scalar type, how the field holds it)``, or None: one value, a
    tuple of them, or an array (of numbers of either type)."""
    if hint in (np.ndarray, np.ndarray | None):
        return None, "array"
    for kind in (int, float):
        if hint in (kind, kind | None):
            return kind, "value"
        if hint == tuple[kind, ...]:
            return kind, "tuple"
    return None


def _with_first(value, holds, bad):
    """``value`` with ``bad`` as its first entry (of its first row, for a matrix)."""
    if holds == "value":
        return bad
    if holds == "tuple":
        return (bad, *value[1:])
    if np.ndim(value) == 2:
        return [_with_first(value[0], holds, bad), *value[1:]]
    return [bad, *value[1:]]


def _numeric_fields():
    for name in cascadekit.__all__:
        cls = getattr(cascadekit, name)
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        for field, hint in typing.get_type_hints(cls).items():
            numeric = _numeric_kind(hint)
            if numeric is not None:
                yield cls, field, *numeric


GUARDED = [
    (cls, field, holds, bad)
    for cls, field, kind, holds in _numeric_fields()
    for bad in ((2.5,) if kind is int else ()) + (True, "1")
]


@pytest.mark.parametrize(
    "cls, field, holds, bad",
    GUARDED,
    ids=[f"{cls.__name__}.{field}-{bad!r}" for cls, field, _, bad in GUARDED],
)
def test_every_numeric_field_of_the_api_follows_the_rule(cls, field, holds, bad):
    fields = FIXTURES[cls]()
    cls(**fields)  # the fixture itself is valid
    fields[field] = _with_first(fields[field], holds, bad)
    with pytest.raises(ValidationError, match=rf"\b{field} must be (an integer|a number)"):
        cls(**fields)


def test_the_guard_sees_the_fields_it_should():
    guarded = {(cls.__name__, field) for cls, field, _, _ in GUARDED}
    assert {("Instance", "label"), ("TraceTable", "total_cost"), ("Cascade", "thresholds")} <= guarded
    arrays = {("ClassDistribution", "probs"), ("TraceTable", "probs"), ("TraceTable", "exit_stage"),
              ("Instance", "features"), ("ScoredTable", "confidence"), ("ScoredTable", "predicted_label"),
              ("ScoredTable", "gold_label"), ("ScoredTable", "difficulty")}
    assert arrays <= guarded
    assert {cls for cls, *_ in _numeric_fields()} == set(FIXTURES)


# Hand-written tests of a value's type or of an array's dtype.  jsonio reads JSON by exact JSON
# types, a different rule, and is exempt.
HAND_WRITTEN_TYPE_TEST = re.compile(
    r"is_(integer|real)\(|numbers\.Real|isinstance\([^)]*\b(bool|int|float|str)\b"
    r"|type\([^)]*\) is (not )?(bool|int|float|str)\b|np\.issubdtype\(|\.dtype\.kind\b"
)


def test_the_guard_sees_string_and_boolean_tests():
    lines = (
        "isinstance(value, str)",
        "if type(x) is not str:",
        "isinstance(v, (bool, np.bool_))",
        "if not np.issubdtype(dtype, np.integer):",
        "if values.dtype.kind in 'iu':",
    )
    for line in lines:
        assert HAND_WRITTEN_TYPE_TEST.search(line), line


def test_only_errors_decides_what_a_number_is():
    offenders = [
        f"{path.name}:{line_no}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py"))
        if path.name not in ("errors.py", "jsonio.py")
        for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if HAND_WRITTEN_TYPE_TEST.search(line)
    ]
    assert offenders == []


# Ways to make an array read-only.  errors.frozen alone decides how a checked object holds an array.
READ_ONLY_BY_HAND = re.compile(r"\.flags\.writeable\s*=(?!=)|\.setflags\(|\.flags\[.WRITEABLE.\]\s*=(?!=)")


def test_the_guard_sees_writeable_assignments():
    lines = (
        "probs.flags.writeable = stages.flags.writeable = False",
        "matrix.flags.writeable=False",
        "array.setflags(write=False)",
        "array.flags['WRITEABLE'] = False",
    )
    for line in lines:
        assert READ_ONLY_BY_HAND.search(line), line
    assert not READ_ONLY_BY_HAND.search("if array.flags.writeable == False:")


def test_only_errors_makes_arrays_read_only():
    offenders = [
        f"{path.name}:{line_no}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "errors.py"
        for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if READ_ONLY_BY_HAND.search(line)
    ]
    assert offenders == []


# --- values built through the API save and load back ------------------------------------


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _dataset_artifact(count, path):
    instances = (
        Instance("a", [0.5, 1.0], count(1), count(0)),
        Instance("b", [1.5, 0.0], count(0), count(1)),
    )
    value = Dataset(instances, count(2), count(2))
    save_dataset(value, path)

    def view(ds):
        rows = [(i.id, i.label, i.difficulty, i.features.tolist()) for i in ds.instances]
        return rows, ds.num_classes, ds.feature_dim

    return view(value), view(load_dataset(path))


def _model(count):
    arch = Architecture("mlp", count(3))
    config = TrainConfig(
        epochs=count(2),
        learning_rate=np.float32(0.25),
        batch_size=count(4),
        dar_weight=np.float64(0.5),
        margin=np.float16(0.25),
        seed=count(1),
        pair_cap=count(8),
    )
    rng = np.random.default_rng(0)
    weights = {
        "w1": rng.normal(size=(2, 3)),
        "b1": np.zeros(3),
        "w2": rng.normal(size=(3, 2)),
        "b2": np.zeros(2),
    }
    return ClassifierModel(arch, count(2), count(2), weights, config)


def _model_artifact(count, path):
    value = _model(count)
    save_model(value, path)
    return model_to_dict(value), model_to_dict(load_model(path))


def _cascade_artifact(count, path):
    model = _model(count)
    stages = (StageSpec(model, count(2)), StageSpec(model, count(12)))
    value = Cascade(stages, (np.float32(0.5),), count(12))
    save_cascade(value, path)

    def view(cascade):
        stages = [(s.layer_cost, model_to_dict(s.model)) for s in cascade.stages]
        return stages, cascade.thresholds, cascade.full_model_cost

    return view(value), view(load_cascade(path))


def _traces_artifact(count, path):
    dist = ClassDistribution(np.array([0.25, 0.75]))
    value = [ExitTrace("a", count(1), dist, np.float64(0.75), (count(2), count(4)), count(6))]
    save_traces(value, path)

    def view(traces):
        return [
            (t.instance_id, t.exit_stage, t.distribution.probs.tolist(), t.confidence)
            + (t.executed_costs, t.total_cost)
            for t in traces
        ]

    return view(value), view(load_traces(path))


def _metrics_artifact(count, path):
    value = MetricsReport(
        count(2), np.float64(0.5), np.float32(0.25), np.float64(2.0), (count(1), count(1)), np.float64(0.5)
    )
    save_metrics(value, path)
    return dataclasses.asdict(value), dataclasses.asdict(load_metrics(path))


def _difficulty_artifact(count, path):
    config = TrainConfig(epochs=1, seed=count(3))
    value = label_difficulty(
        _dataset(), Architecture("linear"), config, num_folds=count(2), num_seeds=count(2)
    )
    save_report(value, path)
    return dataclasses.asdict(value), dataclasses.asdict(load_report(path))


def _scenario_artifact(count, path):
    counts = dict(new_exits=(count(50), count(30)), new_model_exits=count(20))
    value = _scenario(layer_counts=(count(2), count(12)), **counts)
    save_scenario(value, path)
    return dataclasses.asdict(value), dataclasses.asdict(load_scenario(path))


ARTIFACTS = {
    "dataset": _dataset_artifact,
    "model": _model_artifact,
    "cascade": _cascade_artifact,
    "traces": _traces_artifact,
    "metrics": _metrics_artifact,
    "difficulty": _difficulty_artifact,
    "scenario": _scenario_artifact,
}


@pytest.mark.parametrize("artifact", list(ARTIFACTS))
def test_numpy_counts_round_trip_and_float_or_bool_counts_are_refused(tmp_path, artifact):
    # Numpy counts used to be kept as they came: an Architecture, a
    # MetricsReport or a label_difficulty report built with them failed to
    # save with a raw TypeError, and float costs in an ExitTrace or a float
    # count in a MetricsReport saved a file that could not be loaded.
    build = ARTIFACTS[artifact]
    built, loaded = build(np.int64, tmp_path / "numpy.json")
    assert loaded == built
    assert not [leaf for leaf in _leaves(built) if isinstance(leaf, np.generic)]
    for wrong in (float, bool):
        with pytest.raises(ValidationError, match="must be an integer"):
            build(wrong, tmp_path / f"{wrong.__name__}.json")


def test_mlp_hidden_size_follows_the_integer_rule(tmp_path):
    # Architecture("mlp", np.int64(4)) used to train and then fail to save
    # with a raw TypeError; 2.5 and True failed inside training.
    arch = Architecture("mlp", np.int64(4))
    assert type(arch.hidden_size) is int and arch == Architecture("mlp", 4)
    model = train(_dataset(), arch, TrainConfig(epochs=2, seed=0))
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert loaded.architecture == arch
    assert model_to_dict(loaded) == model_to_dict(model)
    for bad in (2.5, True):
        message = f"^hidden_size must be an integer >= 1, got {bad}$"
        with pytest.raises(ValidationError, match=message):
            Architecture("mlp", bad)


# Values whose file a loader refuses.  Each used to build and save a file
# that could not be loaded back; its constructor now refuses it with the
# loader's kind of error.  Each row: id, the call, its error and whole
# message, the lines of the file it used to save, and the loader.
def _model_document(value):
    document = model_to_dict(_linear())
    document["weights"]["w"]["data"][0] = value
    return json.dumps(document)


UNSAVABLE = [
    (
        "difficulty-outcome",
        lambda: DifficultyReport({"a": 1}, {"a": [0]}, 2, (1,)),
        ValidationError,
        "per_seed_correct must be a boolean, got 0",
        ['{"labels": {"a": 1}, "num_folds": 2, "per_seed_correct": {"a": [0]}, "seeds": [1]}'],
        load_report,
    ),
    (
        "model-nan-weight",
        lambda: ClassifierModel(
            Architecture("linear"), 2, 2, {"w": np.full((2, 2), np.nan), "b": np.zeros(2)}, TrainConfig()
        ),
        NumericError,
        "weight 'w' holds non-finite values",
        [_model_document(float("nan"))],
        load_model,
    ),
    (
        "instance-id",
        lambda: Dataset((Instance(7, np.zeros(2), 0),), 1, 2),
        ValidationError,
        "id must be a string, got 7",
        ['{"features": [0.0, 0.0], "id": 7, "label": 0}'],
        load_dataset,
    ),
    (
        "trace-id",
        lambda: _trace(instance_id=7),
        ValidationError,
        "instance_id must be a string, got 7",
        ['{"confidence": 0.75, "executed_costs": [2], "exit_stage": 0, "instance_id": 7, '
         '"probs": [0.25, 0.75], "total_cost": 2}'],
        load_traces,
    ),
    (
        "table-cost",
        lambda: TraceTable(("a",), [1], [[0.5, 0.5]], ((0.5, 0.5),), (1,)),
        ValidationError,
        "trace 'a': executed_costs must be an integer >= 1, got 0.5",
        ['{"confidence": 0.5, "executed_costs": [0.5, 0.5], "exit_stage": 1, "instance_id": "a", '
         '"probs": [0.5, 0.5], "total_cost": 1}'],
        load_traces,
    ),
    (
        "table-cost-below-one",
        lambda: TraceTable(("a",), [0], [[0.5, 0.5]], ((-1,),), (-1,)),
        ValidationError,
        "trace 'a': executed_costs must be an integer >= 1, got -1",
        ['{"confidence": 0.5, "executed_costs": [-1], "exit_stage": 0, "instance_id": "a", '
         '"probs": [0.5, 0.5], "total_cost": -1}'],
        load_traces,
    ),
]


@pytest.mark.parametrize(
    "call, error, message, lines, load",
    [row[1:] for row in UNSAVABLE],
    ids=[row[0] for row in UNSAVABLE],
)
def test_what_a_loader_refuses_the_constructor_refuses(tmp_path, call, error, message, lines, load):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
    path = tmp_path / "artifact.json"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
        load(path)


def test_numpy_bools_and_strings_round_trip(tmp_path):
    report = DifficultyReport({"a": 0, "b": 1}, {"a": [np.True_], "b": [np.False_]}, 2, (7,))
    assert [type(v) for v in report.per_seed_correct.values()] == [list, list]
    assert [type(o) for v in report.per_seed_correct.values() for o in v] == [bool, bool]
    save_report(report, tmp_path / "report.json")
    assert load_report(tmp_path / "report.json") == report

    # Keys are read by the string rule: an int key used to save as "1" and load as a report unequal to it.
    keyed = DifficultyReport({np.str_("a"): 1}, {np.str_("a"): [False]}, 2, (7,))
    assert [type(k) for k in [*keyed.labels, *keyed.per_seed_correct]] == [str, str]
    save_report(keyed, tmp_path / "keyed.json")
    assert load_report(tmp_path / "keyed.json") == keyed
    folds = FoldAssignment(2, {np.str_("a"): 0})
    assert folds == FoldAssignment(2, {"a": 0}) and type(next(iter(folds.fold_of))) is str

    dataset = Dataset((Instance(np.str_("a"), np.zeros(2), 0),), 1, 2)
    assert type(dataset.instances[0].id) is str
    save_dataset(dataset, tmp_path / "data.jsonl")
    assert load_dataset(tmp_path / "data.jsonl").ids() == ["a"]

    table = TraceTable(
        np.array(["a", "b"]), np.array([0, 1]), [[0.25, 0.75], [0.5, 0.5]],
        ((np.int64(2),), [2, np.int32(12)]), (np.int64(2), 14),
    )
    assert table.ids == ("a", "b") and table.executed_costs == ((2,), (2, 12))
    assert not [v for v in _leaves([table.ids, table.executed_costs, table.total_cost])
                if isinstance(v, np.generic)]
    save_traces(table, tmp_path / "traces.jsonl")
    def view(traces):
        return [(t.instance_id, t.exit_stage, t.executed_costs, t.total_cost) for t in traces]

    assert view(load_traces(tmp_path / "traces.jsonl")) == view(table)
