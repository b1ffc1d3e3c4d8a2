"""Batch-invariant inference and the batched cascade core.

``predict_batch`` must give every row the exact bits that ``predict`` gives
that instance alone, whatever batch, order or memory layout the row comes
in.  The batched core (``run_batched``) runs each stage once on the
survivors of the stage before; the instance-major oracle of
``test_trace_table`` (one ``predict`` per stage, instance by instance) is
its reference, bit for bit.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadekit
from cascadekit import (
    Architecture,
    Cascade,
    ClassifierModel,
    Dataset,
    Instance,
    NumericError,
    StageSpec,
    TrainConfig,
    ValidationError,
    calibrate_threshold,
    predict,
    predict_batch,
    run_batched,
    run_cascade,
    save_traces,
)
from cascadekit.classifier import BATCH_BLOCK_ROWS
from cascadekit.dataset import NO_DIFFICULTY, InstanceColumns
from cascadekit.errors import column, integer
from test_classifier import oracle_forward
from test_trace_table import oracle_run, oracle_save


def random_model(rng, dim, num_classes, kind, hidden=None, output_scale=1.0):
    """A model of random weights; ``output_scale`` multiplies its output layer's, each kept
    within float range."""
    scale = rng.uniform(0.1, 4.0) / np.sqrt(dim)
    if kind == "linear":
        weights = {"w": scaled(rng.normal(scale=scale, size=(dim, num_classes)), output_scale)}
        weights["b"] = rng.normal(size=num_classes)
        return ClassifierModel(Architecture("linear"), dim, num_classes, weights, TrainConfig())
    weights = {
        "w1": rng.normal(scale=scale, size=(dim, hidden)),
        "b1": rng.normal(size=hidden),
        "w2": scaled(rng.normal(scale=2.0, size=(hidden, num_classes)), output_scale),
        "b2": rng.normal(size=num_classes),
    }
    return ClassifierModel(Architecture("mlp", hidden), dim, num_classes, weights, TrainConfig())


def scaled(weights, scale):
    largest = np.finfo(np.float64).max
    with np.errstate(over="ignore"):
        return np.clip(scale * weights, -largest, largest)


def laid_out(X, layout, rng):
    """``X`` as C-ordered, Fortran-ordered, or a column- or row-strided view."""
    if layout == "fortran":
        return np.asfortranarray(X)
    if layout == "column-strided":
        wide = rng.normal(size=(X.shape[0], 2 * X.shape[1]))
        wide[:, ::2] = X
        return wide[:, ::2]
    if layout == "row-strided":
        tall = rng.normal(size=(2 * X.shape[0], X.shape[1]))
        tall[::2] = X
        return tall[::2]
    return X


# Output weights up to float range: logits past it, where some classes' overflow to -inf (and
# exp to 0) under a finite top, and rows whose top is NaN or +-inf.
output_scales = st.one_of(st.just(0.0), st.floats(0, 308), st.floats(306, 308)).map(lambda p: 10.0**p)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["linear", "mlp"]),
    dim=st.integers(1, 256),
    # Past 8 classes a row's sum is pairwise, so a 1-D sum could add in another order.
    num_classes=st.integers(2, 16),
    hidden=st.integers(1, 48),
    n=st.integers(0, 40),
    layout=st.sampled_from(["C", "fortran", "column-strided", "row-strided"]),
    output_scale=output_scales,
)
def test_predict_batch_rows_equal_predict(seed, kind, dim, num_classes, hidden, n, layout, output_scale):
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim, num_classes, kind, hidden, output_scale)
    X = laid_out(rng.normal(scale=2.0, size=(n, dim)), layout, rng)
    with np.errstate(all="ignore"):
        try:
            probs = predict_batch(model, X)
        except NumericError:  # a row's top logit is not finite: the other rows are compared one by one
            probs = None
        for i in range(n):
            try:
                # The instance is built from a row view of X, strided in every layout but C.
                alone = predict(model, Instance(f"i{i}", X[i], 0)).probs
            except NumericError:  # test_predict_refuses_the_rows_predict_batch_refuses
                continue
            assert np.array_equal(predict_batch(model, X[i : i + 1])[0], alone)
            assert probs is None or np.array_equal(alone, probs[i])
        if probs is None:
            return
        assert probs.shape == (n, num_classes)
        for size in (0, n // 2, n):
            rows = rng.permutation(n)[:size]
            assert np.array_equal(predict_batch(model, X[rows]), probs[rows])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["linear", "mlp"]),
    dim=st.integers(1, 64),
    num_classes=st.integers(1, 16),
    hidden=st.integers(1, 48),
    output_scale=output_scales,
)
def test_predict_refuses_the_rows_predict_batch_refuses(seed, kind, dim, num_classes, hidden, output_scale):
    # One rule: a row's probabilities are finite exactly when its largest logit is (not NaN or
    # +-inf), and a row that breaks it is a NumericError in predict and in predict_batch alike.
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim, num_classes, kind, hidden, output_scale)
    X = rng.normal(scale=2.0, size=(8, dim))
    with np.errstate(all="ignore"):
        for x in X:
            row = oracle_forward(model, x[None])[0][0]  # the row's logits, alone
            refused = []
            for call in (lambda: predict(model, Instance("a", x, 0)), lambda: predict_batch(model, x[None])):
                try:
                    call()
                except NumericError as exc:
                    assert str(exc) == "model produced non-finite class probabilities"
                    refused.append(True)
                else:
                    refused.append(False)
            assert refused == [not np.isfinite(row.max())] * 2


def test_instance_features_are_c_ordered():
    wide = np.arange(12.0).reshape(3, 4)
    inst = Instance("a", wide[:, 1], 0)
    assert inst.features.flags.c_contiguous
    assert inst.features.tolist() == [1.0, 5.0, 9.0]


@st.composite
def cascades(draw):
    """A 1-3 stage cascade of linear and mlp models, a dataset of 0-30
    instances, and thresholds drawn mostly from the stages' own confidences
    on that dataset, so exact ties with the strict rule are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 16))
    num_classes = draw(st.integers(2, 4))
    costs = sorted(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    stages = tuple(
        StageSpec(
            random_model(
                rng, dim, num_classes, draw(st.sampled_from(["linear", "mlp"])), int(rng.integers(1, 9))
            ),
            cost,
        )
        for cost in costs
    )
    n = draw(st.integers(0, 30))
    instances = tuple(
        Instance(f"i{k}", rng.normal(scale=2.0, size=dim), int(rng.integers(num_classes)))
        for k in range(n)
    )
    dataset = Dataset(instances, num_classes, dim)
    X = dataset.feature_matrix()
    thresholds = []
    for stage in stages[:-1]:
        kind = draw(st.sampled_from(["tie", "tie", "tie", "uniform", "edge"]))
        if kind == "tie" and n:
            conf = predict_batch(stage.model, X).max(axis=1)
            thresholds.append(float(conf[draw(st.integers(0, n - 1))]))
        elif kind == "uniform":
            thresholds.append(draw(st.floats(0.0, 1.0)))
        else:
            thresholds.append(draw(st.sampled_from([0.0, 1.0])))
    full_cost = draw(st.integers(costs[0], 2 * sum(costs)))
    return Cascade(stages, tuple(thresholds), full_cost), dataset


@settings(max_examples=200, deadline=None)
@given(case=cascades())
def test_batched_core_matches_per_row_loop(case, tmp_path_factory):
    cascade, dataset = case
    batched = run_batched(cascade, dataset.ids(), dataset.feature_matrix())
    oracle = oracle_run(cascade, dataset)
    assert batched.ids == tuple(t.instance_id for t in oracle)
    assert batched.exit_stage.tolist() == [t.exit_stage for t in oracle]
    assert batched.probs.tolist() == [t.distribution.probs.tolist() for t in oracle]
    assert batched.executed_costs == tuple(t.executed_costs for t in oracle)
    assert batched.total_cost == tuple(t.total_cost for t in oracle)
    directory = tmp_path_factory.mktemp("traces")
    save_traces(batched, directory / "batched.jsonl")
    oracle_save(oracle, directory / "oracle.jsonl")
    assert (directory / "batched.jsonl").read_bytes() == (directory / "oracle.jsonl").read_bytes()
    # run_cascade evaluates each stage an instance reaches with one predict call.
    with mock.patch.object(cascadekit.cascade, "predict", wraps=predict) as counted:
        table = run_cascade(cascade, dataset)
    assert counted.call_count == sum(t.exit_stage + 1 for t in oracle)
    assert np.array_equal(table.exit_stage, batched.exit_stage)
    assert np.array_equal(table.probs, batched.probs)


def strict_exits(cascade, X):
    """Exit stage per row by the strict rule, from predict_batch confidences."""
    last = len(cascade.stages) - 1
    exits = np.full(X.shape[0], last)
    for k in reversed(range(last)):
        conf = predict_batch(cascade.stages[k].model, X).max(axis=1)
        exits[conf > cascade.thresholds[k]] = k
    return exits


@settings(max_examples=150, deadline=None)
@given(case=cascades(), share=st.floats(0.0, 1.0))
def test_calibrated_run_lands_on_the_strict_rule_exits(case, share):
    cascade, dataset = case
    if not len(dataset):
        return
    costs = [stage.layer_cost for stage in cascade.stages]
    target = 1.0 + share * (cascade.full_model_cost / costs[0] - 1.0)
    # A wide tolerance: every achievable operating point is accepted, so
    # the property covers every tau calibration can choose.
    thresholds = calibrate_threshold(cascade, dataset, target, tolerance=1.0)
    calibrated = Cascade(cascade.stages, thresholds, cascade.full_model_cost)
    traces = run_cascade(calibrated, dataset)
    assert np.array_equal(traces.exit_stage, strict_exits(calibrated, dataset.feature_matrix()))


def test_batched_core_handles_no_survivors_and_no_rows():
    rng = np.random.default_rng(1)
    stages = tuple(StageSpec(random_model(rng, 3, 2, "linear"), cost) for cost in (1, 4, 9))
    dataset = Dataset(
        tuple(Instance(f"i{k}", rng.normal(size=3), k % 2) for k in range(6)), 2, 3
    )
    ids, X = dataset.ids(), dataset.feature_matrix()
    everyone_exits = Cascade(stages, (0.0, 0.0), 12)  # a top probability is always > 0
    table = run_batched(everyone_exits, ids, X)
    assert table.exit_stage.tolist() == [0] * 6
    assert table.total_cost == (1,) * 6
    empty = run_batched(everyone_exits, [], np.zeros((0, 3)))
    assert len(empty) == 0 and empty.probs.shape == (0, 2)
    with pytest.raises(ValidationError, match="one feature row per id"):
        run_batched(everyone_exits, ids[:-1], X)


# Three blocks and a few rows: the property above draws at most 40 rows, one block.
BLOCKED_ROWS = 2 * BATCH_BLOCK_ROWS + 3


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("layout", ["C", "fortran"])
def test_rows_across_blocks_equal_predict(kind, layout):
    rng = np.random.default_rng(19)
    model = random_model(rng, 5, 3, kind, hidden=7)
    X = laid_out(rng.normal(scale=2.0, size=(BLOCKED_ROWS, 5)), layout, rng)
    probs = predict_batch(model, X)
    assert probs.shape == (BLOCKED_ROWS, 3)
    edges = {0, BLOCKED_ROWS - 1} | {k * BATCH_BLOCK_ROWS + d for k in (1, 2) for d in (-1, 0, 1)}
    for i in sorted(edges):
        assert np.array_equal(predict(model, Instance(f"i{i}", X[i], 0)).probs, probs[i])
    for size in (1, BATCH_BLOCK_ROWS - 1, BATCH_BLOCK_ROWS + 1, BLOCKED_ROWS):
        rows = rng.permutation(BLOCKED_ROWS)[:size]
        assert np.array_equal(predict_batch(model, X[rows]), probs[rows])


@pytest.mark.parametrize("layout", ["C", "fortran"])
def test_batched_core_across_blocks_matches_per_row_loop(layout):
    rng = np.random.default_rng(7)
    stages = tuple(
        StageSpec(random_model(rng, 4, 3, kind, hidden=5), cost)
        for kind, cost in (("linear", 1), ("mlp", 3), ("mlp", 8))
    )
    features = rng.normal(scale=2.0, size=(BLOCKED_ROWS, 4))
    labels = rng.integers(3, size=BLOCKED_ROWS)
    dataset = Dataset(
        tuple(Instance(f"i{k}", features[k], int(labels[k])) for k in range(BLOCKED_ROWS)), 3, 4
    )
    # Median confidences: about half the rows exit at each non-final stage.
    thresholds = tuple(
        float(np.median(predict_batch(stage.model, features).max(axis=1))) for stage in stages[:-1]
    )
    cascade = Cascade(stages, thresholds, 12)
    batched = run_batched(cascade, dataset.ids(), laid_out(features, layout, rng))
    oracle = oracle_run(cascade, dataset)
    assert set(batched.exit_stage.tolist()) == {0, 1, 2}
    assert batched.exit_stage.tolist() == [t.exit_stage for t in oracle]
    assert batched.probs.tolist() == [t.distribution.probs.tolist() for t in oracle]
    assert batched.total_cost == tuple(t.total_cost for t in oracle)


def peak_traced_bytes(call) -> int:
    """The most memory ``call()`` held at once, above what was held before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_predict_batch_memory_grows_with_the_block_not_the_rows():
    rng = np.random.default_rng(3)
    model = random_model(rng, 8, 2, "mlp", hidden=64)
    X = rng.normal(size=(50_000, 8))
    hidden_bytes = 50_000 * 64 * 8  # the hidden activations of every row at once
    assert peak_traced_bytes(lambda: predict_batch(model, X)) < hidden_bytes


@pytest.mark.parametrize("tau", [0.9, 1.0], ids=["some-exit", "every-row-reaches-every-stage"])
def test_run_cascade_memory_grows_with_its_traces_as_run_batched_does(tau):
    # run_cascade used to hold every row's Instance for the whole call and stack each
    # stage's probabilities from a list: 6.2x and 5.3x run_batched's peak here.
    rng = np.random.default_rng(8)
    stages = tuple(StageSpec(random_model(rng, 8, 2, "mlp", hidden=16), cost) for cost in (2, 12))
    n = 20_000
    columns = InstanceColumns(
        tuple(f"i{k}" for k in range(n)), rng.normal(size=(n, 8)), np.arange(n) % 2, np.full(n, NO_DIFFICULTY)
    )
    dataset = Dataset(columns, 2, 8)
    cascade = Cascade(stages, (tau,), 12)
    per_row = peak_traced_bytes(lambda: run_cascade(cascade, dataset))
    batched = peak_traced_bytes(lambda: run_batched(cascade, dataset.ids(), dataset.feature_matrix()))
    assert per_row < 1.5 * batched


def test_run_batched_reads_a_matrix_every_row_reaches_uncopied():
    rng = np.random.default_rng(4)
    stages = tuple(StageSpec(random_model(rng, 512, 2, "linear"), cost) for cost in (1, 4))
    X = rng.normal(size=(4_000, 512))
    X.flags.writeable = False
    ids = tuple(f"i{k}" for k in range(4_000))
    everyone_continues = Cascade(stages, (1.0,), 5)  # no top probability is > 1
    assert peak_traced_bytes(lambda: run_batched(everyone_continues, ids, X)) < X.nbytes


def test_a_sequence_column_is_bounded_without_a_copy():
    # The bounds of a list of ints were checked on an int64 copy of it: 470 KB here.
    values = [3, 5, 7] * 20_000
    assert peak_traced_bytes(lambda: column(values, integer, "x", 1)) < 8 * 1024
    assert column(values, integer, "x", 1)[0] is values


def oracle_bounded(values, bounds, missing):
    """``errors.column`` of ``integer`` with bounds, read value by value."""
    for k, value in enumerate(values):
        if missing is None or value != missing:
            try:
                integer(value, "x", *bounds)
            except ValidationError as exc:
                return values[:k], str(exc)
    return values, None


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(-3, 6) | st.sampled_from([2**63, 2**70, -(2**63) - 1])),
    bounds=st.tuples(st.integers(-2, 2)) | st.tuples(st.integers(-2, 2), st.integers(0, 5)),
    missing=st.sampled_from([None, -1]),
)
def test_a_sequence_column_is_bounded_as_value_by_value(values, bounds, missing):
    read, refusal = column(values, integer, "x", *bounds, missing=missing)
    assert (list(read), refusal) == oracle_bounded(values, bounds, missing)
    assert refusal is not None or read is values


def test_predict_batch_copies_a_fortran_ordered_matrix_once():
    rng = np.random.default_rng(5)
    model = random_model(rng, 256, 2, "linear")
    X = np.asfortranarray(rng.normal(size=(2_000, 256)))
    assert peak_traced_bytes(lambda: predict_batch(model, X)) < 1.5 * X.nbytes


def test_a_fortran_ordered_refusal_names_the_first_bad_row_in_row_order():
    model = random_model(np.random.default_rng(6), 2, 2, "linear")
    X = np.asfortranarray(np.full((3, 2), 0.5, dtype=object))
    X[1, 1], X[2, 0] = None, "x"  # column by column, row 2's value comes first
    with pytest.raises(ValidationError, match=r"^row 1: X must be a number, got None$"):
        predict_batch(model, X)
