import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascadekit import (
    ClassDistribution,
    Dataset,
    ExitTrace,
    Instance,
    MetricsReport,
    ScoredInstance,
    ScoredTable,
    ValidationError,
    accuracy,
    dis,
    ece,
    evaluate,
    f1_binary,
    load_metrics,
    save_metrics,
    scored_from_traces,
    write_sweep_csv,
)


def scored(conf, correct, difficulty=None):
    return ScoredInstance(
        confidence=conf,
        predicted_label=1,
        gold_label=1 if correct else 0,
        difficulty=difficulty,
    )


def brute_force_dis(items):
    easy = [s.confidence for s in items if s.difficulty == 0]
    hard = [s.confidence for s in items if s.difficulty == 1]
    inversions = sum(1 for d in hard for e in easy if d > e)
    return 1.0 - inversions / (len(easy) * len(hard))


# --- dis ---------------------------------------------------------------------


def test_dis_hand_case():
    items = [
        scored(0.9, True, 0),
        scored(0.8, True, 0),
        scored(0.85, False, 1),  # above one easy instance: 1 inversion
        scored(0.1, False, 1),
    ]
    assert dis(items) == pytest.approx(0.75)


def test_dis_perfect_and_zero():
    perfect = [scored(0.9, True, 0), scored(0.8, True, 0), scored(0.2, False, 1)]
    assert dis(perfect) == 1.0
    inverted = [scored(0.2, True, 0), scored(0.3, True, 0), scored(0.9, False, 1)]
    assert dis(inverted) == 0.0


def test_dis_ties_are_not_inversions():
    items = [scored(0.5, True, 0), scored(0.7, True, 0), scored(0.5, False, 1)]
    assert dis(items) == 1.0


def test_dis_requires_both_groups():
    with pytest.raises(ValidationError, match="both easy and difficult"):
        dis([scored(0.5, True, 0), scored(0.7, True, 0)])
    with pytest.raises(ValidationError, match="both easy and difficult"):
        dis([scored(0.5, True, 1)])
    with pytest.raises(ValidationError, match="difficulty label"):
        dis([scored(0.5, True, None), scored(0.7, True, 1)])
    with pytest.raises(ValidationError):
        dis([])


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.booleans(),
        ),
        min_size=2,
        max_size=40,
    )
)
def test_dis_matches_brute_force(pairs):
    items = [scored(c, True, int(d)) for c, d in pairs]
    assume(any(s.difficulty == 0 for s in items))
    assume(any(s.difficulty == 1 for s in items))
    assert dis(items) == pytest.approx(brute_force_dis(items), abs=1e-12)
    assert 0.0 <= dis(items) <= 1.0


@settings(max_examples=100)
@given(
    n_easy=st.integers(min_value=1, max_value=15),
    n_hard=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dis_rank_based_properties(n_easy, n_hard, seed):
    rng = np.random.default_rng(seed)
    n = n_easy + n_hard
    conf = rng.permutation(np.linspace(0.05, 0.95, n))  # distinct values
    flags = np.array([0] * n_easy + [1] * n_hard)
    items = [scored(c, True, int(f)) for c, f in zip(conf, flags)]
    base = dis(items)
    # invariant under any strictly increasing confidence transform
    squashed = [scored(c**3, True, int(f)) for c, f in zip(conf, flags)]
    assert dis(squashed) == pytest.approx(base, abs=1e-12)
    # swapping the group labels complements the score when no ties exist
    flipped = [scored(c, True, 1 - int(f)) for c, f in zip(conf, flags)]
    assert dis(flipped) == pytest.approx(1.0 - base, abs=1e-12)


# --- ece ----------------------------------------------------------------------


def test_ece_hand_case():
    # ten instances, bins (0.9,1.0], (0.7,0.8], (0.5,0.6], (0.3,0.4], [0,0.1]
    items = [
        scored(0.95, True),
        scored(0.95, False),
        scored(0.92, True),
        scored(0.75, True),
        scored(0.72, False),
        scored(0.55, True),
        scored(0.31, False),
        scored(0.39, False),
        scored(0.05, False),
        scored(0.0, True),
    ]
    assert ece(items) == pytest.approx(0.339, abs=1e-12)


def test_ece_zero_when_confidence_matches_hit_rate():
    items = [scored(0.8, i < 80) for i in range(100)]
    assert ece(items) == pytest.approx(0.0, abs=1e-12)


def test_ece_bin_edges_are_left_open():
    # 0.1 belongs to bin 1 ((0, 0.1]); nudging above moves it to bin 2
    low = [scored(0.1, False), scored(0.05, True)]
    crossing = [scored(0.10000001, False), scored(0.05, True)]
    # same bin: gap |0.5 - 0.075| = 0.425
    assert ece(low) == pytest.approx(0.425, abs=1e-9)
    # split bins: 0.5*|0 - 0.1| + 0.5*|1 - 0.05| = 0.525
    assert ece(crossing) == pytest.approx(0.525, abs=1e-7)


def test_ece_confidence_zero_goes_to_first_bin():
    assert ece([scored(0.0, False)]) == pytest.approx(0.0)
    assert ece([scored(0.0, True)]) == pytest.approx(1.0)


def test_ece_single_bin_is_global_gap():
    items = [scored(0.9, True), scored(0.6, False), scored(0.3, False)]
    mean_conf = (0.9 + 0.6 + 0.3) / 3
    assert ece(items, num_bins=1) == pytest.approx(abs(1 / 3 - mean_conf), abs=1e-12)


def test_ece_validation():
    with pytest.raises(ValidationError):
        ece([])
    with pytest.raises(ValidationError):
        ece([scored(0.5, True)], num_bins=0)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), st.booleans()),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=1, max_value=20),
)
def test_ece_bounded_and_sane(pairs, num_bins):
    items = [scored(c, ok) for c, ok in pairs]
    value = ece(items, num_bins)
    assert 0.0 <= value <= 1.0
    # fully confident and fully correct is perfectly calibrated
    sure = [scored(1.0, True) for _ in range(3)]
    assert ece(sure, num_bins) == 0.0


# --- accuracy / f1 ---------------------------------------------------------------


def test_accuracy_hand_case():
    items = [scored(0.9, True), scored(0.9, True), scored(0.9, False), scored(0.9, False)]
    assert accuracy(items) == 0.5
    with pytest.raises(ValidationError):
        accuracy([])


def test_f1_hand_case():
    # TP=2, FP=1, FN=1 -> precision = recall = 2/3 -> f1 = 2/3
    items = [
        ScoredInstance(0.9, 1, 1),
        ScoredInstance(0.9, 1, 1),
        ScoredInstance(0.9, 1, 0),
        ScoredInstance(0.9, 0, 1),
        ScoredInstance(0.9, 0, 0),
    ]
    assert f1_binary(items, positive_class=1) == pytest.approx(2 / 3)


def test_f1_degenerate_cases():
    no_positives = [ScoredInstance(0.9, 0, 0), ScoredInstance(0.9, 0, 0)]
    assert f1_binary(no_positives, positive_class=1) == 0.0


def test_scored_instance_validation():
    with pytest.raises(ValidationError):
        ScoredInstance(1.5, 0, 0)
    with pytest.raises(ValidationError):
        ScoredInstance(0.5, -1, 0)
    with pytest.raises(ValidationError):
        ScoredInstance(0.5, 0, 0, difficulty=3)


@pytest.mark.parametrize(
    "predicted, gold, difficulty, message",
    [(True, 1, None, "predicted_label must be an integer >= 0, got True"),
     (1.5, 1.5, None, "predicted_label must be an integer >= 0, got 1.5"),
     (1, np.float64(1.0), None, "gold_label must be an integer >= 0, got np.float64(1.0)"),
     (1, "1", None, "gold_label must be an integer >= 0, got '1'"),
     (1, 1, True, "difficulty must be an integer in [0, 1], got True"),
     (1, 1, 1.0, "difficulty must be an integer in [0, 1], got 1.0")],
    ids=["True-1-None", "1.5-1.5-None", "1-1.0-None", "1-1-None", "1-1-True", "1-1-1.0"],
)
def test_scored_instance_rejects_non_integers(predicted, gold, difficulty, message):
    # ScoredInstance(0.5, True, 1) and (0.5, 1.5, 1.5) used to build, and
    # accuracy over the two read 1.0.
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ScoredInstance(0.5, predicted, gold, difficulty)


def test_scored_instance_keeps_numpy_integers_as_python_ints():
    s = ScoredInstance(np.float32(0.5), np.int64(1), np.int32(0), np.int8(1))
    assert (s.predicted_label, s.gold_label, s.difficulty) == (1, 0, 1)
    assert type(s.confidence) is float and s.confidence == 0.5
    assert all(type(v) is int for v in (s.predicted_label, s.gold_label, s.difficulty))


@pytest.mark.parametrize(
    "predicted, gold, difficulty, message",
    [([1.5, True], [1.5, 1], None, "row 0: predicted_label must be an integer >= 0, got 1.5"),
     ([1, 1], [True, False], None, "row 0: gold_label must be an integer >= 0, got True"),
     ([1, 0], [1, 1], [1.0, 0.0], "row 0: difficulty must be an integer in [0, 1], got 1.0"),
     ([1, 0], [1, 1], [True, False], "row 0: difficulty must be an integer in [0, 1], got True"),
     (np.array([True, False]), [1, 1], None, "row 0: predicted_label must be an integer >= 0, got True"),
     ([1, 0], np.array([1.0, 2.5]), None, "row 0: gold_label must be an integer >= 0, got 1.0"),
     ([1, 0], [1, 1], np.array([0, 2]), "row 1: difficulty must be an integer in [0, 1], got 2")],
)
def test_scored_table_rejects_non_integer_columns(predicted, gold, difficulty, message):
    # The table's refusals name the row, in the words its ScoredInstance
    # uses; a bool column used to read "must hold integers, got dtype bool".
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ScoredTable([0.5, 0.5], predicted, gold, difficulty)


# --- a table is its rows: one scored rule ------------------------------------------------


def _no_flag(value):
    """Whether ``value`` is the table's integer for no difficulty label."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value == -1


SCORED_VALUES = {  # field: (right values, wrong values)
    "confidence": ([0.5, 1, 0, np.float32(0.25), np.float64(1.0)],
                   ["0.5", True, None, 1.5, -0.1, float("nan"), np.bool_(True), 1 + 0j]),
    "predicted_label": ([0, 1, np.int64(2), np.int32(0)], [-1, 1.5, True, "1", np.float64(1.0)]),
    "gold_label": ([0, 1, np.int64(2), np.uint8(1)], [-2, 2.5, False, None, np.bool_(True)]),
    "difficulty": ([0, 1, -1, np.int64(-1), np.int8(1)], [2, True, 1.0, -1.0, "0", np.bool_(False)]),
}


@st.composite
def scored_columns(draw):
    """Columns of 1-5 rows mixing Python and numpy values; a row is right
    in every field unless it draws faults (one row in four, one or two
    faults), and a fault-free column may come as an ndarray (the
    difficulty column also as None)."""
    columns, seen = {name: [] for name in SCORED_VALUES}, set()
    for _ in range(draw(st.integers(1, 5))):
        faults = set()
        if draw(st.integers(0, 3)) == 0:
            faults = draw(st.sets(st.sampled_from(list(SCORED_VALUES)), min_size=1, max_size=2))
        seen |= faults
        for name, (right, wrong) in SCORED_VALUES.items():
            columns[name].append(draw(st.sampled_from(wrong if name in faults else right)))
    for name, dtype in zip(SCORED_VALUES, (np.float64, np.int64, np.int64, np.int64)):
        if name not in seen and draw(st.booleans()):
            columns[name] = np.array(columns[name], dtype=dtype)
    if "difficulty" not in seen and draw(st.booleans()):
        columns["difficulty"] = None
    return list(columns.values())


@settings(max_examples=400, deadline=None)
@given(columns=scored_columns())
def test_a_scored_table_builds_exactly_when_each_row_builds_alone(columns):
    conf, predicted, gold, flags = columns
    flags = [-1] * len(conf) if flags is None else flags

    def alone(k):
        try:
            return ScoredInstance(conf[k], predicted[k], gold[k], None if _no_flag(flags[k]) else flags[k])
        except ValidationError as exc:
            return str(exc)

    rows = [alone(k) for k in range(len(conf))]
    try:
        table = ScoredTable(*columns)
    except ValidationError as exc:
        table = str(exc)
    faulty = [k for k, row in enumerate(rows) if isinstance(row, str)]
    if faulty:
        assert table == f"row {faulty[0]}: {rows[faulty[0]]}"
        return
    assert list(table) == rows
    assert [type(v) for row in table for v in vars(row).values()] == [
        type(v) for row in rows for v in vars(row).values()
    ]


# --- trace pairing / evaluate ------------------------------------------------------


def make_trace(inst_id, exit_stage, probs, costs):
    dist = ClassDistribution(np.asarray(probs, dtype=np.float64))
    return ExitTrace(
        instance_id=inst_id,
        exit_stage=exit_stage,
        distribution=dist,
        confidence=float(np.max(probs)),
        executed_costs=tuple(costs),
        total_cost=sum(costs),
    )


def tiny_dataset():
    instances = (
        Instance("a", np.zeros(1), 1),
        Instance("b", np.zeros(1), 0),
        Instance("c", np.zeros(1), 1),
    )
    return Dataset(instances, num_classes=2, feature_dim=1)


def tiny_traces():
    return [
        make_trace("a", 0, [0.1, 0.9], [2]),        # correct, conf 0.9
        make_trace("b", 1, [0.6, 0.4], [2, 10]),    # correct, conf 0.6
        make_trace("c", 1, [0.7, 0.3], [2, 10]),    # wrong, conf 0.7
    ]


def test_scored_from_traces_pairs_by_id():
    items = scored_from_traces(tiny_traces(), tiny_dataset())
    assert [s.gold_label for s in items] == [1, 0, 1]
    assert [s.predicted_label for s in items] == [1, 0, 0]
    assert [s.correct for s in items] == [True, True, False]


def test_scored_from_traces_rejects_id_mismatch():
    traces = tiny_traces()[:2]
    with pytest.raises(ValidationError, match="do not match"):
        scored_from_traces(traces, tiny_dataset())
    doubled = tiny_traces() + [tiny_traces()[0]]
    with pytest.raises(ValidationError, match="duplicate"):
        scored_from_traces(doubled, tiny_dataset())


def test_scored_from_traces_difficulty_map():
    labels = {"a": 0, "b": 1, "c": 1}
    items = scored_from_traces(tiny_traces(), tiny_dataset(), labels)
    assert [s.difficulty for s in items] == [0, 1, 1]
    with pytest.raises(ValidationError, match="no difficulty"):
        scored_from_traces(tiny_traces(), tiny_dataset(), {"a": 0})


@pytest.mark.parametrize("labels", [None, 5, [0, 1, 1], "abc"], ids=["None", "int", "list", "str"])
def test_a_flag_map_must_be_a_mapping(labels):
    message = rf"^a difficulty map must map ids to flags, got {type(labels).__name__}$"
    with pytest.raises(ValidationError, match=message):
        tiny_dataset().with_difficulty(labels)
    if labels is not None:  # None there: no map
        with pytest.raises(ValidationError, match=message):
            scored_from_traces(tiny_traces(), tiny_dataset(), labels)
        with pytest.raises(ValidationError, match=message):
            evaluate(tiny_traces(), tiny_dataset(), 12, dis_difficulty=labels)


MAP_VALUES = (None, 0, 1, -1, 2, True, 1.0, "1", np.int8(1), np.int64(0))


def _by_rows(ids, read_row):
    """``read_row`` over ``ids`` in order: the values it reads, or the first refusal."""
    try:
        return [read_row(inst_id) for inst_id in ids]
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_a_flag_map_reads_as_per_row_reads_do(data, n):
    ids = [f"i{k}" for k in range(n)]
    labels = {inst_id: data.draw(st.sampled_from(MAP_VALUES)) for inst_id in ids}
    for inst_id in data.draw(st.lists(st.sampled_from(ids), max_size=2)):
        labels.pop(inst_id, None)  # an id the map lacks
    labels.update(data.draw(st.dictionaries(st.sampled_from(["x", "y"]), st.sampled_from(MAP_VALUES))))
    dataset = Dataset([Instance(inst_id, np.zeros(1), k % 2) for k, inst_id in enumerate(ids)], 2, 1)
    order = data.draw(st.permutations(range(n)))
    traces = [make_trace(ids[k], 0, [0.4, 0.6] if k % 3 else [0.8, 0.2], [2]) for k in order]
    trace_ids = [ids[k] for k in order]

    def dataset_row(inst_id):  # the rule of an Instance alone
        if inst_id not in labels:
            raise ValidationError(f"difficulty map misses id {inst_id!r}")
        return Instance(inst_id, np.zeros(1), 0, labels[inst_id]).difficulty

    def scored_row(inst_id):  # the rule of a ScoredInstance alone
        if inst_id not in labels:
            raise ValidationError(f"no difficulty label for instance {inst_id!r}")
        return ScoredInstance(0.5, 0, 0, labels[inst_id]).difficulty

    def outcome(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            return f"ValidationError: {exc}"

    want = _by_rows(ids, dataset_row)
    merged = outcome(dataset.with_difficulty, labels)
    assert merged == want if isinstance(want, str) else [inst.difficulty for inst in merged.instances] == want
    if not isinstance(want, str):
        assert all(type(flag) in (int, type(None)) for flag in (i.difficulty for i in merged.instances))
    want = _by_rows(trace_ids, scored_row)
    table = outcome(scored_from_traces, traces, dataset, labels)
    assert table == want if isinstance(want, str) else [row.difficulty for row in table] == want
    report = outcome(evaluate, traces, dataset, 2, dis_difficulty=labels)
    if isinstance(want, str):
        assert report == want
    else:  # the same report as for the map's flags as Python ints
        plain = dict(zip(trace_ids, want))
        assert report == outcome(evaluate, traces, dataset, 2, dis_difficulty=plain)


def test_evaluate_recomputes_each_field():
    report = evaluate(
        tiny_traces(),
        tiny_dataset(),
        full_model_cost=12,
        dis_difficulty={"a": 0, "b": 1, "c": 1},
        positive_class=1,
        num_stages=3,
    )
    assert report.num_instances == 3
    assert report.accuracy == pytest.approx(2 / 3)
    assert report.exit_histogram == (1, 2, 0)
    # mean cost (2 + 12 + 12) / 3; speedup = 12 / mean
    assert report.speedup == pytest.approx(12 / (26 / 3))
    items = scored_from_traces(tiny_traces(), tiny_dataset(), {"a": 0, "b": 1, "c": 1})
    assert report.ece == pytest.approx(ece(items))
    assert report.dis == pytest.approx(dis(items))
    assert report.f1 == pytest.approx(f1_binary(items, 1))


def test_evaluate_optional_fields_default_to_none():
    report = evaluate(tiny_traces(), tiny_dataset(), full_model_cost=12)
    assert report.dis is None
    assert report.f1 is None
    assert report.exit_histogram == (1, 2)  # sized by deepest observed exit


@pytest.mark.parametrize("cost", [12.5, True], ids=["float", "bool"])
def test_evaluate_rejects_non_integer_cost(cost):
    with pytest.raises(ValidationError, match="full_model_cost must be an integer"):
        evaluate(tiny_traces(), tiny_dataset(), full_model_cost=cost)


def test_evaluate_rejects_undersized_histogram():
    with pytest.raises(ValidationError, match="num_stages"):
        evaluate(tiny_traces(), tiny_dataset(), full_model_cost=12, num_stages=1)


def test_metrics_report_validation():
    with pytest.raises(ValidationError, match="outside"):
        MetricsReport(1, 1.5, 0.0, 2.0, (1,))
    with pytest.raises(ValidationError, match="histogram"):
        MetricsReport(2, 0.5, 0.0, 2.0, (1,))


# --- serialization -------------------------------------------------------------------


def test_metrics_roundtrip(tmp_path):
    report = evaluate(
        tiny_traces(),
        tiny_dataset(),
        full_model_cost=12,
        dis_difficulty={"a": 0, "b": 1, "c": 1},
    )
    path = tmp_path / "metrics.json"
    save_metrics(report, path)
    assert load_metrics(path) == report


@pytest.mark.parametrize("field", ["speedup", "accuracy", "ece", "f1", "dis"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_metrics_load_rejects_non_finite(tmp_path, field, value):
    # A NaN speedup used to load; no CLI command reads a metrics file, so the
    # loader is the boundary.
    report = MetricsReport(2, 0.5, 0.25, 2.0, (1, 1), f1=0.5, dis=0.75)
    path = tmp_path / "metrics.json"
    save_metrics(report, path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}: malformed metrics report: {field} must be a finite number"):
        load_metrics(path)


def test_sweep_csv_golden(tmp_path):
    report_a = MetricsReport(2, 0.5, 0.25, 2.0, (1, 1), dis=0.75)
    report_b = MetricsReport(2, 1.0, 0.125, 3.0, (2, 0))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, [(0.5, report_a), (0.875, report_b)])
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,speedup,accuracy,dis,ece"
    assert lines[1] == "0.5,2.0,0.5,0.75,0.25"
    assert lines[2] == "0.875,3.0,1.0,,0.125"
