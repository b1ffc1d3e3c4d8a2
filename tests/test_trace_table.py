"""The trace table against the per-instance code it replaced.

The oracles below are the per-instance implementations: the cascade loop
that built one ``ExitTrace`` per instance, the per-record trace writer and
reader, and the metrics over ``ScoredInstance`` lists.  Every table path
must match them bit for bit.
"""

import json
import math
import os
import re
import reprlib
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cascadekit
from cascadekit import (
    Architecture,
    Cascade,
    ClassDistribution,
    ClassifierModel,
    Dataset,
    ExitTrace,
    Instance,
    MetricsReport,
    ScoredInstance,
    ScoredTable,
    StageSpec,
    TraceTable,
    TrainConfig,
    ValidationError,
    cascade_predict,
    confidence,
    empirical_gain,
    evaluate,
    load_traces,
    predict,
    run_cascade,
    save_traces,
)
from cascadekit.cascade import trace_from_dict
from cascadekit.errors import column, column_rows, integer, real, string
from cascadekit.jsonio import decoder, iter_jsonl, write_jsonl

ROOT = Path(__file__).resolve().parent.parent


# --- oracles: the per-instance implementations ----------------------------------------


def oracle_cascade_predict(cascade, instance):
    executed = []
    last = len(cascade.stages) - 1
    for stage_index, stage in enumerate(cascade.stages):
        dist = predict(stage.model, instance)
        executed.append(stage.layer_cost)
        conf = confidence(dist)
        if stage_index == last or conf > cascade.thresholds[stage_index]:
            return ExitTrace(instance.id, stage_index, dist, conf, tuple(executed), sum(executed))
    raise AssertionError("unreachable")


def oracle_run(cascade, dataset):
    return [oracle_cascade_predict(cascade, inst) for inst in dataset.instances]


def oracle_save(traces, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in traces:
            record = {
                "instance_id": t.instance_id,
                "exit_stage": t.exit_stage,
                "probs": [float(p) for p in t.distribution.probs],
                "confidence": t.confidence,
                "executed_costs": list(t.executed_costs),
                "total_cost": t.total_cost,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass(frozen=True)
class OracleTrace:
    instance_id: str
    exit_stage: int
    distribution: ClassDistribution
    confidence: float
    executed_costs: tuple
    total_cost: int

    @property
    def predicted_label(self):
        return self.distribution.predicted_label


# A trace record's fields, in the order the loader looks them up: the first missing one is named.
RECORD_FIELDS = ("probs", "confidence", "instance_id", "exit_stage", "executed_costs", "total_cost")


def flat_array(value):
    """Whether a JSON value is an array that holds no array."""
    return type(value) is list and list not in set(map(type, value))


@decoder("trace record")
def oracle_record(payload):
    """The per-record reader under the value rule, with the checks each trace ran on its own, in the
    trace rules' order: every field present, the distribution, each value's type, then the confidence
    and the costs."""
    probs, conf, instance_id, exit_stage, costs, total = [payload[key] for key in RECORD_FIELDS]
    if not flat_array(probs):
        raise ValidationError("probs must be a flat vector")
    distribution = ClassDistribution(np.array([real(p, "probs") for p in probs]))
    instance_id = string(instance_id, "instance_id")
    exit_stage = integer(exit_stage, "exit_stage")
    total = integer(total, "total_cost")
    if type(costs) is not list:
        raise ValidationError(f"executed_costs must be a sequence of integers, got {reprlib.repr(costs)}")
    costs = tuple(integer(cost, "executed_costs", 1) for cost in costs)  # no stage costs less than a layer
    conf = real(conf, "confidence")
    if conf != confidence(distribution):
        raise ValidationError(f"confidence {conf!r} is not the largest of the probabilities")
    if exit_stage != len(costs) - 1 or not costs:
        raise ValidationError(
            "executed_costs must cover stages 0..exit_stage, and exit_stage must be >= 0"
        )
    if total != sum(costs):
        raise ValidationError("total_cost must equal the sum of executed_costs")
    return OracleTrace(instance_id, exit_stage, distribution, conf, costs, total)


def oracle_read_jsonl(path, decode):
    """Decode record by record, naming the line of the first bad one."""
    out = []
    for line_no, record in iter_jsonl(path):
        try:
            out.append(decode(record))
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {line_no}: {exc}") from None
    return out


def oracle_load(path):
    return oracle_read_jsonl(path, oracle_record)


def oracle_scored(traces, dataset, difficulty=None):
    trace_ids = [t.instance_id for t in traces]
    if len(set(trace_ids)) != len(trace_ids):
        raise ValidationError("duplicate instance ids in traces")
    dataset_ids = set(dataset.ids())
    if set(trace_ids) != dataset_ids:
        missing = sorted(dataset_ids - set(trace_ids))[:3]
        extra = sorted(set(trace_ids) - dataset_ids)[:3]
        raise ValidationError(
            f"trace ids do not match the dataset (missing {missing}, unexpected {extra})"
        )
    gold = {inst.id: inst.label for inst in dataset.instances}
    scored = []
    for trace in traces:
        d = None
        if difficulty is not None:
            if trace.instance_id not in difficulty:
                raise ValidationError(f"no difficulty label for instance {trace.instance_id!r}")
            d = difficulty[trace.instance_id]
        label = gold[trace.instance_id]
        scored.append(ScoredInstance(trace.confidence, trace.predicted_label, label, d))
    return scored


def oracle_accuracy(scored):
    return sum(s.correct for s in scored) / len(scored)


def oracle_ece(scored, num_bins=10):
    conf = np.array([s.confidence for s in scored])
    correct = np.array([s.correct for s in scored], dtype=np.float64)
    bins = np.clip(np.ceil(conf * num_bins).astype(np.int64), 1, num_bins)
    total = 0.0
    for k in range(1, num_bins + 1):
        members = bins == k
        count = int(members.sum())
        if count:
            total += (count / len(scored)) * abs(correct[members].mean() - conf[members].mean())
    return float(total)


def oracle_f1(scored, positive):
    tp = sum(1 for s in scored if s.predicted_label == positive and s.gold_label == positive)
    fp = sum(1 for s in scored if s.predicted_label == positive and s.gold_label != positive)
    fn = sum(1 for s in scored if s.predicted_label != positive and s.gold_label == positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def oracle_dis(scored):
    if any(s.difficulty is None for s in scored):
        raise ValidationError("dis requires a difficulty label on every instance")
    easy = [s.confidence for s in scored if s.difficulty == 0]
    hard = [s.confidence for s in scored if s.difficulty == 1]
    if not easy or not hard:
        raise ValidationError(
            "dis is undefined without both easy and difficult instances "
            f"(got {len(easy)} easy, {len(hard)} difficult)"
        )
    inversions = sum(1 for h in hard for e in easy if h > e)
    return 1.0 - inversions / (len(easy) * len(hard))


def oracle_evaluate(traces, dataset, full_cost, difficulty, positive, num_stages):
    scored = oracle_scored(traces, dataset, difficulty)
    deepest = max(t.exit_stage for t in traces)
    num_stages = deepest + 1 if num_stages is None else num_stages
    histogram = [0] * num_stages
    for t in traces:
        histogram[t.exit_stage] += 1
    return MetricsReport(
        num_instances=len(traces),
        accuracy=oracle_accuracy(scored),
        ece=oracle_ece(scored),
        speedup=full_cost / (sum(t.total_cost for t in traces) / len(traces)),
        exit_histogram=tuple(histogram),
        f1=oracle_f1(scored, positive),
        dis=oracle_dis(scored) if difficulty is not None else None,
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.instance_id, g.exit_stage, g.executed_costs, g.total_cost) == (
            w.instance_id,
            w.exit_stage,
            w.executed_costs,
            w.total_cost,
        )
        assert g.confidence == w.confidence and type(g.confidence) is float
        assert np.array_equal(g.distribution.probs, w.distribution.probs)
        assert g.predicted_label == w.predicted_label


# --- run -> evaluate -> save -> load against the oracles ------------------------------


@st.composite
def runs(draw):
    """A 1-3 stage linear cascade, a small dataset, and thresholds that
    include confidences some instance reaches exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_stages = draw(st.integers(1, 3))
    num_classes = draw(st.integers(2, 3))
    dim = 2
    costs = sorted(draw(st.lists(st.integers(1, 9), min_size=num_stages, max_size=num_stages)))
    def model():
        weights = {"w": rng.normal(scale=3.0, size=(dim, num_classes))}
        weights["b"] = rng.normal(size=num_classes)
        return ClassifierModel(Architecture("linear"), dim, num_classes, weights, TrainConfig())

    stages = tuple(StageSpec(model(), cost) for cost in costs)
    n = draw(st.integers(1, 12))
    instances = tuple(
        Instance(f"i{k}", rng.normal(size=dim), int(rng.integers(num_classes)), k % 2)
        for k in range(n)
    )
    dataset = Dataset(instances, num_classes, dim)
    thresholds = []
    for s in range(num_stages - 1):
        kind = draw(st.sampled_from(["tie", "tie", "uniform", "edge"]))
        if kind == "tie":
            inst = instances[draw(st.integers(0, n - 1))]
            thresholds.append(confidence(predict(stages[s].model, inst)))
        elif kind == "uniform":
            thresholds.append(draw(st.floats(0.0, 1.0)))
        else:
            thresholds.append(draw(st.sampled_from([0.0, 1.0])))
    full_cost = draw(st.integers(costs[0], 2 * sum(costs)))
    return Cascade(stages, tuple(thresholds), full_cost), dataset


@settings(max_examples=150, deadline=None)
@given(case=runs(), data=st.data())
def test_table_path_matches_per_instance_oracles(case, data, tmp_path_factory):
    cascade, dataset = case
    directory = tmp_path_factory.mktemp("traces")
    table = run_cascade(cascade, dataset)
    oracle = oracle_run(cascade, dataset)
    assert isinstance(table, TraceTable)
    assert_rows_equal(table, oracle)
    assert_rows_equal([cascade_predict(cascade, inst) for inst in dataset.instances], oracle)

    save_traces(table, directory / "table.jsonl")
    oracle_save(oracle, directory / "oracle.jsonl")
    assert (directory / "table.jsonl").read_bytes() == (directory / "oracle.jsonl").read_bytes()
    loaded = load_traces(directory / "table.jsonl")
    assert_rows_equal(loaded, oracle_load(directory / "oracle.jsonl"))

    difficulty = data.draw(st.sampled_from([None, "instances", "random"]), label="difficulty")
    if difficulty == "instances":
        difficulty = {inst.id: inst.difficulty for inst in dataset.instances}
    elif difficulty == "random":
        flags = st.sampled_from([0, 1, True, 1.0])
        difficulty = {inst.id: data.draw(flags) for inst in dataset.instances}
    num_stages = data.draw(st.sampled_from([None, len(cascade.stages)]), label="num_stages")
    args = (dataset, cascade.full_model_cost, difficulty, 1, num_stages)
    want = outcome(oracle_evaluate, oracle, *args)
    for traces in (table, loaded, oracle):
        assert outcome(evaluate, traces, *args) == want


# --- load validation against the per-record reader ------------------------------------


# Every kind of JSON value: strings (one holding a lone surrogate), arrays (one nested), objects,
# null, NaN and the infinities, booleans, and integers up to one beyond int64 and one beyond float range.
REPLACEMENTS = ["x", "1", "t\ud800", [], [[0.5]], {}, {"probs": [1.0]}, None, math.nan, math.inf,
                -math.inf, True, False, 1, 0, -1, 2.5, 2**70, 2**1100]
KEYS = ["instance_id", "exit_stage", "probs", "confidence", "executed_costs", "total_cost"]


def _valid_record(rng, k, num_classes):
    probs = rng.dirichlet(np.ones(num_classes)).tolist()
    costs = [int(c) for c in rng.integers(1, 9, size=int(rng.integers(1, 4)))]
    return {
        "instance_id": f"t{k}",
        "exit_stage": len(costs) - 1,
        "probs": probs,
        "confidence": max(probs),
        "executed_costs": costs,
        "total_cost": sum(costs),
    }


def _mutate(record, rng, data):
    """One edit of one field; an edit that no longer applies (its field was
    dropped or replaced by an earlier edit, say by an int too large for a
    float) does nothing."""
    try:
        _edit(record, rng, data)
    except (TypeError, KeyError, IndexError, ValueError, OverflowError):
        pass


def _edit(record, rng, data):
    kind = data.draw(
        st.sampled_from(["replace", "entry", "drop", "prob", "conf", "stage", "cost", "total", "length"]),
        label="mutation",
    )
    if kind == "replace":
        record[data.draw(st.sampled_from(KEYS))] = data.draw(st.sampled_from(REPLACEMENTS))
    elif kind == "entry":  # one entry of an array field
        entries = record[data.draw(st.sampled_from(["probs", "executed_costs"]))]
        entries[int(rng.integers(len(entries)))] = data.draw(st.sampled_from(REPLACEMENTS))
    elif kind == "drop":
        del record[data.draw(st.sampled_from(KEYS))]
    elif kind == "prob":
        j = int(rng.integers(len(record["probs"])))
        delta = data.draw(st.sampled_from([1e-12, 5e-10, 2e-9, 1e-6, -2.0, 2.0, math.nan, 2**1100]))
        record["probs"][j] = 2**1100 if delta == 2**1100 else record["probs"][j] + delta
    elif kind == "conf":
        record["confidence"] = data.draw(
            st.sampled_from([record["confidence"] - 1e-12, 1, True, 0.0, max(record["probs"])])
        )
    elif kind == "stage":
        record["exit_stage"] += data.draw(st.sampled_from([-1, 1, 2**70]))
    elif kind == "cost":
        costs = record["executed_costs"]
        record["executed_costs"] = data.draw(st.sampled_from([[], costs + [3], [2**70], [0], costs + [-1]]))
    elif kind == "total":
        record["total_cost"] += data.draw(st.sampled_from([-1, 1, 2**70]))
    else:
        probs = record["probs"]
        record["probs"] = probs + [0.0] if data.draw(st.booleans()) else probs[:-1]


def _ragged_line(lines):
    """The line the table loader refuses for a probs length unlike the first record's, or None:
    lengths count up to a line that stops the read (invalid JSON, or no object holding every
    field) and to a record whose probs is not a flat array."""
    width = None
    for line_no, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        try:
            probs = [json.loads(text)[key] for key in RECORD_FIELDS][0]
        except (ValueError, TypeError, KeyError):
            return None
        if not flat_array(probs):
            return None
        if width is None:
            width = len(probs)
        elif len(probs) != width:
            return line_no, len(probs), width
    return None


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_matrix_checks_accept_and_reject_what_per_record_checks_do(seed, data, tmp_path_factory):
    rng = np.random.default_rng(seed)
    num_classes = data.draw(st.integers(1, 9), label="classes")
    records = [_valid_record(rng, k, num_classes) for k in range(data.draw(st.integers(1, 6)))]
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        _mutate(records[int(rng.integers(len(records)))], rng, data)
    lines = [json.dumps(r) for r in records]
    if data.draw(st.booleans(), label="odd line"):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "{broken", "[1, 2]", "null"])))
    path = tmp_path_factory.mktemp("load") / "traces.jsonl"
    path.write_text("".join(line + "\n" for line in lines))

    want = outcome(oracle_load, path)
    got = outcome(load_traces, path)
    ragged = _ragged_line(lines)
    oracle_line = re.match(rf"ValidationError: {re.escape(str(path))}: line (\d+):", str(want))
    if ragged and (oracle_line is None or int(oracle_line.group(1)) >= ragged[0]):
        line_no, length, width = ragged
        assert got == (
            f"ValidationError: {path}: line {line_no}: malformed trace record: "
            f"probs has {length} entries, the first record's has {width}"
        )
    elif isinstance(want, str):
        assert got == want
    else:
        assert_rows_equal(got, want)
    for record in records:  # each record alone, through the one-record API
        alone = outcome(oracle_record, record)
        if isinstance(alone, str):
            assert outcome(trace_from_dict, record) == alone
        else:
            assert_rows_equal([trace_from_dict(record)], [alone])


# --- a table is its rows: one trace rule ------------------------------------------------


def _integers(value, right):
    """``value`` as a type that holds an integer, or as one that does not."""
    if right:
        return st.sampled_from([value, value, np.int64(value), np.int32(value)])
    return st.sampled_from([float(value), np.float64(value), str(value), value + 0.5, value == 1])


TRACE_FAULTS = ["id", "stage", "cost", "total", "distribution", "probs", "cover", "sum"]


@st.composite
def trace_columns(draw):
    """Columns of 1-5 rows whose values mix Python and numpy integers,
    strings, bools and floats.  A row is right in every field unless it
    draws faults (one row in four, one or two faults, and wrong
    probabilities in one row in eight); probabilities without a value the
    rule refuses may come as an ndarray."""
    width = draw(st.integers(1, 3))
    one_hot = [1.0] + [0.0] * (width - 1)
    distributions = [one_hot, one_hot[::-1], [1.0 / width] * width]
    wrong_distributions = [[0.5] * width, [math.nan] * width, ([-1.0, 2.0] + one_hot)[:width]]
    ids, stages, probs, costs, totals = [], [], [], [], []
    wrong_probs = False
    for k in range(draw(st.integers(1, 5))):
        faults = set()
        if draw(st.integers(0, 3)) == 0:
            faults = draw(st.sets(st.sampled_from(TRACE_FAULTS), min_size=1, max_size=2))
        if draw(st.integers(0, 7)) == 0:  # wrong probabilities, once more in eight rows
            faults.add("probs")
        ran = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
        stage = len(ran) - 1
        if "cover" in faults:
            ran, stage = draw(st.sampled_from([(ran, stage + 1), (ran, stage - 1), ([], -1)]))
        total = sum(ran) + ("sum" in faults)
        right_ids = [f"r{k}", np.str_(f"r{k}")]
        ids.append(draw(st.sampled_from([k, None, b"r"] if "id" in faults else right_ids)))
        stages.append(draw(_integers(stage, "stage" not in faults)))
        row = list(draw(st.sampled_from(wrong_distributions if "distribution" in faults else distributions)))
        if "probs" in faults:  # a value the value rule refuses, or the row nested in a list
            wrong = draw(st.sampled_from(["0.5", True, None, "nested"]))
            if wrong == "nested":
                row = [row]
            else:
                row[draw(st.integers(0, width - 1))] = wrong
        wrong_probs |= "probs" in faults
        probs.append(row)
        row = [draw(_integers(c, True)) for c in ran]
        if "cost" in faults and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_integers(ran[0], False))
        costs.append(tuple(row) if draw(st.booleans()) else row)
        totals.append(draw(_integers(total, "total" not in faults)))
    if not wrong_probs and draw(st.booleans()):
        probs = np.array(probs)
    return ids, stages, probs, costs, totals


@settings(max_examples=400, deadline=None)
@given(columns=trace_columns())
def test_a_table_builds_exactly_when_each_row_builds_alone(columns, tmp_path_factory):
    ids, stages, probs, costs, totals = columns

    def alone(k):
        try:
            distribution = ClassDistribution(probs[k])
            top = confidence(distribution)
            return ExitTrace(ids[k], stages[k], distribution, top, costs[k], totals[k])
        except ValidationError as exc:
            return str(exc)

    rows = [alone(k) for k in range(len(ids))]
    table = outcome(TraceTable, *columns)
    faulty = [k for k, row in enumerate(rows) if isinstance(row, str)]
    if faulty:
        assert table == f"ValidationError: trace {ids[faulty[0]]!r}: {rows[faulty[0]]}"
        return
    assert_rows_equal(table, rows)
    path = tmp_path_factory.mktemp("rows") / "traces.jsonl"
    save_traces(table, path)
    assert_rows_equal(load_traces(path), rows)


def test_a_record_reports_its_confidence_before_its_costs(tmp_path):
    record = {"instance_id": "a", "exit_stage": 1, "probs": [0.25, 0.75], "confidence": 0.7,
              "executed_costs": [2], "total_cost": 3}
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(record) + "\n")
    message = re.escape("confidence 0.7 is not the largest of the probabilities")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        oracle_record(record)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: line 1: {message}$"):
        load_traces(path)


def test_a_cost_below_one_layer_is_refused_at_its_line(tmp_path):
    records = [
        {"instance_id": "a", "exit_stage": 1, "probs": [0.25, 0.75], "confidence": 0.75,
         "executed_costs": [2, 10], "total_cost": 12},
        {"instance_id": "b", "exit_stage": 1, "probs": [0.5, 0.5], "confidence": 0.5,
         "executed_costs": [2, 0], "total_cost": 2},
    ]
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = "executed_costs must be an integer >= 1, got 0"
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: line 2: {message}')}$"):
        load_traces(path)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        oracle_record(records[1])


# The record a load stops in was never checked, so its exit stage beyond int64 must not
# reach the int64 cast (that raised a raw OverflowError).
RECORD_WITHOUT_COSTS = (
    '{"confidence": 1.0, "exit_stage": 1180591620717411303424, "instance_id": "a", '
    '"probs": [1.0], "total_cost": 2}\n'
)
MISSING_COSTS = "line 1: malformed trace record: missing required key 'executed_costs'"


def test_a_stopped_load_reports_the_record_not_an_overflow(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text(RECORD_WITHOUT_COSTS)
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {MISSING_COSTS}')}$"):
        load_traces(path)


def test_ragged_probs_are_rejected(tmp_path):
    path = tmp_path / "traces.jsonl"
    records = [
        {"instance_id": "a", "exit_stage": 0, "probs": [0.25, 0.75], "confidence": 0.75,
         "executed_costs": [2], "total_cost": 2},
        {"instance_id": "b", "exit_stage": 0, "probs": [0.5, 0.25, 0.25], "confidence": 0.5,
         "executed_costs": [2], "total_cost": 2},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert len(oracle_load(path)) == 2  # a record alone is valid
    with pytest.raises(ValidationError, match=r"line 2: malformed trace record: probs has 3 "):
        load_traces(path)


def test_empty_trace_file_loads_and_saves(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text("\n")
    table = load_traces(path)
    assert len(table) == 0 and list(table) == []
    save_traces(table, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_text() == ""


# --- the column writer and reader against the per-record ones ----------------------------


def reference_save(table, path):
    """The per-record writer: one dict per row through ``write_jsonl``."""
    write_jsonl(
        path,
        (
            {"confidence": conf, "executed_costs": costs, "exit_stage": stage,
             "instance_id": instance_id, "probs": probs, "total_cost": total}
            for instance_id, stage, probs, conf, costs, total in zip(
                table.ids, table.exit_stage.tolist(), table.probs.tolist(),
                table.confidence.tolist(), table.executed_costs, table.total_cost,
            )
        ),
    )


# Quotes, backslashes, control characters, non-ASCII and astral characters: any that
# UTF-8 encodes (an id holding a surrogate code point is refused).
ID_TEXT = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f\x80é€ \U0001f600\U0010ffff') | st.characters(codec="utf-8"))
SMALL_PROBABILITIES = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300])


@st.composite
def saved_tables(draw):
    """Valid tables of 0-6 rows, 1-9 classes, probabilities down to subnormals and 0.0,
    and executed costs up to 2**70."""
    width = draw(st.integers(1, 9), label="classes")
    ids, stages, probs, costs = [], [], [], []
    for _ in range(draw(st.integers(0, 6), label="rows")):
        ids.append(draw(ID_TEXT))
        row = draw(st.lists(SMALL_PROBABILITIES | st.floats(0.0, 1.0 / width), min_size=width - 1,
                            max_size=width - 1))
        row.insert(draw(st.integers(0, width - 1)), 1.0 - sum(row))
        probs.append(row)
        ran = draw(st.lists(st.integers(1, 2**70) | st.integers(1, 12), min_size=1, max_size=4))
        costs.append(tuple(ran))
        stages.append(len(ran) - 1)
    matrix = np.array(probs) if probs else np.zeros((0, width))
    return TraceTable(tuple(ids), stages, matrix, tuple(costs), tuple(map(sum, costs)))


@settings(max_examples=300, deadline=None)
@given(table=saved_tables())
def test_column_writer_writes_the_per_record_bytes(table, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bytes")
    save_traces(table, directory / "columns.jsonl")
    reference_save(table, directory / "records.jsonl")
    assert (directory / "columns.jsonl").read_bytes() == (directory / "records.jsonl").read_bytes()
    loaded = load_traces(directory / "columns.jsonl")
    assert loaded.ids == table.ids
    assert loaded.exit_stage.tolist() == table.exit_stage.tolist()
    assert loaded.probs.shape[0] == len(table)
    assert loaded.probs.tobytes() == table.probs.tobytes()
    assert loaded.executed_costs == table.executed_costs
    assert loaded.total_cost == table.total_cost


VALID_RECORD = {"confidence": 0.75, "executed_costs": [2], "exit_stage": 0, "instance_id": "a",
                "probs": [0.25, 0.75], "total_cost": 2}


def _write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_a_valid_file_is_read_by_columns(tmp_path):
    records = [dict(VALID_RECORD, instance_id=f"t{k}") for k in range(5)]
    path = _write_lines(tmp_path / "traces.jsonl", *map(json.dumps, records))
    table = load_traces(path)
    assert_rows_equal(table, oracle_load(path))
    assert table.probs.dtype == np.float64 and not table.probs.flags.writeable


def test_a_missing_key_before_invalid_json_is_reported_first(tmp_path):
    lacking = {key: value for key, value in VALID_RECORD.items() if key != "instance_id"}
    path = _write_lines(tmp_path / "traces.jsonl", json.dumps(lacking), "{broken")
    got = outcome(load_traces, path)
    missing = "malformed trace record: missing required key 'instance_id'"
    assert got == f"ValidationError: {path}: line 1: {missing}"
    assert got == outcome(oracle_load, path)


def test_a_missing_key_is_reported_before_the_records_values(tmp_path):
    lacking = {key: value for key, value in VALID_RECORD.items() if key != "total_cost"}
    path = _write_lines(tmp_path / "traces.jsonl", json.dumps(dict(lacking, probs="x", exit_stage=True)))
    got = outcome(load_traces, path)
    assert got == f"ValidationError: {path}: line 1: malformed trace record: missing required key 'total_cost'"
    assert got == outcome(oracle_load, path)


def test_a_refused_type_is_named_by_its_line(tmp_path):
    path = _write_lines(tmp_path / "traces.jsonl", json.dumps(VALID_RECORD),
                        json.dumps(dict(VALID_RECORD, instance_id="b", exit_stage=True)))
    got = outcome(load_traces, path)
    assert got == f"ValidationError: {path}: line 2: exit_stage must be an integer, got True"
    assert got == outcome(oracle_load, path)


@settings(max_examples=300, deadline=None)
@given(wrong=st.dictionaries(st.sampled_from(KEYS), st.sampled_from(REPLACEMENTS), min_size=2))
@example(wrong={"exit_stage": 0, "instance_id": "x"})  # values valid for their keys: the record loads
def test_a_record_with_many_faults_names_the_first_the_trace_rules_check(wrong, tmp_path_factory):
    path = tmp_path_factory.mktemp("faults") / "traces.jsonl"
    _write_lines(path, json.dumps(dict(VALID_RECORD, **wrong)))
    got, want = outcome(load_traces, path), outcome(oracle_load, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert_rows_equal(got, want)


def test_probability_rows_of_two_widths_are_refused(tmp_path):
    wider = dict(VALID_RECORD, instance_id="b", probs=[0.5, 0.25, 0.25], confidence=0.5)
    path = _write_lines(tmp_path / "traces.jsonl", json.dumps(VALID_RECORD), "", json.dumps(wider))
    assert outcome(load_traces, path) == (f"ValidationError: {path}: line 3: malformed trace record: "
                                          "probs has 3 entries, the first record's has 2")


def test_a_fault_before_rows_of_two_widths_is_reported_first(tmp_path):
    wider = dict(VALID_RECORD, instance_id="c", probs=[0.5, 0.25, 0.25], confidence=0.5)
    path = _write_lines(tmp_path / "traces.jsonl", json.dumps(VALID_RECORD),
                        json.dumps(dict(VALID_RECORD, instance_id="b", total_cost=3)), json.dumps(wider))
    got = outcome(load_traces, path)
    assert got == f"ValidationError: {path}: line 2: total_cost must equal the sum of executed_costs"


def test_an_integer_confidence_is_read_as_a_float(tmp_path):
    certain = dict(VALID_RECORD, instance_id="b", probs=[0.0, 1.0], confidence=1)
    path = _write_lines(tmp_path / "traces.jsonl", json.dumps(VALID_RECORD), json.dumps(certain))
    table = load_traces(path)
    assert_rows_equal(table, oracle_load(path))
    assert table[1].confidence == 1.0 and table.probs.tolist() == [[0.25, 0.75], [0.0, 1.0]]


def test_a_boolean_confidence_is_refused(tmp_path):
    # true equals a probability of 1.0, so only the value rule tells them apart.
    certain = dict(VALID_RECORD, probs=[0.0, 1.0], confidence=True)
    path = _write_lines(tmp_path / "traces.jsonl", json.dumps(certain))
    refused = "confidence must be a number, got True"
    assert outcome(load_traces, path) == f"ValidationError: {path}: line 1: {refused}"
    assert outcome(load_traces, path) == outcome(oracle_load, path)


def cost_row(row):
    """``tuple(row)``; a string or a mapping is no row of costs (it iterates as its characters or keys)."""
    if isinstance(row, (str, dict)):
        raise TypeError(row)
    return tuple(row)


def oracle_cost_rows(rows, *bounds):
    """The cost-row reader that ``errors.column_rows`` replaced: one look per
    distinct row object, and a row-by-row read when a look fails."""
    try:
        costs = tuple(map(cost_row, rows))
    except TypeError:  # a row that is not a sequence, named below
        costs = None
    if costs is not None:
        distinct = {id(row): row for row in costs}.values()
        if all(column(row, integer, "executed_costs", *bounds)[0] is row for row in distinct):
            return costs, None
    read = []
    for row in rows:
        try:
            row = cost_row(row)
        except TypeError:
            return tuple(read), f"executed_costs must be a sequence of integers, got {reprlib.repr(row)}"
        row, refusal = column(row, integer, "executed_costs", *bounds)
        if refusal is not None:
            return tuple(read), refusal
        read.append(tuple(row))
    return tuple(read), None


ODD_COSTS = [2**70, True, False, 1.0, 2.5, "1", None, np.int64(2), np.int32(3), np.uint64(4), np.bool_(True)]
NOT_SEQUENCES = [2, None, 2.5, True, np.int64(2), np.array(1), "12", "", {1: 2}, {}]


@st.composite
def cost_rows(draw):
    """Rows of executed costs as tuples (shared or fresh) or lists, in a tuple or a
    list; in a faulty draw, entries of every kind and rows that are not sequences."""
    faulty = draw(st.booleans())
    entries = st.one_of(st.integers(0, 30), st.sampled_from(ODD_COSTS)) if faulty else st.integers(0, 30)
    shared = [tuple(row) for row in draw(st.lists(st.lists(entries, max_size=3), min_size=1, max_size=3))]
    kinds = ["shared", "tuple", "list"] + (["not a sequence"] if faulty else [])
    rows = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "shared":
            rows.append(shared[draw(st.integers(0, len(shared) - 1))])
        elif kind == "not a sequence":
            rows.append(draw(st.sampled_from(NOT_SEQUENCES)))
        else:
            values = draw(st.lists(entries, max_size=3))
            rows.append(tuple(values) if kind == "tuple" else values)
    return draw(st.sampled_from([tuple, list]))(rows)


@settings(max_examples=400, deadline=None)
@given(rows=cost_rows(), bounds=st.sampled_from([(), (1,)]))
def test_cost_rows_read_as_the_per_row_reader_reads_them(rows, bounds):
    got, refusal = column_rows(rows, integer, "executed_costs", "a sequence of integers", *bounds)
    want, want_refusal = oracle_cost_rows(rows, *bounds)
    assert refusal == want_refusal
    assert got == want and type(got) is tuple and all(type(row) is tuple for row in got)
    # (True,) == (1,): the stored types must match too.
    assert [type(v) for row in got for v in row] == [type(v) for row in want for v in row]
    if refusal is None and all(type(v) is int for row in rows for v in row):  # shared rows stay shared
        assert all(g is r for g, r in zip(got, rows) if type(r) is tuple)


def test_exit_stage_below_zero_is_rejected():
    # exit_stage -1 with no executed costs used to pass, and evaluate then
    # counted the trace at the last stage of the histogram.
    dist = ClassDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValidationError, match="exit_stage must be >= 0"):
        ExitTrace("a", -1, dist, 0.5, (), 0)
    with pytest.raises(ValidationError, match="exit_stage must be >= 0"):
        TraceTable(("a",), [-1], [[0.5, 0.5]], ((),), (0,))


def test_trace_confidence_must_be_the_top_probability():
    dist = ClassDistribution(np.array([0.25, 0.75]))
    with pytest.raises(ValidationError, match="confidence 0.7 is not the largest"):
        ExitTrace("a", 0, dist, 0.7, (2,), 2)


def test_table_construction_checks_each_row():
    TraceTable(("a", "b"), [0, 1], [[0.25, 0.75], [1.0, 0.0]], ((2,), (2, 4)), (2, 6))
    with pytest.raises(ValidationError, match="'b': probabilities must sum to 1"):
        TraceTable(("a", "b"), [0, 0], [[0.25, 0.75], [0.5, 0.4]], ((2,), (2,)), (2, 2))
    with pytest.raises(ValidationError, match="'a': total_cost must equal"):
        TraceTable(("a",), [0], [[0.25, 0.75]], ((2,),), (3,))
    with pytest.raises(ValidationError, match="one length"):
        TraceTable(("a", "b"), [0], [[0.25, 0.75]], ((2,),), (2,))
    with pytest.raises(ValidationError, match="mix probability vectors"):
        TraceTable.from_traces(
            [
                ExitTrace("a", 0, ClassDistribution(np.array([1.0])), 1.0, (2,), 2),
                ExitTrace("b", 0, ClassDistribution(np.array([0.5, 0.5])), 0.5, (2,), 2),
            ]
        )


def test_table_is_a_read_only_sequence_of_traces():
    table = TraceTable(("a", "b", "c"), [0, 1, 0], [[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]],
                       ((2,), (2, 4), (2,)), (2, 6, 2))
    assert [t.instance_id for t in table] == ["a", "b", "c"]
    assert table[-1].instance_id == "c" and table[1].predicted_label == 0
    assert isinstance(table[1:], TraceTable) and table[1:].ids == ("b", "c")
    assert np.array_equal(table.confidence, [0.75, 1.0, 0.5])
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(ValueError):
        table[0].distribution.probs[0] = 0.5


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf])),
        max_size=5,
    )
)
def test_distribution_range_check_matches_elementwise_rule(values):
    probs = np.array(values, dtype=np.float64)
    in_range = bool(np.all((probs >= 0) & (probs <= 1)))
    try:
        ClassDistribution(probs)
        accepted = "ok"
    except ValidationError as exc:
        accepted = str(exc)
    if not in_range:
        assert accepted == "probabilities must lie in [0, 1]"
    else:
        assert accepted != "probabilities must lie in [0, 1]"


# --- no per-row objects on the run/evaluate/save/load path ----------------------------


def _two_stage():
    def stage(scale, cost):
        weights = {"w": np.array([[scale, -scale], [0.5, 0.0]]), "b": np.zeros(2)}
        model = ClassifierModel(Architecture("linear"), 2, 2, weights, TrainConfig())
        return StageSpec(model, cost)

    return stage(1.0, 2), stage(0.5, 4), stage(4.0, 12)


def test_no_per_row_objects_on_the_table_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    instances = tuple(
        Instance(f"i{k}", rng.normal(size=2), k % 2, int(rng.integers(2))) for k in range(40)
    )
    dataset = Dataset(instances, 2, 2)
    small, middle, big = _two_stage()
    without = Cascade((small, big), (0.7,), 12)
    with_extra = Cascade((small, middle, big), (0.7, 0.7), 12)
    difficulty = {inst.id: inst.difficulty for inst in instances}

    distributions = []
    original = ClassDistribution.__post_init__

    def counted(self):
        distributions.append(self)
        original(self)

    def refuse(self):
        raise AssertionError(f"per-row {type(self).__name__} built")

    monkeypatch.setattr(ClassDistribution, "__post_init__", counted)
    monkeypatch.setattr(ExitTrace, "__post_init__", refuse)
    monkeypatch.setattr(ScoredInstance, "__post_init__", refuse)
    monkeypatch.setattr(cascadekit.cascade, "_trace_row", refuse)
    calls = []
    def counted_predict(model, instance):
        calls.append(instance)
        return predict(model, instance)

    monkeypatch.setattr(cascadekit.cascade, "predict", counted_predict)

    table = run_cascade(with_extra, dataset)
    assert distributions == []  # predict builds its distribution unchecked; the table checks it
    assert len(calls) == sum(table.exit_stage + 1)
    report = evaluate(table, dataset, 12, dis_difficulty=difficulty, positive_class=1, num_stages=3)
    save_traces(table, tmp_path / "traces.jsonl")
    loaded = load_traces(tmp_path / "traces.jsonl")
    again = evaluate(loaded, dataset, 12, dis_difficulty=difficulty, positive_class=1, num_stages=3)
    assert again == report
    assert distributions == []
    calls.clear()
    try:
        empirical_gain(without, with_extra, dataset)
    except ValidationError as exc:  # speed-ups more than 1% apart: refused after both runs
        assert "speed-ups differ" in str(exc)
    assert distributions == [] and calls == []  # batched stages: no per-row predict


# --- Python API types -----------------------------------------------------------------


def _model():
    return _two_stage()[0].model


@pytest.mark.parametrize("label", [1.5, True, "1"], ids=["float", "bool", "string"])
def test_instance_rejects_non_integer_label(label):
    # label_array() used to truncate 1.5 to 1, and True passed as 1.
    message = f"^instance 'a': label must be an integer >= 0, got {re.escape(repr(label))}$"
    with pytest.raises(ValidationError, match=message):
        Instance("a", np.zeros(2), label)


@pytest.mark.parametrize("difficulty", [True, 0.5, "1"], ids=["bool", "float", "string"])
def test_instance_rejects_non_integer_difficulty(difficulty):
    message = rf"^instance 'a': difficulty must be an integer in \[0, 1\], got {re.escape(repr(difficulty))}$"
    with pytest.raises(ValidationError, match=message):
        Instance("a", np.zeros(2), 0, difficulty)


def test_instance_accepts_numpy_integers_as_python_ints():
    inst = Instance("a", np.zeros(2), np.int64(1), np.int8(0))
    assert type(inst.label) is int and type(inst.difficulty) is int
    assert inst.label == 1 and inst.difficulty == 0


@pytest.mark.parametrize("cost", [True, 1.5, "2"], ids=["bool", "float", "string"])
def test_stage_spec_rejects_non_integer_cost(cost):
    with pytest.raises(ValidationError, match="layer_cost must be an integer"):
        StageSpec(_model(), cost)


@pytest.mark.parametrize("threshold", ["0.5", True, None], ids=["string", "bool", "none"])
def test_cascade_rejects_non_number_threshold(threshold):
    stages = (StageSpec(_model(), 2), StageSpec(_model(), 12))
    message = f"^thresholds must be a number, got {re.escape(repr(threshold))}$"
    with pytest.raises(ValidationError, match=message):
        Cascade(stages, (threshold,))
    with pytest.raises(ValidationError, match=message):
        Cascade(stages, (0.5,)).with_shared_threshold(threshold)


@pytest.mark.parametrize("cost", [12.5, True, "12"], ids=["float", "bool", "string"])
def test_cascade_rejects_non_integer_full_model_cost(cost):
    with pytest.raises(ValidationError, match="full_model_cost must be an integer"):
        Cascade((StageSpec(_model(), 2),), (), cost)


def test_cascade_keeps_numpy_numbers_as_python_numbers():
    stages = (StageSpec(_model(), np.int64(2)), StageSpec(_model(), 12))
    cascade = Cascade(stages, (np.float32(0.5),), np.int64(12))
    assert type(cascade.stages[0].layer_cost) is int and type(cascade.full_model_cost) is int
    assert cascade.thresholds == (0.5,) and type(cascade.thresholds[0]) is float


def test_cascade_stages_share_class_count():
    weights = {"w": np.zeros((2, 3)), "b": np.zeros(3)}
    three = ClassifierModel(Architecture("linear"), 2, 3, weights, TrainConfig())
    with pytest.raises(ValidationError, match="share one number of classes"):
        Cascade((StageSpec(_model(), 2), StageSpec(three, 12)), (0.5,))


def test_scored_table_checks_and_reads_like_instances():
    table = ScoredTable(np.array([0.9, 0.4]), np.array([1, 0]), np.array([1, 1]), np.array([0, -1]))
    assert [s.difficulty for s in table] == [0, None]
    assert [s.correct for s in table] == [True, False]
    with pytest.raises(ValidationError, match="confidence 1.5 outside"):
        ScoredTable(np.array([1.5]), np.array([0]), np.array([0]))
    with pytest.raises(ValidationError, match="difficulty"):
        ScoredTable(np.array([0.5]), np.array([0]), np.array([0]), np.array([2]))


# --- scripts --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "script, args",
    [
        ("make_synthetic_data.py", ["--train-size", "30", "--eval-size", "30", "--task", "tiered"]),
        ("dar_study.py", ["--weights", "0", "0.5", "--num-seeds", "1", "--train-size", "60",
                          "--eval-size", "60", "--epochs", "2"]),
        ("cascade_gain_study.py", ["--num-seeds", "1", "--size", "200"]),
    ],
    ids=["make_synthetic_data", "dar_study", "cascade_gain_study"],
)
def test_script_runs(script, args, tmp_path):
    if script == "make_synthetic_data.py":
        args = [*args, "--out", str(tmp_path / "demo")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
