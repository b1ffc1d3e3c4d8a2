"""Every artifact goes through cascadekit.jsonio: one format, one error rule."""

import functools
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cascadekit
from cascadekit import (
    Architecture,
    Cascade,
    ClassifierModel,
    DifficultyReport,
    GainScenario,
    NumericError,
    StageSpec,
    TrainConfig,
    ValidationError,
    evaluate,
    load_cascade,
    load_dataset,
    load_metrics,
    load_model,
    load_report,
    load_scenario,
    load_traces,
    planted_hard_task,
    run_cascade,
    save_cascade,
    save_dataset,
    save_metrics,
    save_model,
    save_report,
    save_scenario,
    save_traces,
)
from cascadekit.classifier import model_to_dict
from cascadekit.difficulty import report_to_dict
from cascadekit.errors import boolean, frozen, integer, real, real_matrix, string
from cascadekit.jsonio import jsonl_lines, typed, write_json, write_jsonl

SRC = Path(cascadekit.__file__).parent


def _model(rng, kind, feature_dim):
    if kind == "linear":
        arch, shapes = Architecture("linear"), {"w": (feature_dim, 2), "b": (2,)}
    else:
        arch = Architecture("mlp", hidden_size=3)
        shapes = {"w1": (feature_dim, 3), "b1": (3,), "w2": (3, 2), "b2": (2,)}
    weights = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    config = TrainConfig(epochs=int(rng.integers(1, 5)), seed=int(rng.integers(0, 100)))
    return ClassifierModel(arch, feature_dim, 2, weights, config)


def _artifacts(seed):
    """One valid object of each artifact kind, all derived from ``seed``."""
    rng = np.random.default_rng(seed)
    dataset = planted_hard_task(8, seed=seed)
    cascade = Cascade(
        (
            StageSpec(_model(rng, "linear", dataset.feature_dim), 2),
            StageSpec(_model(rng, "mlp", dataset.feature_dim), 12),
        ),
        (float(rng.uniform(0.5, 1.0)),),
        12,
    )
    traces = run_cascade(cascade, dataset)
    difficulty = {inst.id: inst.difficulty for inst in dataset.instances}
    outcomes = {inst.id: [bool(b) for b in rng.integers(0, 2, size=2)] for inst in dataset.instances}
    report = DifficultyReport(
        labels={k: 0 if all(v) else 1 for k, v in outcomes.items()},
        per_seed_correct=outcomes,
        num_folds=3,
        seeds=(seed % 7, seed % 7 + 1),
    )
    scenario = GainScenario(
        layer_counts=(2, 12),
        accuracies=tuple(float(a) for a in rng.uniform(0, 1, size=2)),
        insert_after=0,
        new_layers=int(rng.integers(3, 12)),
        new_accuracy=float(rng.uniform(0, 1)),
        new_exits=tuple(int(e) for e in rng.integers(0, 50, size=2)),
        new_model_exits=int(rng.integers(1, 50)),
    )
    metrics = evaluate(traces, dataset, 12, dis_difficulty=difficulty, positive_class=1, num_stages=2)
    return {
        "dataset": (dataset, save_dataset, load_dataset),
        "model": (cascade.stages[1].model, save_model, load_model),
        "cascade": (cascade, save_cascade, load_cascade),
        "traces": (traces, save_traces, load_traces),
        "metrics": (metrics, save_metrics, load_metrics),
        "report": (report, save_report, load_report),
        "scenario": (scenario, save_scenario, load_scenario),
    }


KINDS = sorted(_artifacts(0))
JSONL_KINDS = {"dataset", "traces"}
REPLACEMENTS = ["x", [], {}, None, math.nan, math.inf, True, 1, 2.5, "1"]
# Hypothesis's explain phase traces every line a failing example runs; on
# these tests it grew past 2 GB before reporting.  Shrinking alone is enough.
PHASES = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink]


def _tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _paths(node, prefix=()):
    """Every position in a parsed JSON value, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _json_types(node):
    """The JSON type of every position in a parsed JSON value."""
    types = {}
    for path in _paths(node):
        value = node
        for step in path:
            value = value[step]
        types[path] = type(value).__name__
    return types


def _assert_type_faithful(before, after):
    """Every value of ``before`` keeps its JSON type in ``after``.  An int
    may come back as a float, a null as an absent key (writers omit an
    unset optional field), and a key left out of an object with its default."""
    types_before, types_after = _json_types(before), _json_types(after)
    for path, kind in types_before.items():
        kind_after = types_after.get(path, "NoneType")
        assert kind_after == kind or (kind, kind_after) == ("int", "float"), (path, kind, kind_after)
    for path in types_after.keys() - types_before.keys():
        added = next(path[:n] for n in range(len(path) + 1) if path[:n] not in types_before)
        assert isinstance(added[-1], str) and types_before[added[:-1]] == "dict", path


def _mutated(node, path, replacement, drop):
    if not path:
        return replacement
    node = json.loads(json.dumps(node))
    parent = node
    for step in path[:-1]:
        parent = parent[step]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return node


@settings(max_examples=400, deadline=None, phases=PHASES)
@given(st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.data())
def test_artifact_roundtrip_and_error_rule(kind, seed, data):
    """save -> load -> save keeps every byte, and a document with one key
    dropped or one value replaced either fails naming its file or loads
    type-faithfully: saved again, every value keeps its JSON type."""
    obj, save, load = _artifacts(seed)[kind]
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        path = Path(a) / "artifact"
        save(obj, path)
        save(load(path), Path(b) / "artifact")
        assert _tree_bytes(a) == _tree_bytes(b)

        if kind in JSONL_KINDS:
            docs = [json.loads(line) for line in path.read_text().splitlines()]
            line = data.draw(st.integers(0, len(docs) - 1), label="line")
        else:
            docs = [json.loads(path.read_text())]
            line = 0
        target = data.draw(st.sampled_from(list(_paths(docs[line]))), label="path")
        drop = bool(target) and isinstance(target[-1], str) and data.draw(st.booleans(), label="drop")
        replacement = None if drop else data.draw(st.sampled_from(REPLACEMENTS), label="value")
        docs[line] = _mutated(docs[line], target, replacement, drop)
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        try:
            loaded = load(path)
        except ValidationError as exc:
            prefix = f"{path}: line {line + 1}: " if kind in JSONL_KINDS else f"{path}: "
            assert str(exc).startswith(prefix), exc
        except NumericError as exc:
            assert kind == "model" and target[0] == "weights", (target, exc)
            assert str(exc).startswith(f"{path}: "), exc
        except OSError as exc:
            # A bundle whose stage entry names another file fails to open it.
            assert kind == "cascade" and target[-1] == "model_path", (target, exc)
            assert exc.filename is not None
        else:
            # Accepted documents (e.g. "f1": null) are stable under save/load.
            again = Path(b) / "again"
            save(loaded, again)
            once = again.read_bytes()
            save(load(again), again)
            assert again.read_bytes() == once
            lines = once.decode().splitlines() if kind in JSONL_KINDS else [once.decode()]
            saved = [json.loads(text) for text in lines]
            assert len(saved) == len(docs)
            for before, after in zip(docs, saved):
                _assert_type_faithful(before, after)


def test_only_jsonio_reads_or_writes_json_files():
    offenders = [
        f"{module.name}:{lineno}"
        for module in sorted(SRC.glob("*.py"))
        if module.name != "jsonio.py"
        for lineno, line in enumerate(module.read_text().splitlines(), start=1)
        if re.search(r"\bjson\.(load|loads|dump)\(", line)
    ]
    assert offenders == []


def _first_key_to_string(mapping):
    key = next(iter(mapping))
    mapping[key] = str(mapping[key])


# Each case used to load silently: null as the text "None", true and "1" as 1,
# 2.9 as 2, and "probs": [true, false] as [1.0, 0.0].
WRONG_TYPES = {
    "text-null": ("text", lambda doc: doc.update(text=None), "text must be a string"),
    "difficulty-true": ("dataset", lambda doc: doc.update(difficulty=True), "difficulty must be"),
    "report-label-string": (
        "report", lambda doc: _first_key_to_string(doc["labels"]), "must be an integer, got '"
    ),
    "report-num-folds-float": ("report", lambda doc: doc.update(num_folds=2.9), "num_folds must be"),
    "report-seed-string": ("report", lambda doc: doc["seeds"].__setitem__(0, "7"), "seeds[0] must be"),
    "scenario-insert-after-false": (
        "scenario", lambda doc: doc.update(insert_after=False), "insert_after must be"
    ),
    "trace-exit-stage-true": ("traces", lambda doc: doc.update(exit_stage=True), "exit_stage must be"),
    "trace-probs-booleans": (
        "traces", lambda doc: doc.update(probs=[True, False], confidence=True), "probs must be"
    ),
    "model-data-string": (
        "model", lambda doc: doc["weights"]["b1"]["data"].__setitem__(0, "1"), "data must be"
    ),
    "model-data-true": (
        "model", lambda doc: doc["weights"]["b1"]["data"].__setitem__(0, True), "data must be"
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_loaders_reject_wrong_json_types(tmp_path, case):
    kind, mutate, message = WRONG_TYPES[case]
    path = tmp_path / "artifact"
    if kind == "text":
        write_jsonl(path, [{"id": "a", "label": 0, "text": "some words"}])
        load = functools.partial(load_dataset, format="jsonl_text", feature_dim=8)
    else:
        obj, save, load = _artifacts(0)[kind]
        save(obj, path)
    jsonl = kind in JSONL_KINDS or kind == "text"
    text = path.read_text()
    docs = [json.loads(line) for line in text.splitlines()] if jsonl else [json.loads(text)]
    mutate(docs[0])
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    prefix = f"{path}: line 1: " if jsonl else f"{path}: "
    with pytest.raises(ValidationError, match=f"^{re.escape(prefix)}.*{re.escape(message)}"):
        load(path)


def test_no_decoder_coerces_json_values():
    # int()/float()/str()/bool() of a parsed value would accept what
    # jsonio.typed rejects, e.g. "1" or true for an integer field.
    offenders = [
        f"{module.name}:{lineno}"
        for module in sorted(SRC.glob("*.py"))
        if module.name != "jsonio.py"
        for lineno, line in enumerate(module.read_text().splitlines(), start=1)
        if re.search(r"\b(int|float|str|bool)\((payload|entry|record)\b", line)
    ]
    assert offenders == []


# Every kind of JSON value: booleans, null, integers (one beyond int64, one beyond float range),
# floats (negative zero, NaN, the infinities), strings (one holding a lone surrogate), an array, an object.
JSON_SCALARS = [True, False, None, 0, -1, 2**70, 2**1100, -0.0, 2.5, math.nan, math.inf, -math.inf,
                "x", "t\ud800", [1, 2.5], {"a": 1}]
VALUE_RULES = {int: integer, bool: boolean, str: string, float: real}


def _read_outcome(read, value):
    """What ``read(value, "f")`` gives: the value with its type, or the refusal's type and words."""
    try:
        got = read(value, "f")
    except (TypeError, ValidationError) as exc:
        return type(exc), str(exc)
    return type(got), repr(got)


@settings(max_examples=300, deadline=None)
@given(
    value=st.one_of(st.sampled_from(JSON_SCALARS), st.integers(), st.floats(), st.text()),
    hint=st.sampled_from(sorted(VALUE_RULES, key=repr)),
)
def test_scalar_fields_are_read_by_the_value_rule(value, hint):
    # A JSON field of a scalar type reads as the value rule reads it, its refusal re-raised as a
    # TypeError in the same words (so decoder names the payload); a float must also be finite.
    def rule(value, where):
        read = VALUE_RULES[hint](value, where)
        if hint is float and not math.isfinite(read):
            raise ValidationError(f"{where} must be a finite number, got {read!r}")
        return read

    want = _read_outcome(rule, value)
    if want[0] is ValidationError:
        want = (TypeError, want[1])
    assert _read_outcome(lambda value, where: typed(value, hint, where), value) == want


def test_on_disk_format(tmp_path):
    write_json(tmp_path / "doc.json", {"b": [1, 2.5], "a": None})
    assert (tmp_path / "doc.json").read_text() == (
        '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    )
    write_jsonl(tmp_path / "rows.jsonl", iter([{"b": 1, "a": "x"}, {}]))
    assert (tmp_path / "rows.jsonl").read_text() == '{"a": "x", "b": 1}\n{}\n'


@pytest.mark.parametrize("kind, to_dict", [("report", report_to_dict), ("model", model_to_dict)])
def test_json_writer_matches_streamed_json_dump(tmp_path, kind, to_dict):
    # write_json writes the document in one piece; its bytes are those of
    # json.dump streaming the same document chunk by chunk.
    artifact, save, _ = _artifacts(3)[kind]
    save(artifact, tmp_path / "written.json")
    with open(tmp_path / "streamed.json", "w", encoding="utf-8") as fh:
        json.dump(to_dict(artifact), fh, sort_keys=True, indent=2)
        fh.write("\n")
    assert (tmp_path / "written.json").read_bytes() == (tmp_path / "streamed.json").read_bytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.text(), JSON_VALUES, max_size=4), max_size=4))
def test_jsonl_writer_matches_json_dumps(records):
    # The writer shares one encoder across records; its bytes are json.dumps'.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "rows.jsonl"
        write_jsonl(path, records)
        expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        assert path.read_bytes() == expected.encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(), min_size=1, max_size=4, unique=True),
    st.lists(st.lists(JSON_VALUES, min_size=4, max_size=4), max_size=4),
)
def test_lines_from_column_texts_are_the_jsonl_writers(keys, rows):
    # A writer that fills one line template from each column's JSON text writes write_jsonl's bytes.
    records = [dict(zip(keys, row)) for row in rows]
    texts = {key: [json.dumps(record[key], sort_keys=True) for record in records] for key in keys}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "rows.jsonl"
        write_jsonl(path, records)
        assert "".join(jsonl_lines(texts)).encode("utf-8") == path.read_bytes()


def _matrix_outcome(rows):
    """``real_matrix(rows)`` as comparable values: its bits, shape, row and refusal, or its error."""
    try:
        matrix, row, refusal = real_matrix(rows, "probs", "not a matrix")
    except ValidationError as exc:
        return str(exc)
    return matrix.tobytes(), matrix.shape, matrix.flags.c_contiguous, row, refusal


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.lists(st.lists(st.floats(), min_size=width, max_size=width),
                                                        min_size=1, max_size=5)))
def test_rows_of_floats_are_cast_into_a_frozen_matrix(rows):
    # Frozen as cast, so a checked object keeps it and no writable copy lives on beside it.
    matrix, _, _ = real_matrix(rows, "probs", "not a matrix")
    assert frozen(matrix) is matrix


# An int, a bool, a string or a nested list among the floats, or a row of another width.
ODD_ROWS = [None, 1, True, "0.5", [0.5], "width"]


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 4),
    count=st.integers(1, 5),
    odd=st.sampled_from(ODD_ROWS),
    data=st.data(),
)
def test_rows_of_floats_are_read_in_one_look(width, count, odd, data):
    # The one look at the rows' types casts lists of Python floats (a JSON file's); it must give
    # the bits of the value-by-value read, which reads any other rows with unchanged refusals.
    rows = data.draw(st.lists(st.lists(st.floats(), min_size=width, max_size=width), min_size=count,
                              max_size=count))
    if odd is not None:
        row = rows[data.draw(st.integers(0, count - 1))]
        if odd == "width":
            row.append(0.5)
        else:
            row[data.draw(st.integers(0, width - 1))] = odd
    read_by_value = []  # the arrays errors.column reads, which the one look skips
    column = cascadekit.errors.column

    def spy(values, *args, **kwargs):
        read_by_value.append(values)
        return column(values, *args, **kwargs)

    with mock.patch.object(cascadekit.errors, "column", spy):
        got = _matrix_outcome(rows)
    assert got == _matrix_outcome(tuple(map(tuple, rows)))  # tuples: read value by value
    # Only rows of floats skip the value-by-value read: cast in one look, or of two widths, no matrix.
    assert (read_by_value == []) == (odd in (None, "width"))
