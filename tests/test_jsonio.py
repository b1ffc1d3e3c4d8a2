"""Every artifact goes through cascadekit.jsonio: one format, one error rule."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
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
from cascadekit.jsonio import write_json, write_jsonl

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
REPLACEMENTS = ["x", [], {}, None, math.nan, math.inf]
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
    dropped or one value replaced loads or fails naming its file."""
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


def test_only_jsonio_reads_or_writes_json_files():
    offenders = [
        f"{module.name}:{lineno}"
        for module in sorted(SRC.glob("*.py"))
        if module.name != "jsonio.py"
        for lineno, line in enumerate(module.read_text().splitlines(), start=1)
        if re.search(r"\bjson\.(load|loads|dump)\(", line)
    ]
    assert offenders == []


def test_on_disk_format(tmp_path):
    write_json(tmp_path / "doc.json", {"b": [1, 2.5], "a": None})
    assert (tmp_path / "doc.json").read_text() == (
        '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    )
    write_jsonl(tmp_path / "rows.jsonl", iter([{"b": 1, "a": "x"}, {}]))
    assert (tmp_path / "rows.jsonl").read_text() == '{"a": "x", "b": 1}\n{}\n'
