import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

import cascadekit.cli
from cascadekit import (
    Cascade,
    StageSpec,
    ValidationError,
    calibrate_threshold,
    evaluate,
    load_cascade,
    load_dataset,
    load_metrics,
    load_model,
    load_report,
    load_traces,
    planted_hard_task,
    predict_batch,
    run_cascade,
    save_cascade,
    save_dataset,
    save_scenario,
    save_traces,
    write_sweep_csv,
    GainScenario,
)
from cascadekit.cli import PipelineConfig, StageConfig, config_from_dict, load_config, main
from cascadekit.classifier import Architecture, TrainConfig
from cascadekit.jsonio import write_jsonl
from test_trace_table import MISSING_COSTS, RECORD_WITHOUT_COSTS


def write_experiment(base, train_n=150, eval_n=300, **overrides):
    save_dataset(planted_hard_task(train_n, seed=11), base / "train.jsonl")
    save_dataset(planted_hard_task(eval_n, seed=9), base / "eval.jsonl")
    config = {
        "train_dataset": "train.jsonl",
        "calibration_dataset": "eval.jsonl",
        "eval_dataset": "eval.jsonl",
        "output_dir": "out",
        "full_model_cost": 12,
        "stages": [
            {"architecture": {"kind": "linear"}, "layer_cost": 2},
            {"architecture": {"kind": "mlp", "hidden_size": 4}, "layer_cost": 12},
        ],
        "train": {"epochs": 4, "learning_rate": 0.2, "seed": 0},
        "target_speedups": [2.0],
        "sweep_thresholds": [0.0, 0.6, 1.0],
    }
    config.update(overrides)
    path = base / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def tree_digest(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode())
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


# --- config loading -----------------------------------------------------------


def test_config_resolves_paths_against_config_dir(tmp_path):
    cfg_path = write_experiment(tmp_path)
    config = load_config(cfg_path)
    assert config.train_dataset == str(tmp_path / "train.jsonl")
    assert config.output_dir == str(tmp_path / "out")
    assert config.full_model_cost == 12
    assert config.train.epochs == 4


def test_config_overrides(tmp_path):
    cfg_path = write_experiment(tmp_path)
    config = load_config(cfg_path, seed=99, out=str(tmp_path / "elsewhere"))
    assert config.train.seed == 99
    assert config.output_dir == str(tmp_path / "elsewhere")


def test_config_missing_key_rejected():
    with pytest.raises(ValidationError, match="missing required key"):
        config_from_dict({"stages": []})


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # `stage_dar_weight` is not a config key; dropping it silently trained without DAR.
    cfg_path = write_experiment(tmp_path, stage_dar_weight=0.5, sweep_threshold=[0.5])
    with pytest.raises(ValidationError, match="unknown keys: stage_dar_weight, sweep_threshold"):
        load_config(cfg_path)
    assert main(["train", "--config", cfg_path]) == 1
    assert "stage_dar_weight" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


LINEAR = {"architecture": {"kind": "linear"}, "layer_cost": 2}
MLP = {"architecture": {"kind": "mlp", "hidden_size": 4}, "layer_cost": 12}


@pytest.mark.parametrize(
    "stages, message",
    [
        ([{**LINEAR, "dar_wieght": 0.5}, MLP], "stages[0] has unknown keys: dar_wieght"),
        (
            [LINEAR, {**MLP, "architecture": {"kind": "mlp", "hidden_size": 4, "hiden": 3}}],
            "stages[1].architecture has unknown keys: hiden",
        ),
        ([LINEAR, {**MLP, "architecture": "mlp"}], "stages[1].architecture must be an object"),
    ],
    ids=["stage", "architecture", "not-an-object"],
)
def test_config_rejects_unknown_stage_keys(tmp_path, capsys, stages, message):
    # A misspelled stage key used to fall back to its default without a word.
    cfg_path = write_experiment(tmp_path, stages=stages)
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_config(cfg_path)
    assert main(["train", "--config", cfg_path]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_requires_ascending_stage_costs():
    with pytest.raises(ValidationError, match="ascending"):
        PipelineConfig(
            train_dataset="t.jsonl",
            stages=(
                StageConfig(Architecture("linear"), layer_cost=12),
                StageConfig(Architecture("linear"), layer_cost=2),
            ),
            output_dir="out",
        )


def test_stage_dar_weight_resolution():
    config = PipelineConfig(
        train_dataset="t.jsonl",
        stages=(
            StageConfig(Architecture("linear"), 2),
            StageConfig(Architecture("linear"), 6, dar_weight=0.7),
            StageConfig(Architecture("linear"), 12),
        ),
        output_dir="out",
        train=TrainConfig(dar_weight=0.5),
    )
    assert config.stage_dar_weight(0) == 0.5  # shared value
    assert config.stage_dar_weight(1) == 0.7  # per-stage override
    assert config.stage_dar_weight(2) == 0.0  # final stage never gates


# --- train ----------------------------------------------------------------------


def test_train_writes_models_and_log(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path)
    assert main(["train", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    assert (out / "stage0_model.json").exists()
    assert (out / "stage1_model.json").exists()
    log = json.loads((out / "train_log.json").read_text())
    assert [entry["stage"] for entry in log["stages"]] == [0, 1]
    assert [entry["seed"] for entry in log["stages"]] == [0, 1]  # base seed + index
    assert all(len(entry["epoch_losses"]) == 4 for entry in log["stages"])
    assert "trained linear" in capsys.readouterr().out
    model = load_model(out / "stage0_model.json")
    assert model.architecture.kind == "linear"


def test_train_rerun_is_byte_identical(tmp_path):
    cfg_path = write_experiment(tmp_path)
    assert main(["train", "--config", cfg_path]) == 0
    first = tree_digest(tmp_path / "out")
    assert main(["train", "--config", cfg_path]) == 0
    assert tree_digest(tmp_path / "out") == first


def test_train_seed_override_changes_models(tmp_path):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    baseline = (tmp_path / "out" / "stage0_model.json").read_bytes()
    main(["train", "--config", cfg_path, "--seed", "5", "--out", str(tmp_path / "alt")])
    assert (tmp_path / "alt" / "stage0_model.json").read_bytes() != baseline


# --- label -----------------------------------------------------------------------


def test_label_report_trains_as_the_labeled_dataset(tmp_path, capsys):
    # label writes only the report; training through it gives the models that
    # training on the train split with the report's labels merged in gives.
    dar = {"epochs": 3, "learning_rate": 0.2, "seed": 0, "dar_weight": 0.5}
    cfg_path = write_experiment(
        tmp_path,
        train_n=60,
        difficulty_folds=3,
        difficulty_seeds=2,
        train=dar,
        difficulty_report="out/difficulty_report.json",
    )
    assert main(["label", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    assert os.listdir(out) == ["difficulty_report.json"]
    report = load_report(out / "difficulty_report.json")
    assert report.num_folds == 3
    assert report.seeds == (0, 1)
    assert sorted(report.labels) == sorted(load_dataset(tmp_path / "train.jsonl").ids())
    assert "difficult" in capsys.readouterr().out
    assert main(["train", "--config", cfg_path]) == 0
    trained = {name: (out / name).read_bytes() for name in os.listdir(out)}
    del trained["difficulty_report.json"]

    labeled = load_dataset(tmp_path / "train.jsonl").with_difficulty(report.labels)
    save_dataset(labeled, tmp_path / "train_labeled.jsonl")
    cfg_path = write_experiment(
        tmp_path,
        train_n=60,
        train_dataset="train_labeled.jsonl",
        output_dir="merged",
        train=dar,
    )
    assert main(["train", "--config", cfg_path]) == 0
    merged = tmp_path / "merged"
    assert {name: (merged / name).read_bytes() for name in os.listdir(merged)} == trained


# --- run / sweep / metrics ----------------------------------------------------------


def test_run_calibrates_and_reports(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    out = tmp_path / "out"
    trained = [(out / f"stage{i}_model.json").read_bytes() for i in range(2)]
    assert main(["run", "--config", cfg_path]) == 0
    report = load_metrics(out / "metrics_2x.json")
    assert abs(report.speedup - 2.0) <= 0.04 * 2.0
    # eval split ships difficulty flags, so dis must be populated
    assert report.dis is not None
    cascade = load_cascade(out / "cascade_2x.json")
    assert len(cascade.thresholds) == 1
    assert 0.0 <= cascade.thresholds[0] <= 1.0
    assert [s.layer_cost for s in cascade.stages] == [2, 12]
    assert cascade.full_model_cost == 12
    # the bundle references the trained models, left as train wrote them
    assert [(out / f"stage{i}_model.json").read_bytes() for i in range(2)] == trained
    assert f"target 2x: tau={cascade.thresholds[0]}," in capsys.readouterr().out


def test_cascade_bundle_references_the_trained_model_files(tmp_path):
    # save_cascade writes the description plus stage<k>_model.json, the names
    # train writes, so run's bundles reference the trained models themselves.
    cfg_path = write_experiment(tmp_path)
    assert main(["train", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    trained = sorted(name for name in os.listdir(out) if name.endswith("_model.json"))
    assert trained == ["stage0_model.json", "stage1_model.json"]
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    stages = [StageSpec(load_model(out / name), cost) for name, cost in zip(trained, (2, 12))]
    save_cascade(Cascade(stages, (1.0,), 12), bundle / "cascade.json")
    assert sorted(os.listdir(bundle)) == ["cascade.json", *trained]
    for name in trained:
        assert (bundle / name).read_bytes() == (out / name).read_bytes()

    before = {name: (out / name).read_bytes() for name in trained}
    assert main(["run", "--config", cfg_path]) == 0
    description = json.loads((out / "cascade_2x.json").read_text())
    assert [stage["model_path"] for stage in description["stages"]] == trained
    assert {name: (out / name).read_bytes() for name in trained} == before


def test_run_writes_no_model_file(tmp_path, monkeypatch):
    # run's descriptions reference the models train wrote; it used to rewrite them once per target.
    cfg_path = write_experiment(tmp_path)
    assert main(["train", "--config", cfg_path]) == 0
    written = []
    monkeypatch.setattr(cascadekit.classifier, "write_json", lambda path, payload: written.append(path))
    assert main(["run", "--config", cfg_path]) == 0
    assert written == []


def test_run_metrics_match_offline_recomputation(tmp_path):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    main(["run", "--config", cfg_path])
    out = tmp_path / "out"
    traces = load_traces(out / "traces_2x.jsonl")
    eval_ds = load_dataset(tmp_path / "eval.jsonl")
    recomputed = evaluate(
        traces,
        eval_ds,
        full_model_cost=12,
        dis_difficulty={i.id: i.difficulty for i in eval_ds.instances},
        num_stages=2,
    )
    assert load_metrics(out / "metrics_2x.json") == recomputed


def test_run_loads_a_shared_split_once(tmp_path, monkeypatch):
    loads = []

    def counting_load(path, *args, **kwargs):
        loads.append(os.path.basename(path))
        return load_dataset(path, *args, **kwargs)

    monkeypatch.setattr(cascadekit.cli, "load_dataset", counting_load)
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    out = tmp_path / "out"
    loads.clear()
    assert main(["run", "--config", cfg_path]) == 0
    assert loads == ["eval.jsonl"]
    shared = {name: (out / name).read_bytes() for name in os.listdir(out)}

    # The same split under a second name is loaded twice and gives the same run.
    (tmp_path / "calibration.jsonl").write_bytes((tmp_path / "eval.jsonl").read_bytes())
    cfg_path = write_experiment(tmp_path, calibration_dataset="calibration.jsonl")
    loads.clear()
    assert main(["run", "--config", cfg_path]) == 0
    assert loads == ["calibration.jsonl", "eval.jsonl"]
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == shared


def test_run_requires_models(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path)
    assert main(["run", "--config", cfg_path]) == 1
    assert "missing model file" in capsys.readouterr().err


def test_run_requires_targets(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path, target_speedups=[])
    main(["train", "--config", cfg_path])
    assert main(["run", "--config", cfg_path]) == 1
    assert "target_speedups" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "metrics"])
def test_commands_need_an_eval_split(tmp_path, capsys, command):
    cfg_path = write_experiment(tmp_path, eval_dataset=None)
    argv = [command, "--config", cfg_path]
    if command == "metrics":
        argv += ["--traces", str(tmp_path / "traces.jsonl")]
    assert main(argv) == 1
    assert "error: config does not declare an eval dataset" in capsys.readouterr().err


THREE_STAGES = [
    {"architecture": {"kind": "linear"}, "layer_cost": 2},
    {"architecture": {"kind": "mlp", "hidden_size": 3}, "layer_cost": 6},
    {"architecture": {"kind": "mlp", "hidden_size": 4}, "layer_cost": 12},
]


@pytest.mark.parametrize("calibration", ["eval.jsonl", "calibration.jsonl"], ids=["shared", "separate"])
def test_run_traces_match_per_row_runs(tmp_path, calibration):
    # run executes each calibrated cascade stage by stage on its survivors;
    # its traces are those of the per-row run_cascade, byte for byte.
    save_dataset(planted_hard_task(200, seed=5), tmp_path / "calibration.jsonl")
    cfg_path = write_experiment(
        tmp_path, stages=THREE_STAGES, calibration_dataset=calibration, target_speedups=[1.5, 2.5]
    )
    assert main(["train", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    eval_ds = load_dataset(tmp_path / "eval.jsonl")
    for label in ("1.5x", "2.5x"):
        cascade = load_cascade(out / f"cascade_{label}.json")
        if calibration == "eval.jsonl":
            # The calibrated tau is a stage confidence on the eval split, so
            # some instance sits exactly on the strict exit rule.
            X = eval_ds.feature_matrix()
            confidences = {c for s in cascade.stages[:-1] for c in predict_batch(s.model, X).max(axis=1)}
            assert cascade.thresholds[0] in confidences
        save_traces(run_cascade(cascade, eval_ds), tmp_path / "expected.jsonl")
        assert (out / f"traces_{label}.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_run_passes_over_the_calibration_set_once(tmp_path, monkeypatch):
    # The gating stages score the calibration set once, and every target is calibrated from it.
    save_dataset(planted_hard_task(200, seed=5), tmp_path / "calibration.jsonl")
    targets = [1.5, 2.0, 3.0]
    cfg_path = write_experiment(
        tmp_path, stages=THREE_STAGES, calibration_dataset="calibration.jsonl", target_speedups=targets
    )
    assert main(["train", "--config", cfg_path]) == 0
    rows = []

    def counted(model, X):
        rows.append(len(X))
        return predict_batch(model, X)

    monkeypatch.setattr(cascadekit.cascade, "predict_batch", counted)
    assert main(["run", "--config", cfg_path]) == 0
    monkeypatch.undo()
    out = tmp_path / "out"
    # Then each run makes one pass per stage that some row reaches.
    runs = [load_traces(out / f"traces_{target:g}x.jsonl") for target in targets]
    assert rows[:2] == [200, 200]
    assert len(rows) == 2 + sum(int(traces.exit_stage.max()) + 1 for traces in runs)
    calibration = load_dataset(tmp_path / "calibration.jsonl")
    for target in targets:
        cascade = load_cascade(out / f"cascade_{target:g}x.json")
        assert cascade.thresholds == calibrate_threshold(cascade, calibration, target)


def test_text_pipeline_loop(tmp_path):
    # label -> train (DAR through difficulty_report) -> run -> metrics on hashed text.
    cfg_path = write_experiment(
        tmp_path,
        dataset_format="jsonl_text",
        feature_dim=32,
        num_classes=2,
        train={"epochs": 3, "learning_rate": 0.2, "seed": 0, "dar_weight": 0.5},
        difficulty_folds=2,
        difficulty_seeds=1,
        difficulty_report="out/difficulty_report.json",
    )
    rng = np.random.default_rng(3)
    for name, n in (("train.jsonl", 120), ("eval.jsonl", 160)):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            for i in range(n):
                label = int(rng.integers(0, 2))
                # Words w0-w19 lean to class 0 and w20-w39 to class 1.
                lean = rng.random(12) < 0.7
                words = [f"w{rng.integers(0, 20) + 20 * (label if k else 1 - label)}" for k in lean]
                fh.write(json.dumps({"id": f"{name[0]}{i}", "label": label, "text": " ".join(words)}) + "\n")
    out = tmp_path / "out"

    def loop():
        assert main(["label", "--config", cfg_path]) == 0
        assert os.listdir(out) == ["difficulty_report.json"]
        assert main(["train", "--config", cfg_path]) == 0
        assert main(["run", "--config", cfg_path]) == 0
        assert main(["metrics", "--config", cfg_path, "--traces", str(out / "traces_2x.jsonl")]) == 0
        return {name: (out / name).read_bytes() for name in os.listdir(out)}

    first = loop()
    assert load_report(out / "difficulty_report.json").labels.keys() == {f"t{i}" for i in range(120)}
    assert first["metrics_recomputed.json"] == first["metrics_2x.json"]
    shutil.rmtree(out)
    assert loop() == first


def test_sweep_writes_monotone_speedups(tmp_path):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    assert main(["sweep", "--config", cfg_path]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "tau,speedup,accuracy,dis,ece"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 0.6, 1.0]
    speedups = [float(r[1]) for r in rows]
    assert speedups == sorted(speedups, reverse=True)
    assert speedups[0] == pytest.approx(6.0)  # everything exits at cost 2
    assert speedups[-1] == pytest.approx(12 / 14)  # everything pays both stages


def test_sweep_csv_matches_per_row_runs(tmp_path):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    out = tmp_path / "out"
    models = [load_model(out / f"stage{i}_model.json") for i in range(2)]
    eval_ds = load_dataset(tmp_path / "eval.jsonl")
    # Taus at stage 0's own confidences put instances exactly on the strict rule.
    ties = predict_batch(models[0], eval_ds.feature_matrix()).max(axis=1)[:5].tolist()
    taus = [0.0, 0.6, 1.0, *ties]
    cfg_path = write_experiment(tmp_path, sweep_thresholds=taus)
    assert main(["sweep", "--config", cfg_path]) == 0
    base = Cascade((StageSpec(models[0], 2), StageSpec(models[1], 12)), (1.0,), 12)
    difficulty = {inst.id: inst.difficulty for inst in eval_ds.instances}
    rows = []
    for tau in taus:
        traces = run_cascade(base.with_shared_threshold(tau), eval_ds)
        rows.append((tau, evaluate(traces, eval_ds, 12, dis_difficulty=difficulty, num_stages=2)))
    write_sweep_csv(tmp_path / "expected.csv", rows)
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_metrics_command_recomputes(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    main(["run", "--config", cfg_path])
    out = tmp_path / "out"
    rc = main(
        ["metrics", "--config", cfg_path, "--traces", str(out / "traces_2x.jsonl")]
    )
    assert rc == 0
    assert (out / "metrics_recomputed.json").read_bytes() == (
        out / "metrics_2x.json"
    ).read_bytes()
    stdout = capsys.readouterr().out
    assert '"accuracy"' in stdout


@pytest.mark.parametrize("positive_class", [7, -1])
def test_positive_class_outside_the_classes_is_rejected(tmp_path, capsys, positive_class):
    # evaluate, and with it `run`, used to report f1 = 0.0 for a class the
    # data does not have.
    message = f"positive_class must be an integer in [0, 1], got {positive_class}"
    cfg_path = write_experiment(tmp_path, positive_class=positive_class)
    assert main(["train", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["run", "--config", cfg_path]) == 1
    assert message in capsys.readouterr().err
    eval_ds = load_dataset(tmp_path / "eval.jsonl")
    stage = StageSpec(load_model(tmp_path / "out" / "stage0_model.json"), 2)
    traces = run_cascade(Cascade((stage,), ()), eval_ds)
    with pytest.raises(ValidationError, match=re.escape(message)):
        evaluate(traces, eval_ds, 12, positive_class=positive_class)


# --- analyze --------------------------------------------------------------------------


def test_analyze_prints_and_writes_report(tmp_path, capsys):
    scenario = GainScenario(
        layer_counts=(2, 12),
        accuracies=(0.85, 0.94),
        insert_after=0,
        new_layers=6,
        new_accuracy=0.91,
        new_exits=(50, 30),
        new_model_exits=20,
    )
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    rc = main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "predicted gain: -0.010500" in stdout
    report = json.loads((tmp_path / "out" / "gain_report.json").read_text())
    assert report["predicted_gain"] == pytest.approx(-0.0105, abs=1e-12)
    assert report["original_exits"] == [45.0, 55.0]


# --- exit codes ------------------------------------------------------------------------


def test_exit_code_for_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_for_missing_file(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_for_numeric_failure(tmp_path, capsys):
    cfg_path = write_experiment(
        tmp_path, train={"epochs": 4, "learning_rate": 1e308, "seed": 0}
    )
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", cfg_path])
    assert rc == 2
    assert "numeric error" in capsys.readouterr().err


def test_exit_code_for_traces_whose_speedup_a_float_cannot_hold(tmp_path, capsys):
    # A traces file with a cost beyond float range loads, and metrics used to end in
    # a raw OverflowError from speedup_ratio.
    cfg_path = write_experiment(tmp_path)
    assert main(["train", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path]) == 0
    traces = tmp_path / "out" / "traces_2x.jsonl"
    records = [json.loads(line) for line in traces.read_text().splitlines()]
    for record in records:
        record["exit_stage"], record["executed_costs"], record["total_cost"] = 0, [2**1100], 2**1100
    traces.write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    assert main(["metrics", "--config", cfg_path, "--traces", str(traces)]) == 2
    assert capsys.readouterr().err.startswith("numeric error: speed-up of full_model_cost 12 over mean cost ")


def test_exit_code_for_traces_that_cost_less_than_a_layer(tmp_path, capsys):
    # A cost of -1 used to load, and metrics then failed on "speedup = -12.0", naming no line.
    cfg_path = write_experiment(tmp_path)
    assert main(["train", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path]) == 0
    traces = tmp_path / "out" / "traces_2x.jsonl"
    records = [json.loads(line) for line in traces.read_text().splitlines()]
    records[1]["exit_stage"], records[1]["executed_costs"], records[1]["total_cost"] = 0, [-1], -1
    traces.write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    assert main(["metrics", "--config", cfg_path, "--traces", str(traces)]) == 1
    message = f"error: {traces}: line 2: executed_costs must be an integer >= 1, got -1"
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out" / "metrics_recomputed.json").exists()


def test_exit_code_for_costs_a_float_cannot_hold(tmp_path, capsys):
    # calibrate_threshold used to end in a raw OverflowError.
    huge = 2**1100
    stages = [
        {"architecture": {"kind": "linear"}, "layer_cost": huge},
        {"architecture": {"kind": "mlp", "hidden_size": 4}, "layer_cost": huge},
    ]
    cfg_path = write_experiment(tmp_path, stages=stages, full_model_cost=huge, target_speedups=[1.0])
    assert main(["train", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["run", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("numeric error: total cost ")


def test_exit_code_for_non_finite_stage_weights(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    model_path = tmp_path / "out" / "stage0_model.json"
    doc = json.loads(model_path.read_text())
    doc["weights"]["w"]["data"][0] = float("nan")
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--config", cfg_path]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg_path]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_exit_code_for_malformed_trace(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    main(["run", "--config", cfg_path])
    traces = tmp_path / "out" / "traces_2x.jsonl"
    lines = traces.read_text().splitlines()
    record = json.loads(lines[1])
    record["executed_costs"] = ["x"]
    lines[1] = json.dumps(record)
    traces.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["metrics", "--config", cfg_path, "--traces", str(traces)]) == 1
    assert f"{traces}: line 2: executed_costs must be an integer >= 1, got 'x'" in capsys.readouterr().err


def test_exit_code_for_trace_missing_costs_with_a_huge_exit_stage(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path)
    traces = tmp_path / "traces.jsonl"
    traces.write_text(RECORD_WITHOUT_COSTS)
    capsys.readouterr()
    assert main(["metrics", "--config", cfg_path, "--traces", str(traces)]) == 1
    assert f"error: {traces}: {MISSING_COSTS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda path: _edit_json(path, lambda doc: doc["weights"]["w1"].pop("shape")),
        lambda path: path.write_text("{not json"),
    ],
    ids=["weight-without-shape", "invalid-json"],
)
def test_exit_code_for_malformed_stage_model(tmp_path, capsys, corrupt):
    cfg_path = write_experiment(tmp_path)
    main(["train", "--config", cfg_path])
    model_path = tmp_path / "out" / "stage1_model.json"
    corrupt(model_path)
    capsys.readouterr()
    assert main(["run", "--config", cfg_path]) == 1
    assert f"error: {model_path}: " in capsys.readouterr().err


def test_exit_code_for_malformed_scenario(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "layer_counts": ["x", 12],
                "accuracies": [0.85, 0.94],
                "insert_after": 0,
                "new_layers": 6,
                "new_accuracy": 0.91,
                "new_exits": [50, 30],
                "new_model_exits": 20,
            }
        )
    )
    assert main(["analyze", "--config", str(path)]) == 1
    assert f"error: {path}: malformed gain scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, name",
    [({"new_exits": [10**400, 1]}, "new_exits"), ({"new_exits": [10**308, 10**308]}, "num_instances")],
    ids=["count", "total"],
)
def test_exit_code_for_scenario_counts_a_float_cannot_hold(tmp_path, capsys, fields, name):
    # analyze used to end in a raw OverflowError from the gain algebra.
    scenario = {
        "layer_counts": [2, 12],
        "accuracies": [0.85, 0.94],
        "insert_after": 0,
        "new_layers": 6,
        "new_accuracy": 0.91,
        "new_exits": [50, 30],
        "new_model_exits": 20,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**scenario, **fields}))
    assert main(["analyze", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {name} must be a number, got ")


def test_exit_code_for_a_gain_report_a_float_cannot_hold(tmp_path, capsys):
    # The counts fit a float but the moved mass does not: analyze used to exit 0 and write
    # "original_exits": [-8.5e+307, Infinity] and "max_gain_bound": NaN.
    scenario = {
        "layer_counts": [2, 12],
        "accuracies": [0.85, 0.94],
        "insert_after": 0,
        "new_layers": 6,
        "new_accuracy": 0.91,
        "new_exits": [0, 17 * 10**307],
        "new_model_exits": 0,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: gain report: original_exits[1] = inf is not a finite number")
    assert not (tmp_path / "out" / "gain_report.json").exists()


def test_exit_code_for_non_numeric_features(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path)
    with open(tmp_path / "train.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "bad", "label": 0, "features": ["x", 1.0]}) + "\n")
    assert main(["train", "--config", cfg_path]) == 1
    assert "train.jsonl: line 151: malformed dataset record: features must be an array of numbers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"positive_class": "1"}, "positive_class must be an integer, got '1'"),
        (
            {"stages": [{"architecture": {"kind": "mlp", "hidden_size": 2.5}, "layer_cost": 2}]},
            "stages[0].architecture.hidden_size must be an integer, got 2.5",
        ),
        ({"num_classes": 2.5}, "num_classes must be an integer, got 2.5"),
        ({"feature_dim": "16"}, "feature_dim must be an integer, got '16'"),
        ({"calibration_tolerance": float("nan")}, "calibration_tolerance must be a finite number"),
        ({"train_dataset": "\ud800.jsonl"}, "train_dataset must be a string without surrogates, got '\\ud800.jsonl'"),
    ],
    ids=["positive-class-string", "hidden-size-float", "num-classes-float", "feature-dim-string",
         "tolerance-nan", "train-dataset-surrogate"],
)
def test_exit_code_for_wrongly_typed_config_value(tmp_path, capsys, overrides, message):
    # "positive_class": "1" used to run and score f1 = 0, a NaN tolerance switched
    # off the calibration miss check, a float size ended in a TypeError traceback,
    # and a path holding a lone surrogate in a UnicodeEncodeError traceback from open().
    cfg_path = write_experiment(tmp_path, **overrides)
    assert main(["train", "--config", cfg_path]) == 1
    assert f"error: {cfg_path}: malformed config: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_for_a_config_without_stages(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path, stages=[])
    assert main(["train", "--config", cfg_path]) == 1
    assert f"error: {cfg_path}: config needs at least one stage" in capsys.readouterr().err


def test_exit_code_for_dar_training_without_difficulty_labels(tmp_path, capsys):
    cfg_path = write_experiment(tmp_path, train={"epochs": 2, "dar_weight": 0.5})
    train = tmp_path / "train.jsonl"
    records = [json.loads(line) for line in train.read_text().splitlines()]
    write_jsonl(train, [{k: v for k, v in record.items() if k != "difficulty"} for record in records])
    assert main(["train", "--config", cfg_path]) == 1
    assert "run the label command first" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_for_non_integer_epochs(tmp_path, capsys):
    # A float epoch count used to pass load_config and end in a TypeError traceback.
    cfg_path = write_experiment(tmp_path, train={"epochs": 2.5})
    assert main(["train", "--config", cfg_path]) == 1
    assert "epochs must be an integer, got 2.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("outcome", ["x", float("nan"), 1, None], ids=["string", "nan", "one", "null"])
def test_exit_code_for_non_boolean_seed_outcome(tmp_path, capsys, outcome):
    # bool() used to load "x", NaN and 1 as True, so a corrupted report still trained.
    cfg_path = write_experiment(
        tmp_path,
        train={"epochs": 2, "learning_rate": 0.2, "seed": 0, "dar_weight": 0.5},
        difficulty_folds=3,
        difficulty_seeds=1,
        difficulty_report="out/difficulty_report.json",
    )
    assert main(["label", "--config", cfg_path]) == 0
    report_path = tmp_path / "out" / "difficulty_report.json"
    doc = json.loads(report_path.read_text())
    easy = next(k for k, v in doc["labels"].items() if v == 0)
    doc["per_seed_correct"][easy] = [outcome]
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert f"error: {report_path}: " in err
    assert "must be a boolean" in err
    assert not (tmp_path / "out" / "stage0_model.json").exists()


def test_exit_code_for_unknown_command(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "cascade" in capsys.readouterr().out
