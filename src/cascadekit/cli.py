"""Command-line pipelines: train stages, label difficulty, run cascades.

One JSON config file describes an experiment end to end; every command is
deterministic given that file (all randomness flows from its seeds), so
rerunning a command reproduces its artifacts byte for byte.

Exit codes: 0 success, 1 bad inputs or config, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace

from .analysis import gain_report, load_scenario
from .cascade import (
    DEFAULT_CALIBRATION_TOLERANCE,
    DEFAULT_FULL_MODEL_COST,
    STAGE_MODEL_FILENAME,
    Cascade,
    StageSpec,
    calibrator,
    cascade_to_dict,
    run_batched,
    save_traces,
    load_traces,
)
from .classifier import Architecture, TrainConfig, load_model, save_model, train_with_log
from .dataset import Dataset, load_dataset
from .difficulty import (
    DEFAULT_NUM_FOLDS,
    DEFAULT_NUM_SEEDS,
    label_difficulty,
    load_report,
    save_report,
)
from .errors import NumericError, ValidationError
from .jsonio import decoder, read_json, typed, write_json
from .metrics import MetricsReport, evaluate, metrics_to_dict, save_metrics, write_sweep_csv

DEFAULT_SWEEP_THRESHOLDS = tuple(i / 20 for i in range(21))


@dataclass(frozen=True)
class StageConfig:
    architecture: Architecture
    layer_cost: int
    dar_weight: float | None = None


@dataclass(frozen=True)
class PipelineConfig:
    """One experiment: datasets, stage lineup, training, and targets.

    ``stages`` must be ordered by ascending layer cost.  A stage may pin
    its own ``dar_weight``; otherwise the shared training value applies to
    every stage except the last, whose confidence never gates an exit.
    """

    train_dataset: str
    stages: tuple[StageConfig, ...]
    output_dir: str
    full_model_cost: int = DEFAULT_FULL_MODEL_COST
    train: TrainConfig = TrainConfig()
    calibration_dataset: str | None = None
    eval_dataset: str | None = None
    dataset_format: str = "jsonl_features"
    feature_dim: int | None = None
    num_classes: int | None = None
    difficulty_folds: int = DEFAULT_NUM_FOLDS
    difficulty_seeds: int = DEFAULT_NUM_SEEDS
    difficulty_report: str | None = None
    target_speedups: tuple[float, ...] = ()
    calibration_tolerance: float = DEFAULT_CALIBRATION_TOLERANCE
    sweep_thresholds: tuple[float, ...] = DEFAULT_SWEEP_THRESHOLDS
    positive_class: int | None = None

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValidationError("config needs at least one stage")
        costs = [s.layer_cost for s in self.stages]
        if any(a > b for a, b in zip(costs, costs[1:])):
            raise ValidationError(f"stage layer costs must be ascending, got {costs}")

    def stage_dar_weight(self, index: int) -> float:
        stage = self.stages[index]
        if stage.dar_weight is not None:
            return stage.dar_weight
        return self.train.dar_weight if index < len(self.stages) - 1 else 0.0


@decoder("config")
def config_from_dict(payload: dict, base_dir: str = ".") -> PipelineConfig:
    config = typed(payload, PipelineConfig, "")
    keys = "train_dataset output_dir calibration_dataset eval_dataset difficulty_report".split()
    # Relative paths resolve against base_dir; os.path.join keeps an absolute one as it is.
    paths = {k: os.path.join(base_dir, p) for k in keys if (p := getattr(config, k)) is not None}
    return replace(config, **paths)


def load_config(path: str, seed: int | None = None, out: str | None = None) -> PipelineConfig:
    base_dir = os.path.dirname(os.path.abspath(path))
    config = read_json(path, lambda payload: config_from_dict(payload, base_dir=base_dir))
    if seed is not None:
        config = replace(config, train=replace(config.train, seed=seed))
    if out is not None:
        config = replace(config, output_dir=out)
    return config


def _load_split(config: PipelineConfig, path: str | None, role: str) -> Dataset:
    if path is None:
        article = "an" if role[0] in "aeiou" else "a"
        raise ValidationError(f"config does not declare {article} {role} dataset")
    return load_dataset(
        path,
        format=config.dataset_format,
        feature_dim=config.feature_dim,
        num_classes=config.num_classes,
    )


def _training_dataset(config: PipelineConfig) -> Dataset:
    """Train split with difficulty labels attached when any stage needs them."""
    dataset = _load_split(config, config.train_dataset, "train")
    needs_difficulty = any(
        config.stage_dar_weight(i) > 0 for i in range(len(config.stages))
    )
    if not needs_difficulty:
        return dataset
    if config.difficulty_report is not None:
        return dataset.with_difficulty(load_report(config.difficulty_report).labels)
    try:
        dataset.difficulty_array()
    except ValidationError:
        raise ValidationError(
            "dar_weight > 0 needs difficulty labels: run the label command first "
            "and set difficulty_report, or ship a dataset with difficulty fields"
        ) from None
    return dataset


def _stage_model_path(config: PipelineConfig, index: int) -> str:
    return os.path.join(config.output_dir, STAGE_MODEL_FILENAME.format(index))


def _load_stage_models(config: PipelineConfig) -> list:
    models = []
    for i in range(len(config.stages)):
        path = _stage_model_path(config, i)
        if not os.path.exists(path):
            raise ValidationError(f"missing model file {path}: run the train command first")
        models.append(load_model(path))
    return models


def _build_cascade(config: PipelineConfig) -> Cascade:
    """The trained stages, every exit threshold at 1.0."""
    costs = [stage.layer_cost for stage in config.stages]
    stages = tuple(map(StageSpec, _load_stage_models(config), costs))
    return Cascade(stages, (1.0,) * (len(stages) - 1), config.full_model_cost)


def _eval_difficulty(dataset: Dataset) -> dict[str, int] | None:
    """Every instance's difficulty flag by id, or None if one lacks a flag."""
    try:
        flags = dataset.difficulty_array()
    except ValidationError:
        return None
    return dict(zip(dataset.ids(), flags.tolist()))


def _evaluate(config: PipelineConfig, traces, eval_ds: Dataset, dis_difficulty) -> MetricsReport:
    """The metrics of ``traces`` on ``eval_ds`` under the config's cost and classes."""
    return evaluate(
        traces,
        eval_ds,
        config.full_model_cost,
        dis_difficulty=dis_difficulty,
        positive_class=config.positive_class,
        num_stages=len(config.stages),
    )


def cmd_train(config: PipelineConfig) -> int:
    dataset = _training_dataset(config)
    os.makedirs(config.output_dir, exist_ok=True)
    log_entries = []
    for i, stage in enumerate(config.stages):
        stage_config = replace(
            config.train,
            dar_weight=config.stage_dar_weight(i),
            seed=config.train.seed + i,
        )
        model, losses = train_with_log(dataset, stage.architecture, stage_config)
        path = _stage_model_path(config, i)
        save_model(model, path)
        log_entries.append(
            {
                "stage": i,
                "architecture": asdict(stage.architecture),
                "layer_cost": stage.layer_cost,
                "dar_weight": stage_config.dar_weight,
                "seed": stage_config.seed,
                "epoch_losses": losses,
            }
        )
        print(f"stage {i}: trained {stage.architecture.kind} -> {path} "
              f"(final loss {losses[-1]:.4f})")
    log_path = os.path.join(config.output_dir, "train_log.json")
    write_json(log_path, {"stages": log_entries})
    print(f"training log -> {log_path}")
    return 0


def cmd_label(config: PipelineConfig) -> int:
    dataset = _load_split(config, config.train_dataset, "train")
    base = replace(config.train, dar_weight=0.0)
    report = label_difficulty(
        dataset,
        config.stages[0].architecture,
        base,
        num_folds=config.difficulty_folds,
        num_seeds=config.difficulty_seeds,
    )
    os.makedirs(config.output_dir, exist_ok=True)
    report_path = os.path.join(config.output_dir, "difficulty_report.json")
    save_report(report, report_path)
    print(
        f"labeled {len(dataset)} instances with {config.stages[0].architecture.kind} "
        f"stage: {report.num_easy} easy, {report.num_difficult} difficult"
    )
    print(f"report -> {report_path}")
    return 0


def cmd_run(config: PipelineConfig) -> int:
    if not config.target_speedups:
        raise ValidationError("config declares no target_speedups to run")
    calibration = _load_split(config, config.calibration_dataset, "calibration")
    if config.eval_dataset is not None and os.path.realpath(config.eval_dataset) == (
        os.path.realpath(config.calibration_dataset)
    ):
        eval_ds = calibration  # a Dataset is immutable, so one load serves both roles
    else:
        eval_ds = _load_split(config, config.eval_dataset, "eval")
    base = _build_cascade(config)
    dis_difficulty = _eval_difficulty(eval_ds)
    ids, X = eval_ds.ids(), eval_ds.feature_matrix()
    os.makedirs(config.output_dir, exist_ok=True)
    calibrate = calibrator(base, calibration)  # one gating pass over the calibration set serves every target
    for target in config.target_speedups:
        thresholds = calibrate(target, config.calibration_tolerance)
        cascade = Cascade(base.stages, thresholds, config.full_model_cost)
        traces = run_batched(cascade, ids, X)
        report = _evaluate(config, traces, eval_ds, dis_difficulty)
        label = f"{target:g}x"
        traces_path = os.path.join(config.output_dir, f"traces_{label}.jsonl")
        metrics_path = os.path.join(config.output_dir, f"metrics_{label}.json")
        cascade_path = os.path.join(config.output_dir, f"cascade_{label}.json")
        save_traces(traces, traces_path)
        save_metrics(report, metrics_path)
        write_json(cascade_path, cascade_to_dict(cascade))  # its stages are the models train wrote
        tau = thresholds[0] if thresholds else None
        print(
            f"target {label}: tau={tau}, measured {report.speedup:.3f}x, "
            f"accuracy {report.accuracy:.4f}, ece {report.ece:.4f}"
            + (f", dis {report.dis:.4f}" if report.dis is not None else "")
        )
        print(f"  traces -> {traces_path}")
        print(f"  metrics -> {metrics_path}")
    return 0


def cmd_sweep(config: PipelineConfig) -> int:
    eval_ds = _load_split(config, config.eval_dataset, "eval")
    base = _build_cascade(config)
    dis_difficulty = _eval_difficulty(eval_ds)
    ids, X = eval_ds.ids(), eval_ds.feature_matrix()
    rows = []
    for tau in config.sweep_thresholds:
        cascade = base.with_shared_threshold(tau)
        rows.append((tau, _evaluate(config, run_batched(cascade, ids, X), eval_ds, dis_difficulty)))
    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, "sweep.csv")
    write_sweep_csv(csv_path, rows)
    print(f"swept {len(rows)} thresholds -> {csv_path}")
    return 0


def cmd_analyze(scenario_path: str, out_dir: str | None) -> int:
    scenario = load_scenario(scenario_path)
    report = gain_report(scenario)
    print(f"predicted gain: {report['predicted_gain']:+.6f}")
    if report["gain_upper_bound"] is not None:
        print(f"gain upper bound: {report['gain_upper_bound']:+.6f}")
    else:
        print("gain upper bound: undefined (new model accuracy outside neighbors')")
    print(f"max gain bound: {report['max_gain_bound']:+.6f}")
    print(f"original exits: {report['original_exits']} (feasible: {report['feasible']})")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "gain_report.json")
        write_json(path, report)
        print(f"report -> {path}")
    return 0


def cmd_metrics(config: PipelineConfig, traces_path: str) -> int:
    eval_ds = _load_split(config, config.eval_dataset, "eval")
    report = _evaluate(config, load_traces(traces_path), eval_ds, _eval_difficulty(eval_ds))
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, "metrics_recomputed.json")
    save_metrics(report, path)
    print(json.dumps(metrics_to_dict(report), sort_keys=True))
    print(f"metrics -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadekit",
        description="Train, calibrate, and evaluate early-exit model cascades.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="override the config's output_dir")
        p.add_argument("--seed", type=int, default=None, help="override the training seed")

    add_common(sub.add_parser("train", help="train every cascade stage"))
    add_common(sub.add_parser("label", help="produce a difficulty report for the train split"))
    add_common(sub.add_parser("run", help="calibrate thresholds and evaluate each target"))
    add_common(sub.add_parser("sweep", help="trade-off table over a threshold grid"))

    p_analyze = sub.add_parser("analyze", help="predicted gain of inserting a model")
    p_analyze.add_argument("--config", required=True, help="gain scenario JSON")
    p_analyze.add_argument("--out", default=None, help="directory for gain_report.json")

    p_metrics = sub.add_parser("metrics", help="recompute metrics from a traces file")
    add_common(p_metrics)
    p_metrics.add_argument("--traces", required=True, help="traces JSONL to score")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "analyze":
            return cmd_analyze(args.config, args.out)
        config = load_config(args.config, seed=args.seed, out=args.out)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "label":
            return cmd_label(config)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "metrics":
            return cmd_metrics(config, args.traces)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
