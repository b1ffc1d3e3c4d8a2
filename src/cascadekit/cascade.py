"""Sequential model cascades with confidence-gated early exits.

Stages run cheapest-first; an instance stops at the first stage whose top
class probability strictly exceeds that stage's threshold, and the last
stage always answers.  Cost accounting charges every stage an instance
actually ran, so re-running a harder model on top of a cheap miss is paid
for in full.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .classifier import (
    ClassDistribution,
    ClassifierModel,
    confidence,
    load_model,
    predict,
    predict_batch,
    save_model,
)
from .dataset import Dataset, Instance
from .errors import ValidationError
from .jsonio import decoder, numbers, read_json, read_jsonl, typed, write_json, write_jsonl

DEFAULT_FULL_MODEL_COST = 12
DEFAULT_CALIBRATION_TOLERANCE = 0.04
_COSTS = tuple[int, ...]  # one hint object: building and hashing a new one per trace is slow


@dataclass(frozen=True)
class StageSpec:
    """One cascade member: a model plus its abstract layer cost."""

    model: ClassifierModel
    layer_cost: int

    def __post_init__(self) -> None:
        if self.layer_cost < 1:
            raise ValidationError("layer_cost must be >= 1")


@dataclass(frozen=True)
class Cascade:
    """Ordered stages, per-stage exit thresholds, and the reference cost.

    ``full_model_cost`` is the layer count of the notional full model that
    speed-ups are quoted against; it is explicit because the reference can
    exceed the largest stage actually present.
    """

    stages: tuple[StageSpec, ...]
    thresholds: tuple[float, ...]
    full_model_cost: int = DEFAULT_FULL_MODEL_COST

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        thresholds = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "thresholds", thresholds)
        if not stages:
            raise ValidationError("cascade needs at least one stage")
        costs = [s.layer_cost for s in stages]
        if any(a > b for a, b in zip(costs, costs[1:])):
            raise ValidationError(f"stage costs must be ascending, got {costs}")
        if len(thresholds) != len(stages) - 1:
            raise ValidationError(
                f"{len(stages)} stages need {len(stages) - 1} thresholds, "
                f"got {len(thresholds)}"
            )
        if any(not 0.0 <= t <= 1.0 for t in thresholds):
            raise ValidationError("thresholds must lie in [0, 1]")
        if self.full_model_cost < 1:
            raise ValidationError("full_model_cost must be >= 1")

    def with_shared_threshold(self, tau: float) -> "Cascade":
        """Same stages with every non-final threshold set to ``tau``."""
        return Cascade(self.stages, (float(tau),) * (len(self.stages) - 1), self.full_model_cost)


@dataclass(frozen=True)
class ExitTrace:
    """Where one instance left the cascade and what it cost to get there."""

    instance_id: str
    exit_stage: int
    distribution: ClassDistribution
    confidence: float
    executed_costs: tuple[int, ...]
    total_cost: int

    def __post_init__(self) -> None:
        if self.exit_stage != len(self.executed_costs) - 1:
            raise ValidationError("executed_costs must cover stages 0..exit_stage")
        if self.total_cost != sum(self.executed_costs):
            raise ValidationError("total_cost must equal the sum of executed_costs")

    @property
    def predicted_label(self) -> int:
        return self.distribution.predicted_label


def cascade_predict(cascade: Cascade, instance: Instance) -> ExitTrace:
    """Run stages in order until one clears its threshold (strictly) or the
    last stage is reached; the last stage emits unconditionally."""
    executed: list[int] = []
    last = len(cascade.stages) - 1
    for stage_index, stage in enumerate(cascade.stages):
        dist = predict(stage.model, instance)
        executed.append(stage.layer_cost)
        conf = confidence(dist)
        if stage_index == last or conf > cascade.thresholds[stage_index]:
            return ExitTrace(
                instance_id=instance.id,
                exit_stage=stage_index,
                distribution=dist,
                confidence=conf,
                executed_costs=tuple(executed),
                total_cost=sum(executed),
            )
    raise AssertionError("unreachable: final stage always emits")


def run_cascade(cascade: Cascade, dataset: Dataset) -> list[ExitTrace]:
    """Traces for every instance, in dataset order."""
    return [cascade_predict(cascade, inst) for inst in dataset.instances]


def speedup_ratio(traces: list[ExitTrace], full_model_cost: int) -> float:
    """Reference cost divided by the mean executed cost per instance."""
    if not traces:
        raise ValidationError("speedup_ratio needs at least one trace")
    if full_model_cost < 1:
        raise ValidationError("full_model_cost must be >= 1")
    mean_cost = sum(t.total_cost for t in traces) / len(traces)
    return full_model_cost / mean_cost


def _confidence_matrix(cascade: Cascade, dataset: Dataset) -> np.ndarray:
    """Per-stage top probabilities, shape (num_stages, num_instances)."""
    X = dataset.feature_matrix()
    return np.stack([predict_batch(stage.model, X).max(axis=1) for stage in cascade.stages])


def calibrate_threshold(
    cascade: Cascade,
    calibration: Dataset,
    target_speedup: float,
    tolerance: float = DEFAULT_CALIBRATION_TOLERANCE,
) -> tuple[float, ...]:
    """Find a shared threshold whose measured speed-up matches the target.

    Scores the threshold at every confidence value any non-final stage
    produces on the calibration set (plus 0 and 1), so every operating
    point achievable on that set is tried; ties go to the smallest such
    value.  Returns per-stage thresholds all equal to the winning value.
    Raises if the closest achievable speed-up misses the target by more
    than ``tolerance * target``, or if the target is outside
    [1, full_model_cost / smallest stage cost].
    """
    if not calibration.instances:
        raise ValidationError("calibration dataset is empty")
    if not tolerance > 0:  # written so that NaN fails it
        raise ValidationError("tolerance must be positive")
    costs = [s.layer_cost for s in cascade.stages]
    max_speedup = cascade.full_model_cost / costs[0]
    if not 1.0 <= target_speedup <= max_speedup:
        raise ValidationError(
            f"target speed-up {target_speedup:g} outside achievable range "
            f"[1, {max_speedup:g}] for this cascade"
        )

    conf = _confidence_matrix(cascade, calibration)
    n = conf.shape[1]
    candidates = np.unique(np.concatenate([conf[:-1].ravel(), [0.0, 1.0]]))
    # Under a shared tau, stage s + 1 runs exactly on the instances whose
    # running max confidence over stages 0..s is <= tau (no strict exit yet),
    # so each candidate's total cost is an integer count-weighted sum.
    total = np.full(candidates.shape, n * costs[0], dtype=np.int64)
    running_max = np.maximum.accumulate(conf[:-1], axis=0)
    for cost, stage_max in zip(costs[1:], running_max):
        total += cost * np.searchsorted(np.sort(stage_max), candidates, side="right")
    measured = cascade.full_model_cost / (total / n)
    best = int(np.argmin(np.abs(measured - target_speedup)))
    if abs(measured[best] - target_speedup) > tolerance * target_speedup:
        raise ValidationError(
            f"no threshold reaches {target_speedup:g}x within "
            f"relative tolerance {tolerance:g}: closest {measured[best]:g}x, achievable "
            f"range [{measured.min():g}x, {measured.max():g}x] on this calibration set"
        )
    return (float(candidates[best]),) * (len(cascade.stages) - 1)


def trace_to_dict(trace: ExitTrace) -> dict:
    return {
        "instance_id": trace.instance_id,
        "exit_stage": trace.exit_stage,
        "probs": [float(p) for p in trace.distribution.probs],
        "confidence": trace.confidence,
        "executed_costs": list(trace.executed_costs),
        "total_cost": trace.total_cost,
    }


@decoder("trace record")
def trace_from_dict(payload: dict) -> ExitTrace:
    distribution = ClassDistribution(numbers(payload["probs"], "probs"))
    conf = typed(payload["confidence"], float, "confidence")
    # Compared with the payload's own list: np.max would slow every trace load.
    if conf != max(payload["probs"]):
        raise ValidationError(f"confidence {conf!r} is not the largest of the probabilities")
    return ExitTrace(
        instance_id=typed(payload["instance_id"], str, "instance_id"),
        exit_stage=typed(payload["exit_stage"], int, "exit_stage"),
        distribution=distribution,
        confidence=conf,
        executed_costs=typed(payload["executed_costs"], _COSTS, "executed_costs"),
        total_cost=typed(payload["total_cost"], int, "total_cost"),
    )


def save_traces(traces: list[ExitTrace], path) -> None:
    write_jsonl(path, map(trace_to_dict, traces))


def load_traces(path) -> list[ExitTrace]:
    return read_jsonl(path, trace_from_dict)


def save_cascade(cascade: Cascade, path, model_filenames: list[str] | None = None) -> None:
    """Write a cascade description JSON plus one model file per stage.

    Model files live next to the description; the description references
    them by relative name so the bundle can be moved as a directory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if model_filenames is None:
        model_filenames = [f"stage{i}_model.json" for i in range(len(cascade.stages))]
    if len(model_filenames) != len(cascade.stages):
        raise ValidationError("need one model filename per stage")
    for stage, name in zip(cascade.stages, model_filenames):
        save_model(stage.model, os.path.join(directory, name))
    payload = {
        "stages": [
            {"model_path": name, "layer_cost": stage.layer_cost}
            for stage, name in zip(cascade.stages, model_filenames)
        ],
        "thresholds": list(cascade.thresholds),
        "full_model_cost": cascade.full_model_cost,
    }
    write_json(path, payload)


@decoder("cascade description")
def _cascade_from_dict(payload: dict, directory: str) -> Cascade:
    stages = []
    for i, entry in enumerate(payload["stages"]):
        model_path = typed(entry["model_path"], str, f"stages[{i}].model_path")
        layer_cost = typed(entry["layer_cost"], int, f"stages[{i}].layer_cost")
        stages.append(StageSpec(load_model(os.path.join(directory, model_path)), layer_cost))
    thresholds = typed(payload["thresholds"], tuple[float, ...], "thresholds")
    return Cascade(stages, thresholds, typed(payload["full_model_cost"], int, "full_model_cost"))


def load_cascade(path) -> Cascade:
    """Read a cascade description JSON, loading stage models from paths
    resolved relative to the description file."""
    directory = os.path.dirname(os.path.abspath(path))
    return read_json(path, lambda payload: _cascade_from_dict(payload, directory))
