"""Evaluation metrics: confidence-difficulty ranking, calibration, accuracy.

The ranking score (:func:`dis`) asks how often difficult instances are
less confident than easy ones; calibration error (:func:`ece`) compares
per-bin accuracy against per-bin mean confidence.  :func:`evaluate` rolls
everything plus cost accounting into one report.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

from .cascade import ExitTrace, speedup_ratio
from .dataset import Dataset
from .errors import ValidationError
from .jsonio import decoder, from_fields, read_json, write_json

DEFAULT_ECE_BINS = 10

SWEEP_CSV_FIELDS = ("tau", "speedup", "accuracy", "dis", "ece")


@dataclass(frozen=True)
class ScoredInstance:
    """One prediction reduced to what the metrics need."""

    confidence: float
    predicted_label: int
    gold_label: int
    difficulty: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence {self.confidence} outside [0, 1]")
        if self.predicted_label < 0 or self.gold_label < 0:
            raise ValidationError("labels must be non-negative")
        if self.difficulty not in (None, 0, 1):
            raise ValidationError(f"difficulty must be 0, 1, or None, got {self.difficulty}")

    @property
    def correct(self) -> bool:
        return self.predicted_label == self.gold_label


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate evaluation of one cascade run."""

    num_instances: int
    accuracy: float
    ece: float
    speedup: float
    exit_histogram: tuple[int, ...]
    f1: float | None = None
    dis: float | None = None

    def __post_init__(self) -> None:
        rates = {"accuracy": self.accuracy, "ece": self.ece, "f1": self.f1, "dis": self.dis}
        for name, value in rates.items():
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} = {value} outside [0, 1]")
        if not 0.0 < self.speedup < math.inf:  # written so that NaN fails it
            raise ValidationError(f"speedup = {self.speedup} is not a positive finite number")
        if sum(self.exit_histogram) != self.num_instances:
            raise ValidationError("exit_histogram must sum to num_instances")


def _require_nonempty(scored: list[ScoredInstance], op: str) -> None:
    if not scored:
        raise ValidationError(f"{op} needs at least one scored instance")


def dis(scored: list[ScoredInstance]) -> float:
    """Fraction of (difficult, easy) pairs ranked consistently by confidence.

    A pair counts as inverted when the difficult instance is strictly more
    confident than the easy one; equal confidences are not inversions.
    Returns 1 - inversions / (num_easy * num_difficult).  Needs at least
    one easy and one difficult instance.
    """
    _require_nonempty(scored, "dis")
    missing = [s for s in scored if s.difficulty is None]
    if missing:
        raise ValidationError("dis requires a difficulty label on every instance")
    conf = np.array([s.confidence for s in scored])
    diff = np.array([s.difficulty for s in scored])
    easy_conf = np.sort(conf[diff == 0])
    difficult_conf = conf[diff == 1]
    if easy_conf.size == 0 or difficult_conf.size == 0:
        raise ValidationError(
            "dis is undefined without both easy and difficult instances "
            f"(got {easy_conf.size} easy, {difficult_conf.size} difficult)"
        )
    # Inversions: for each difficult confidence, the number of easy ones
    # strictly below it; side="left" leaves ties uncounted.
    inversions = int(np.searchsorted(easy_conf, difficult_conf, side="left").sum())
    return 1.0 - inversions / (easy_conf.size * difficult_conf.size)


def ece(scored: list[ScoredInstance], num_bins: int = DEFAULT_ECE_BINS) -> float:
    """Expected calibration error over equal-width confidence bins.

    Bin k covers ((k-1)/K, k/K], with confidence 0.0 assigned to the first
    bin; empty bins contribute nothing.
    """
    _require_nonempty(scored, "ece")
    if num_bins < 1:
        raise ValidationError("num_bins must be >= 1")
    conf = np.array([s.confidence for s in scored])
    correct = np.array([s.correct for s in scored], dtype=np.float64)
    bins = np.ceil(conf * num_bins).astype(np.int64)
    bins = np.clip(bins, 1, num_bins)
    total = 0.0
    n = len(scored)
    for k in range(1, num_bins + 1):
        members = bins == k
        count = int(members.sum())
        if count == 0:
            continue
        gap = abs(correct[members].mean() - conf[members].mean())
        total += (count / n) * gap
    return float(total)


def accuracy(scored: list[ScoredInstance]) -> float:
    _require_nonempty(scored, "accuracy")
    return sum(s.correct for s in scored) / len(scored)


def f1_binary(scored: list[ScoredInstance], positive_class: int) -> float:
    """F1 of the positive class; 0 when precision + recall is 0."""
    _require_nonempty(scored, "f1_binary")
    tp = sum(
        1 for s in scored if s.predicted_label == positive_class and s.gold_label == positive_class
    )
    fp = sum(
        1 for s in scored if s.predicted_label == positive_class and s.gold_label != positive_class
    )
    fn = sum(
        1 for s in scored if s.predicted_label != positive_class and s.gold_label == positive_class
    )
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def scored_from_traces(
    traces: list[ExitTrace],
    dataset: Dataset,
    difficulty: dict[str, int] | None = None,
) -> list[ScoredInstance]:
    """Pair traces with gold labels (and optional difficulty) by instance id.

    Trace ids and dataset ids must match exactly, one trace per instance.
    """
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
        scored.append(
            ScoredInstance(
                confidence=trace.confidence,
                predicted_label=trace.predicted_label,
                gold_label=gold[trace.instance_id],
                difficulty=d,
            )
        )
    return scored


def evaluate(
    traces: list[ExitTrace],
    dataset: Dataset,
    full_model_cost: int,
    dis_difficulty: dict[str, int] | None = None,
    positive_class: int | None = None,
    num_stages: int | None = None,
    num_bins: int = DEFAULT_ECE_BINS,
) -> MetricsReport:
    """Full metrics for a cascade run over a dataset.

    The ranking score is included only when ``dis_difficulty`` labels are
    given, F1 only when ``positive_class`` is given.  ``num_stages`` sizes
    the exit histogram; by default the deepest observed exit sets it.
    """
    _require_nonempty(traces, "evaluate")  # type: ignore[arg-type]
    scored = scored_from_traces(traces, dataset, dis_difficulty)
    deepest = max(t.exit_stage for t in traces)
    if num_stages is None:
        num_stages = deepest + 1
    elif deepest >= num_stages:
        raise ValidationError(f"trace exits at stage {deepest} but num_stages is {num_stages}")
    histogram = [0] * num_stages
    for trace in traces:
        histogram[trace.exit_stage] += 1
    return MetricsReport(
        num_instances=len(traces),
        accuracy=accuracy(scored),
        ece=ece(scored, num_bins),
        speedup=speedup_ratio(traces, full_model_cost),
        exit_histogram=tuple(histogram),
        f1=f1_binary(scored, positive_class) if positive_class is not None else None,
        dis=dis(scored) if dis_difficulty is not None else None,
    )


def metrics_to_dict(report: MetricsReport) -> dict:
    return asdict(report)


@decoder("metrics report")
def metrics_from_dict(payload: dict) -> MetricsReport:
    return from_fields(MetricsReport, payload)


def save_metrics(report: MetricsReport, path) -> None:
    write_json(path, metrics_to_dict(report))


def load_metrics(path) -> MetricsReport:
    return read_json(path, metrics_from_dict)


def write_sweep_csv(path, rows: list[tuple[float, MetricsReport]]) -> None:
    """One CSV row per threshold: tau, speedup, accuracy, dis, ece.

    The ranking column is left empty when a report carries no dis value.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_FIELDS)
        for tau, report in rows:
            writer.writerow(
                [
                    repr(float(tau)),
                    repr(report.speedup),
                    repr(report.accuracy),
                    "" if report.dis is None else repr(report.dis),
                    repr(report.ece),
                ]
            )
