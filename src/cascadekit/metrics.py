"""Evaluation metrics: confidence-difficulty ranking, calibration, accuracy.

The ranking score (:func:`dis`) asks how often difficult instances are
less confident than easy ones; calibration error (:func:`ece`) compares
per-bin accuracy against per-bin mean confidence.  :func:`evaluate` rolls
everything plus cost accounting into one report.  Every metric reads the
columns of a :class:`ScoredTable`; a list of :class:`ScoredInstance` is
turned into one first.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .cascade import ExitTrace, TraceTable, speedup_ratio
from .dataset import NO_DIFFICULTY, Dataset, flags_by_id
from .errors import ValidationError, column, first_fault, frozen, int64_column, integer, real, refused_at
from .errors import instance_of, unchecked
from .jsonio import decoder, read_json, typed, write_json

DEFAULT_ECE_BINS = 10

SWEEP_CSV_FIELDS = ("tau", "speedup", "accuracy", "dis", "ece")


@dataclass(frozen=True)
class ScoredInstance:
    """One prediction reduced to what the metrics need: one row of a
    :class:`ScoredTable`, checked by the table's rules."""

    confidence: float
    predicted_label: int
    gold_label: int
    difficulty: int | None = None

    def __post_init__(self) -> None:
        flag, missing = (NO_DIFFICULTY,) * 2 if self.difficulty is None else (self.difficulty, None)
        row = [self.confidence], [self.predicted_label], [self.gold_label], [flag]
        conf, predicted, gold, flags = _checked_scores(lambda _: "", *row, missing=missing)
        self.__dict__.update(vars(_scored_row(float(conf[0]), predicted[0], gold[0], flags[0])))

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
        object.__setattr__(self, "num_instances", integer(self.num_instances, "num_instances"))
        counts = tuple(integer(c, "exit_histogram", low=0) for c in self.exit_histogram)
        object.__setattr__(self, "exit_histogram", counts)
        for name in ("accuracy", "ece", "f1", "dis"):
            value = getattr(self, name)
            if value is not None or name in ("accuracy", "ece"):  # f1 and dis may be None
                object.__setattr__(self, name, real(value, name))
                if not 0.0 <= getattr(self, name) <= 1.0:
                    raise ValidationError(f"{name} = {value} outside [0, 1]")
        object.__setattr__(self, "speedup", real(self.speedup, "speedup"))
        if not 0.0 < self.speedup < math.inf:  # written so that NaN fails it
            raise ValidationError(f"speedup = {self.speedup} is not a positive finite number")
        if sum(self.exit_histogram) != self.num_instances:
            raise ValidationError("exit_histogram must sum to num_instances")


@dataclass(frozen=True, eq=False)
class ScoredTable(Sequence):
    """Scored predictions as columns, one row per instance: what the metrics read.

    ``difficulty`` is ``NO_DIFFICULTY`` where an instance has no flag (all when None).
    Construction checks the rules of :class:`ScoredInstance` once per column, naming the first
    faulty row, and holds the columns as :func:`errors.frozen` gives them.  As a
    ``Sequence[ScoredInstance]``, indexing or iterating builds one per row on demand; a slice is
    a table of views.
    """

    confidence: np.ndarray
    predicted_label: np.ndarray
    gold_label: np.ndarray
    difficulty: np.ndarray | None = None

    def __post_init__(self) -> None:
        flags = self.difficulty
        flags = np.full(np.shape(self.confidence), NO_DIFFICULTY) if flags is None else flags
        columns = (self.confidence, self.predicted_label, self.gold_label, flags)
        conf, *labels = _checked_scores(lambda row: f"row {row}: ", *columns)
        self.__dict__.update(zip(self.__dataclass_fields__, (conf, *(frozen(c, np.int64) for c in labels))))

    @property
    def correct(self) -> np.ndarray:
        return self.predicted_label == self.gold_label

    def __len__(self) -> int:
        return len(self.confidence)

    def __getitem__(self, index):
        columns = (self.confidence, self.predicted_label, self.gold_label, self.difficulty)
        if isinstance(index, slice):
            return ScoredTable(*(column[index] for column in columns))
        i = range(len(self))[index]
        return _scored_row(*(column[i].item() for column in columns))

    def __iter__(self) -> Iterator[ScoredInstance]:
        return map(self.__getitem__, range(len(self)))


def _checked_scores(where, *columns, missing: int | None = NO_DIFFICULTY) -> tuple:
    """The columns of a :class:`ScoredTable` read by the value rule (the
    confidences as a :func:`errors.frozen` float64 array), if they
    are flat and of one length and every row obeys the rules of a
    :class:`ScoredInstance`: a real confidence in [0, 1], int64 labels >=
    0 and a difficulty flag in {0, 1}, or ``missing`` for none; else
    ``ValidationError(where(row) + reason)`` for the first row that does
    not, with the first of these rules it breaks."""
    columns = [c if isinstance(c, np.ndarray) else np.asarray(c, dtype=object) for c in columns]
    if {c.ndim for c in columns} != {1} or len({len(c) for c in columns}) != 1:
        raise ValidationError("scored columns must be flat and of one length")
    conf, conf_refusal = column(columns[0], real, "confidence")
    predicted, predicted_refusal = int64_column(columns[1], "predicted_label", 0)
    gold, gold_refusal = int64_column(columns[2], "gold_label", 0)
    flags, flag_refusal = column(columns[3], integer, "difficulty", 0, 1, missing=missing)
    conf = frozen(conf, np.float64)
    first_fault(where, [  # NaN fails the range check
        (refused_at(conf, conf_refusal), conf_refusal),
        (~((conf >= 0.0) & (conf <= 1.0)), lambda row: f"confidence {conf[row]} outside [0, 1]"),
        (refused_at(predicted, predicted_refusal), predicted_refusal),
        (refused_at(gold, gold_refusal), gold_refusal),
        (refused_at(flags, flag_refusal), flag_refusal),
    ])
    return conf, predicted, gold, flags


def _scored_row(confidence: float, predicted: int, gold: int, flag: int) -> ScoredInstance:
    """A :class:`ScoredTable` row as a :class:`ScoredInstance`, made without
    running the ``__post_init__`` checks: the table ran the same ones."""
    difficulty = None if flag == NO_DIFFICULTY else flag
    return unchecked(ScoredInstance, confidence=confidence, predicted_label=predicted, gold_label=gold,
                     difficulty=difficulty)


def _scored(scored: Sequence[ScoredInstance], op: str) -> ScoredTable:
    """The columns of ``scored``, which must not be empty."""
    if not len(scored):
        raise ValidationError(f"{op} needs at least one scored instance")
    if isinstance(scored, ScoredTable):
        return scored
    return ScoredTable(
        np.array([s.confidence for s in scored], dtype=np.float64),
        np.array([s.predicted_label for s in scored]),
        np.array([s.gold_label for s in scored]),
        np.array([NO_DIFFICULTY if s.difficulty is None else s.difficulty for s in scored]),
    )


def dis(scored: Sequence[ScoredInstance]) -> float:
    """Fraction of (difficult, easy) pairs ranked consistently by confidence.

    A pair counts as inverted when the difficult instance is strictly more
    confident than the easy one; equal confidences are not inversions.
    Returns 1 - inversions / (num_easy * num_difficult).  Needs at least
    one easy and one difficult instance.
    """
    table = _scored(scored, "dis")
    if (table.difficulty < 0).any():
        raise ValidationError("dis requires a difficulty label on every instance")
    easy_conf = np.sort(table.confidence[table.difficulty == 0])
    difficult_conf = table.confidence[table.difficulty == 1]
    if easy_conf.size == 0 or difficult_conf.size == 0:
        raise ValidationError(
            "dis is undefined without both easy and difficult instances "
            f"(got {easy_conf.size} easy, {difficult_conf.size} difficult)"
        )
    # Inversions: for each difficult confidence, the number of easy ones
    # strictly below it; side="left" leaves ties uncounted.
    inversions = int(np.searchsorted(easy_conf, difficult_conf, side="left").sum())
    return 1.0 - inversions / (easy_conf.size * difficult_conf.size)


def ece(scored: Sequence[ScoredInstance], num_bins: int = DEFAULT_ECE_BINS) -> float:
    """Expected calibration error over equal-width confidence bins.

    Bin k covers ((k-1)/K, k/K], with confidence 0.0 assigned to the first
    bin; empty bins contribute nothing.
    """
    table = _scored(scored, "ece")
    num_bins = integer(num_bins, "num_bins", low=1)
    conf = table.confidence
    correct = table.correct.astype(np.float64)
    bins = np.ceil(conf * num_bins).astype(np.int64)
    bins = np.clip(bins, 1, num_bins)
    total = 0.0
    n = len(table)
    # Per-bin means: summing bins with np.bincount instead moves the last bits.
    for k in range(1, num_bins + 1):
        members = bins == k
        count = int(members.sum())
        if count == 0:
            continue
        gap = abs(correct[members].mean() - conf[members].mean())
        total += (count / n) * gap
    return float(total)


def accuracy(scored: Sequence[ScoredInstance]) -> float:
    table = _scored(scored, "accuracy")
    return int(np.count_nonzero(table.correct)) / len(table)


def f1_binary(scored: Sequence[ScoredInstance], positive_class: int) -> float:
    """F1 of the positive class; 0 when precision + recall is 0."""
    table = _scored(scored, "f1_binary")
    positive_class = integer(positive_class, "positive_class", low=0)
    predicted = table.predicted_label == positive_class
    actual = table.gold_label == positive_class
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def scored_from_traces(
    traces: Sequence[ExitTrace],
    dataset: Dataset,
    difficulty: dict[str, int] | None = None,
) -> ScoredTable:
    """Pair traces with gold labels (and optional difficulty) by instance id.

    Trace ids and dataset ids must match exactly, one trace per instance.
    """
    table = TraceTable.from_traces(traces)
    trace_ids = list(table.ids)
    dataset_ids = dataset.ids()
    gold = dataset.label_array()
    if trace_ids != dataset_ids:
        if len(set(trace_ids)) != len(trace_ids):
            raise ValidationError("duplicate instance ids in traces")
        if set(trace_ids) != set(dataset_ids):
            missing = sorted(set(dataset_ids) - set(trace_ids))[:3]
            extra = sorted(set(trace_ids) - set(dataset_ids))[:3]
            raise ValidationError(
                f"trace ids do not match the dataset (missing {missing}, unexpected {extra})"
            )
        position = {inst_id: i for i, inst_id in enumerate(dataset_ids)}
        gold = gold[[position[inst_id] for inst_id in trace_ids]]
    flags = None
    if difficulty is not None:
        flags = flags_by_id(trace_ids, difficulty, "no difficulty label for instance", lambda _: "")
    return ScoredTable(table.confidence, table.predicted_label, gold, flags)


def evaluate(
    traces: Sequence[ExitTrace],
    dataset: Dataset,
    full_model_cost: int,
    dis_difficulty: dict[str, int] | None = None,
    positive_class: int | None = None,
    num_stages: int | None = None,
) -> MetricsReport:
    """Full metrics for a cascade run over a dataset.

    The ranking score is included only when ``dis_difficulty`` labels are
    given, F1 only when ``positive_class`` is given.  ``num_stages`` sizes
    the exit histogram; by default the deepest observed exit sets it.
    """
    dataset = instance_of(dataset, Dataset, "dataset")
    if positive_class is not None:
        integer(positive_class, "positive_class", 0, dataset.num_classes - 1)
    table = TraceTable.from_traces(traces)
    if not len(table):
        raise ValidationError("evaluate needs at least one scored instance")
    scored = scored_from_traces(table, dataset, dis_difficulty)
    deepest = int(table.exit_stage.max())
    if num_stages is None:
        num_stages = deepest + 1
    elif deepest >= integer(num_stages, "num_stages", low=1):
        raise ValidationError(f"trace exits at stage {deepest} but num_stages is {num_stages}")
    histogram = np.bincount(table.exit_stage, minlength=num_stages)
    return MetricsReport(
        num_instances=len(table),
        accuracy=accuracy(scored),
        ece=ece(scored),
        speedup=speedup_ratio(table, full_model_cost),
        exit_histogram=tuple(histogram.tolist()),
        f1=f1_binary(scored, positive_class) if positive_class is not None else None,
        dis=dis(scored) if dis_difficulty is not None else None,
    )


def metrics_to_dict(report: MetricsReport) -> dict:
    return asdict(report)


@decoder("metrics report")
def metrics_from_dict(payload: dict) -> MetricsReport:
    return typed(payload, MetricsReport, "")


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
