"""Sequential model cascades with confidence-gated early exits.

Stages run cheapest-first; an instance stops at the first stage whose top
class probability strictly exceeds that stage's threshold, and the last
stage always answers.  Cost accounting charges every stage an instance
actually ran, so re-running a harder model on top of a cheap miss is paid
for in full.  A run's traces are one :class:`TraceTable`: columns with a
row per instance, which also reads as a sequence of :class:`ExitTrace`.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import reprlib
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .classifier import (
    NOT_FEATURE_MATRIX,
    ClassDistribution,
    ClassifierModel,
    load_model,
    predict,
    predict_batch,
    probability_rows,
    save_model,
)
from .dataset import Dataset, Instance
from .errors import NumericError, ValidationError, column, column_rows, first_fault, frozen, instance_of
from .errors import integer, real, real_matrix, refused_at, string, unchecked
from .jsonio import (
    array_text,
    decoder,
    float_text,
    int_text,
    iter_jsonl,
    jsonl_lines,
    read_json,
    string_text,
    typed,
    write_json,
    write_lines,
)

DEFAULT_FULL_MODEL_COST = 12
DEFAULT_CALIBRATION_TOLERANCE = 0.04
STAGE_MODEL_FILENAME = "stage{}_model.json"  # stage k's model file in a run directory


@dataclass(frozen=True)
class StageSpec:
    """One cascade member: a model plus its abstract layer cost."""

    model: ClassifierModel
    layer_cost: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_cost", integer(self.layer_cost, "layer_cost", low=1))


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
        thresholds = tuple(real(t, "thresholds") for t in self.thresholds)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "thresholds", thresholds)
        if not stages:
            raise ValidationError("cascade needs at least one stage")
        costs = [s.layer_cost for s in stages]
        if any(a > b for a, b in zip(costs, costs[1:])):
            raise ValidationError(f"stage costs must be ascending, got {costs}")
        classes = [s.model.num_classes for s in stages]
        if len(set(classes)) > 1:
            raise ValidationError(f"stages must share one number of classes, got {classes}")
        if len(thresholds) != len(stages) - 1:
            raise ValidationError(
                f"{len(stages)} stages need {len(stages) - 1} thresholds, "
                f"got {len(thresholds)}"
            )
        if any(not 0.0 <= t <= 1.0 for t in thresholds):
            raise ValidationError("thresholds must lie in [0, 1]")
        full_model_cost = integer(self.full_model_cost, "full_model_cost", low=1)
        object.__setattr__(self, "full_model_cost", full_model_cost)

    def with_shared_threshold(self, tau: float) -> "Cascade":
        """Same stages with every non-final threshold set to ``tau``."""
        return Cascade(self.stages, (tau,) * (len(self.stages) - 1), self.full_model_cost)


# The rules every trace obeys, checked by _checked_rows alone.
_NOT_TABLE = "trace columns must be flat (probs a matrix) and of one length"
_NOT_MAX = "confidence {!r} is not the largest of the probabilities"
_NOT_COVERED = "executed_costs must cover stages 0..exit_stage, and exit_stage must be >= 0"
_NOT_SUMMED = "total_cost must equal the sum of executed_costs"


@dataclass(frozen=True)
class ExitTrace:
    """Where one instance left the cascade and what it cost to get there:
    one row of a :class:`TraceTable`, checked by the table's rules."""

    instance_id: str
    exit_stage: int
    distribution: ClassDistribution
    confidence: float
    executed_costs: tuple[int, ...]
    total_cost: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "confidence", real(self.confidence, "confidence"))
        names = ("instance_id", "exit_stage", "executed_costs", "total_cost")
        probs, row = self.distribution.probs[None], [(getattr(self, name),) for name in names]
        table = _checked_rows(lambda _: "", probs, [self.confidence], *row)
        ids, stages, probs, costs, totals = table.values()
        self.__dict__.update(zip(names, (ids[0], int(stages[0]), costs[0], totals[0])))
        self.__dict__["distribution"] = unchecked(ClassDistribution, probs=probs[0])  # predict's is writable

    @property
    def predicted_label(self) -> int:
        return self.distribution.predicted_label


@dataclass(frozen=True, eq=False)
class TraceTable(Sequence):
    """The traces of a run as columns, one row per instance.

    ``probs`` holds each instance's answering distribution (N x C), and
    ``exit_stage``, ``executed_costs`` and ``total_cost`` what it ran.
    Construction checks every row by the rules of :class:`ClassDistribution`
    and :class:`ExitTrace` (``probs`` too by the value rule), once per
    column, and holds the arrays as :func:`errors.frozen` gives them.  The table is also a
    ``Sequence[ExitTrace]``: indexing or iterating builds the row's trace on demand (already
    checked, so it is not checked again, its probabilities a view), and a slice is a table of views.
    """

    ids: tuple[str, ...]
    exit_stage: np.ndarray
    probs: np.ndarray
    executed_costs: tuple[tuple[int, ...], ...]
    total_cost: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            ids = tuple(self.ids)
            columns = (ids, self.exit_stage, self.executed_costs, self.total_cost)
            lengths = {len(self.probs), *map(len, columns)}
        except TypeError:  # a column that is not a sequence
            lengths = set()
        if len(lengths) != 1:
            raise ValidationError(_NOT_TABLE)
        self.__dict__.update(_checked_rows(lambda row: f"trace {ids[row]!r}: ", self.probs, None, *columns))

    @classmethod
    def from_traces(cls, traces: Sequence[ExitTrace]) -> "TraceTable":
        """The table of ``traces``, a sequence of :class:`ExitTrace`; a table is returned as it is."""
        if isinstance(traces, TraceTable):
            return traces
        traces = [instance_of(trace, ExitTrace, "traces") for trace in instance_of(traces, Sequence, "traces")]
        shapes = {t.distribution.probs.shape for t in traces}
        if len(shapes) > 1:
            raise ValidationError(f"traces mix probability vectors of shapes {sorted(shapes)}")
        return cls(
            tuple(t.instance_id for t in traces),
            [t.exit_stage for t in traces],
            np.stack([t.distribution.probs for t in traces]) if traces else np.zeros((0, 0)),
            tuple(t.executed_costs for t in traces),
            tuple(t.total_cost for t in traces),
        )

    @property
    def confidence(self) -> np.ndarray:
        """Each row's largest probability."""
        return self.probs.max(axis=1) if len(self) else np.zeros(0)

    @property
    def predicted_label(self) -> np.ndarray:
        return self.probs.argmax(axis=1) if len(self) else np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):  # a table of views of this one's arrays
            return TraceTable(*(getattr(self, field)[index] for field in self.__dataclass_fields__))
        i = range(len(self))[index]
        exit_stages, confidences = self._row_scalars
        return _trace_row(
            self.ids[i],
            exit_stages[i],
            self.probs[i],
            confidences[i],
            self.executed_costs[i],
            self.total_cost[i],
        )

    def __iter__(self) -> Iterator[ExitTrace]:
        exit_stages, confidences = self._row_scalars
        columns = (self.ids, exit_stages, self.probs, confidences)
        return itertools.starmap(_trace_row, zip(*columns, self.executed_costs, self.total_cost))

    @functools.cached_property
    def _row_scalars(self) -> tuple[list[int], list[float]]:
        return self.exit_stage.tolist(), self.confidence.tolist()


def _trace_row(instance_id, exit_stage, probs, conf, executed_costs, total_cost) -> ExitTrace:
    """A table row as an :class:`ExitTrace`, made without running the
    ``__post_init__`` checks: the table ran the same ones on construction."""
    distribution = unchecked(ClassDistribution, probs=probs)
    return unchecked(
        ExitTrace,
        instance_id=instance_id,
        exit_stage=exit_stage,
        distribution=distribution,
        confidence=conf,
        executed_costs=executed_costs,
        total_cost=total_cost,
    )


def _first_difference(a: list, b: list) -> int | None:
    if a == b:
        return None
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


def _checked_rows(where, probs, confidences, ids, exit_stage, executed_costs, total_cost):
    """The columns as a :class:`TraceTable` holds them, by field name, read by the value rule (``exit_stage``
    and ``probs`` as :func:`errors.frozen` arrays), if every row obeys the trace rules, else
    ``ValidationError(where(row) + reason)`` for the first row that does
    not.  A row's checks run in this order: its distribution (by
    :func:`probability_rows`), the value rule, then, given
    ``confidences``, that each is its row's largest probability, then the
    costs.
    """
    probs, faults = probability_rows(probs, _NOT_TABLE)
    names = ("instance_id", "exit_stage", "total_cost")
    read = list(map(column, (ids, exit_stage, total_cost), (string, integer, integer), names))
    faults += [(refused_at(done, why), why) for done, why in read]
    (ids, _), (stages, _), (totals, _) = read  # each column up to its first refused value
    costs, refusal = column_rows(executed_costs, integer, "executed_costs", "a sequence of integers", 1)
    faults.append((refused_at(costs, refusal), refusal))
    whole = min(len(probs), len(ids), len(stages), len(totals), len(costs))
    if confidences is not None:
        confidences, refusal = column(confidences, real, "confidence")  # a JSON true equals 1.0
        faults.append((refused_at(confidences, refusal), refusal))
        whole = min(whole, len(confidences))
        # initial: rows of no classes fail the sum check, which comes first.
        largest = probs[:whole].max(axis=1, initial=-np.inf)
        bad = np.asarray(confidences[:whole]) != largest
        faults.append((bad, lambda row: _NOT_MAX.format(confidences[row])))
    # A row that ran no stage has no exit stage to match.
    covered = [len(row) - 1 if row else None for row in costs[:whole]]
    faults.append((_first_difference(list(stages[:whole]), covered), _NOT_COVERED))
    faults.append((_first_difference(list(totals[:whole]), list(map(sum, costs[:whole]))), _NOT_SUMMED))
    first_fault(where, faults)
    return dict(
        ids=tuple(ids),
        exit_stage=frozen(stages[:whole], np.int64),
        probs=frozen(probs),
        executed_costs=costs,
        total_cost=tuple(totals),
    )


def _exit_table(cascade: Cascade, ids: Sequence[str], stage_probs) -> TraceTable:
    """The traces of the rows named by ``ids``: the cascade's exit rule.

    Stage k runs once, on the rows that stages 0..k-1 did not answer;
    ``stage_probs(model, rows)`` gives the class probabilities of the rows
    at positions ``rows``.  A row exits where its confidence strictly
    exceeds the stage's threshold, and the last stage answers the rest.
    """
    stages, thresholds = cascade.stages, cascade.thresholds
    last = len(stages) - 1
    probs = np.empty((len(ids), stages[0].model.num_classes))
    exits = np.full(len(ids), last, dtype=np.int64)
    alive = np.arange(len(ids))
    for stage_index, stage in enumerate(stages):
        if not alive.size:
            break
        reached = stage_probs(stage.model, alive)
        if stage_index == last:
            probs[alive] = reached
            break
        done = reached.max(axis=1) > thresholds[stage_index]
        probs[alive[done]] = reached[done]
        exits[alive[done]] = stage_index
        alive = alive[~done]
    return _charged_table(cascade, ids, exits.tolist(), probs)


def _charged_table(cascade: Cascade, ids: Sequence[str], exits, probs: np.ndarray) -> TraceTable:
    """The traces of rows that exited at ``exits`` with ``probs``, each
    charged every stage up to its exit."""
    costs = tuple(stage.layer_cost for stage in cascade.stages)
    executed = [costs[: k + 1] for k in range(len(costs))]
    totals = list(itertools.accumulate(costs))
    return TraceTable(
        ids,
        exits,
        probs,
        tuple(map(executed.__getitem__, exits)),
        tuple(map(totals.__getitem__, exits)),
    )


def run_batched(cascade: Cascade, ids: Sequence[str], X: np.ndarray) -> TraceTable:
    """The traces of the rows of ``X`` (named by ``ids``), bit for bit those
    of :func:`run_cascade` on the same instances.

    Each stage's survivors run through one ``predict_batch`` call, whose
    rows are batch-invariant: a row's bits do not depend on which other
    rows reached its stage.  A stage that every row reaches (stage 0
    always) reads the checked ``X`` as it is; later stages gather only
    their survivors' rows.
    """
    cascade = instance_of(cascade, Cascade, "cascade")
    X, row, refusal = real_matrix(X, "X", NOT_FEATURE_MATRIX)
    first_fault(lambda row: f"row {row}: ", [(row, refusal)])
    try:
        ids = tuple(ids)
    except TypeError:  # a scalar or None
        raise ValidationError(f"ids must be a sequence of strings, got {reprlib.repr(ids)}") from None
    if X.shape[0] != len(ids):
        raise ValidationError(f"need one feature row per id: {len(ids)} ids, X of shape {X.shape}")

    def stage_probs(model, rows):
        # Survivors are a sorted subset of range(N), so N of them are every row, in order.
        return predict_batch(model, X if rows.size == len(X) else X[rows])

    return _exit_table(cascade, ids, stage_probs)


def cascade_predict(cascade: Cascade, instance: Instance) -> ExitTrace:
    """The trace of one instance: row 0 of a one-row :func:`run_batched`."""
    cascade, instance = instance_of(cascade, Cascade, "cascade"), instance_of(instance, Instance, "instance")
    return run_batched(cascade, (instance.id,), instance.features[None])[0]


def run_cascade(cascade: Cascade, dataset: Dataset) -> TraceTable:
    """Traces for every instance, in dataset order.  A stage makes one ``predict``
    call per row it reaches, on an ``Instance`` built from the dataset's columns
    and held only for that call, into a block allocated once at its full size."""
    cascade, dataset = instance_of(cascade, Cascade, "cascade"), instance_of(dataset, Dataset, "dataset")

    def stage_probs(model, rows):
        probs = (predict(model, instance).probs for instance in dataset.instances.at(rows))
        return np.fromiter(probs, dtype=(np.float64, model.num_classes), count=rows.size)

    return _exit_table(cascade, dataset.ids(), stage_probs)


def speedup_ratio(traces: Sequence[ExitTrace], full_model_cost: int) -> float:
    """Reference cost divided by the mean executed cost per instance."""
    costs = TraceTable.from_traces(traces).total_cost
    if not costs:
        raise ValidationError("speedup_ratio needs at least one trace")
    full_model_cost = integer(full_model_cost, "full_model_cost", low=1)
    return _speedup(full_model_cost, sum(costs), len(costs))


def _speedup(full_model_cost: int, total_cost, count: int):
    """``full_model_cost`` over the mean cost ``total_cost / count`` (an int, or float64
    totals); NumericError where it is not a finite float."""
    try:
        speedup = full_model_cost / (total_cost / count)
    except (OverflowError, ZeroDivisionError):  # a cost beyond float range, or no cost at all
        speedup = np.inf
    if not np.isfinite(speedup).all():
        raise NumericError(
            f"speed-up of full_model_cost {reprlib.repr(full_model_cost)} over mean cost "
            f"{reprlib.repr(total_cost)}/{count} is not a finite float"
        )
    return speedup


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
    return calibrator(cascade, calibration)(target_speedup, tolerance)


def calibrator(cascade: Cascade, calibration: Dataset) -> Callable[..., tuple[float, ...]]:
    """:func:`calibrate_threshold` of one cascade and calibration set, as a function of
    ``(target_speedup, tolerance)`` with the same checks, thresholds and messages, which scores
    the candidate thresholds once, at its first call whose arguments pass, for every call."""
    cascade = instance_of(cascade, Cascade, "cascade")
    calibration = instance_of(calibration, Dataset, "calibration")
    if not len(calibration):
        raise ValidationError("calibration dataset is empty")
    costs, n = [s.layer_cost for s in cascade.stages], len(calibration)

    @functools.cache
    def scored() -> tuple[np.ndarray, np.ndarray]:
        """Every candidate threshold, and the speed-up it measures on the calibration set."""
        # The top probabilities of the stages that can exit an instance (all but the last).
        X = calibration.feature_matrix()
        gating = [predict_batch(stage.model, X).max(axis=1) for stage in cascade.stages[:-1]]
        conf = np.array(gating).reshape(len(gating), n)
        candidates = np.unique(np.concatenate([conf.ravel(), [0.0, 1.0]]))
        # Under a shared tau, stage s + 1 runs exactly on the instances whose
        # running max confidence over stages 0..s is <= tau (no strict exit yet),
        # so each candidate's total cost is a count-weighted sum (float64: int64 wraps around).
        total = np.full(candidates.shape, float(n * costs[0]))
        running_max = np.maximum.accumulate(conf, axis=0)
        for cost, stage_max in zip(costs[1:], running_max):
            total += float(cost) * np.searchsorted(np.sort(stage_max), candidates, side="right")
        return candidates, _speedup(cascade.full_model_cost, total, n)

    def calibrate(target_speedup: float, tolerance: float = DEFAULT_CALIBRATION_TOLERANCE) -> tuple[float, ...]:
        if not real(tolerance, "tolerance") > 0:  # written so that NaN fails it
            raise ValidationError("tolerance must be positive")
        if n * sum(costs) > sys.float_info.max:  # no candidate's total cost is larger
            total = reprlib.repr(n * sum(costs))
            raise NumericError(f"total cost {total} of {n} instances is beyond float range")
        max_speedup = _speedup(cascade.full_model_cost, costs[0], 1)
        if not 1.0 <= real(target_speedup, "target_speedup") <= max_speedup:
            raise ValidationError(
                f"target speed-up {target_speedup:g} outside achievable range "
                f"[1, {max_speedup:g}] for this cascade"
            )
        candidates, measured = scored()
        best = int(np.argmin(np.abs(measured - target_speedup)))
        if abs(measured[best] - target_speedup) > tolerance * target_speedup:
            raise ValidationError(
                f"no threshold reaches {target_speedup:g}x within "
                f"relative tolerance {tolerance:g}: closest {measured[best]:g}x, achievable "
                f"range [{measured.min():g}x, {measured.max():g}x] on this calibration set"
            )
        return (float(candidates[best]),) * (len(cascade.stages) - 1)

    return calibrate


# A trace record's fields, in the order _checked_rows takes their columns.
_TRACE_KEYS = ("probs", "confidence", "instance_id", "exit_stage", "executed_costs", "total_cost")
_TRACE_ROW = operator.itemgetter(*_TRACE_KEYS)


def _read_table(records, where) -> TraceTable:
    """The table of ``(line, payload)`` trace records: each record's fields are gathered as the
    records stream, and the trace rules read each column once, so a refused value is named by
    its record's line in their words.  Reading stops at invalid JSON, at a record that is not an
    object holding every field, and at the first record whose probs has another length than the
    first record's (looked for only when the rows are no matrix); a fault in an earlier record
    comes first."""
    lines, rows, refusal = [], [], None

    def malformed(line, reason) -> ValidationError:
        return ValidationError(f"{where(line)}malformed trace record: {reason}")

    def table(*columns) -> TraceTable:
        return unchecked(TraceTable, **_checked_rows(lambda row: where(lines[row]), *columns))

    try:
        for line_no, payload in records:
            lines.append(line_no)
            try:
                rows.append(_TRACE_ROW(payload))
            except (KeyError, TypeError) as exc:  # not an object holding every field
                refusal = malformed(line_no, f"missing required key {exc}" if isinstance(exc, KeyError) else exc)
                break
    except ValidationError as exc:  # invalid JSON
        refusal = exc
    columns = tuple(zip(*rows)) or ((),) * len(_TRACE_KEYS)
    try:
        read = table(*columns)
    except ValidationError as exc:
        if exc.args != (_NOT_TABLE,):  # a faulty record
            raise
        # Gathered columns share one length, so probs rows of two widths make them no table.
        width = len(columns[0][0])
        row, probs = next((k, entries) for k, entries in enumerate(columns[0]) if len(entries) != width)
        refusal = malformed(lines[row], f"probs has {len(probs)} entries, the first record's has {width}")
        read = table(*(column[:row] for column in columns))
    if refusal is not None:
        raise refusal
    return read


def trace_from_dict(payload: dict) -> ExitTrace:
    """One trace record: the one-row case of :func:`load_traces`."""
    return _read_table([(1, payload)], lambda _: "")[0]


def save_traces(traces: Sequence[ExitTrace], path) -> None:
    """One sorted-key JSON object per trace, written column by column: each
    column's JSON text is made once (an ``executed_costs`` row once per
    distinct row, a confidence as its row's largest probability), and the
    lines are written as they are made."""
    table = TraceTable.from_traces(traces)
    probs = (list(map(float_text, row)) for row in table.probs.tolist())
    probs, top = itertools.tee(probs)  # each row's texts are made once, and held no longer
    cost_texts = {row: array_text(map(int_text, row)) for row in set(table.executed_costs)}
    texts = {
        "confidence": map(list.__getitem__, top, table.predicted_label.tolist()),
        "executed_costs": map(cost_texts.__getitem__, table.executed_costs),
        "exit_stage": map(int_text, table.exit_stage.tolist()),
        "instance_id": map(string_text, table.ids),
        "probs": map(array_text, probs),
        "total_cost": map(int_text, table.total_cost),
    }
    write_lines(path, jsonl_lines(texts))


def load_traces(path) -> TraceTable:
    """A traces file as one table, read by :func:`_read_table`; an error
    names the line of the first bad record."""
    return _read_table(iter_jsonl(path), lambda line: f"{path}: line {line}: ")


def cascade_to_dict(cascade: Cascade) -> dict:
    """The JSON description of ``cascade``, which references stage k's model by
    the relative name ``stage<k>_model.json``."""
    stages = [
        {"model_path": STAGE_MODEL_FILENAME.format(i), "layer_cost": stage.layer_cost}
        for i, stage in enumerate(cascade.stages)
    ]
    return {"stages": stages, "thresholds": list(cascade.thresholds), "full_model_cost": cascade.full_model_cost}


def save_cascade(cascade: Cascade, path) -> None:
    """Write one model file per stage, then the cascade description.

    Stage k's model is ``stage<k>_model.json`` next to the description,
    which references it by that relative name so the bundle can be moved
    as a directory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    for i, stage in enumerate(cascade.stages):
        save_model(stage.model, os.path.join(directory, STAGE_MODEL_FILENAME.format(i)))
    write_json(path, cascade_to_dict(cascade))


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
