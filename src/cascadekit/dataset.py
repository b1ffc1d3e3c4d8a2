"""Datasets, text featurization, and stratified fold assignment.

Datasets are loaded from JSONL files, one record per line:

    {"id": "r1", "label": 0, "features": [0.1, -2.0, ...]}
    {"id": "r2", "label": 1, "text": "some short text"}

A record may also carry a binary "difficulty" field.  Text records are
featurized with a signed hashing trick (see :func:`hash_featurize`).  A
:class:`Dataset` holds its instances as columns (:class:`InstanceColumns`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import reprlib
from array import array
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, column, first_fault, frozen, int64_column, integer, real_matrix
from .errors import refused_at, string, string_keys, unchecked
from .jsonio import decoder, iter_jsonl, number_list, typed, write_jsonl

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# Distinct tokens whose hashes hash_featurize keeps; bounds the memo's memory.
_TOKEN_MEMO_SIZE = 1 << 16
_DIFFICULTY = int | None  # one hint object: hashing a new one per record is slow
NO_DIFFICULTY = -1  # the difficulty column's entry for an instance without a flag


@dataclass(frozen=True)
class Instance:
    """A single example: dense feature vector, gold label, optional difficulty
    flag; one row of :class:`InstanceColumns`, checked by their rules."""

    id: str
    features: np.ndarray
    label: int
    difficulty: int | None = None

    def __post_init__(self) -> None:
        one_row = isinstance(self.features, np.ndarray) and self.features.ndim == 1
        features = self.features[None] if one_row else [self.features]  # a row that is not flat is refused
        flag, missing = (NO_DIFFICULTY,) * 2 if self.difficulty is None else (self.difficulty, None)
        row = InstanceColumns((self.id,), features, [self.label], [flag])
        self.__dict__.update(vars(_check_rows(lambda _: "", row, missing)[0]))


@dataclass(frozen=True, eq=False, repr=False)
class InstanceColumns(Sequence):
    """Instances as columns: ``ids``, an (N, d) ``features`` matrix,
    ``labels`` and ``difficulty`` flags (``NO_DIFFICULTY`` where an
    instance has none).  They are kept as given; a :class:`Dataset` holds
    them read by the rules of :class:`Instance`, as a tuple of strings, a
    float64 matrix and int64 columns, all read-only.  Two are equal when
    their columns are.

    Indexing or iterating builds each row's :class:`Instance` on demand,
    its ``features`` a read-only view of the matrix, and keeps none; a
    slice is a tuple of rows.  Rows are not checked again: the
    :class:`Dataset` that holds the columns checked them once per column.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray
    difficulty: np.ndarray

    def __eq__(self, other) -> bool:
        if type(other) is not InstanceColumns:
            return NotImplemented
        arrays = [(columns.features, columns.labels, columns.difficulty) for columns in (self, other)]
        return tuple(self.ids) == tuple(other.ids) and all(map(np.array_equal, *arrays))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]
        return _row(self.ids[i], self.features[i], int(self.labels[i]), int(self.difficulty[i]))

    def __iter__(self) -> Iterator[Instance]:
        return map(_row, self.ids, self.features, self.labels.tolist(), self.difficulty.tolist())

    def at(self, positions: np.ndarray) -> Iterator[Instance]:
        """The rows at ``positions`` (an array of ascending, distinct indices in range), built
        on demand as iteration builds them: each ``features`` a view of the matrix, which is
        not gathered."""
        rows = positions.tolist()
        features = map(self.features.__getitem__, rows)
        labels, flags = self.labels[positions].tolist(), self.difficulty[positions].tolist()
        return map(_row, map(self.ids.__getitem__, rows), features, labels, flags)

    def __repr__(self) -> str:
        return f"<{len(self)} instances as columns>"


def _row(inst_id: str, features: np.ndarray, label: int, flag: int) -> Instance:
    """A row of :class:`InstanceColumns` as an :class:`Instance`, made
    without running the ``__post_init__`` checks."""
    difficulty = None if flag == NO_DIFFICULTY else flag
    return unchecked(Instance, id=inst_id, features=features, label=label, difficulty=difficulty)


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of instances with consistent shape.

    Whatever sequence of instances it is built from, it holds them as
    :class:`InstanceColumns`, checked once per column by the rules of
    :class:`Instance` and across rows; an error names the first faulty
    instance.
    """

    instances: Sequence[Instance]
    num_classes: int
    feature_dim: int

    def __post_init__(self) -> None:
        columns, wrong_width = self.instances, None
        if not isinstance(columns, InstanceColumns):
            columns, wrong_width = _columns_of(tuple(columns))
        columns = _check_rows(lambda _: "", columns)
        self.__dict__.update(_check_shared(columns, self.num_classes, self.feature_dim, wrong_width))

    def __len__(self) -> int:
        return len(self.instances)

    def ids(self) -> list[str]:
        return list(self.instances.ids)

    def feature_matrix(self) -> np.ndarray:
        """The (N, feature_dim) features, read-only."""
        return self.instances.features

    def label_array(self) -> np.ndarray:
        """The int64 labels, read-only."""
        return self.instances.labels

    def difficulty_array(self) -> np.ndarray:
        """Difficulty flags for all instances (int64, read-only); error if any instance lacks one."""
        flags = self.instances.difficulty
        missing = np.flatnonzero(flags == NO_DIFFICULTY)
        if missing.size:
            raise ValidationError(
                f"{missing.size} instances lack difficulty labels "
                f"(first: {self.instances.ids[missing[0]]!r})"
            )
        return flags

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """New dataset keeping the given positions (negative ones count from the end), in order."""
        try:
            positions = list(indices.tolist() if isinstance(indices, np.ndarray) else indices)
        except TypeError:  # a scalar, a 0-d array or None
            got = reprlib.repr(indices)
            raise ValidationError(f"indices must be a sequence of integers, got {got}") from None
        rows, refusal = column(positions, integer, "indices", -len(self), len(self) - 1)
        if refusal is not None:
            raise ValidationError(refusal)
        columns = self.instances
        ids = tuple(map(columns.ids.__getitem__, rows))
        picked = (columns.features[rows], columns.labels[rows], columns.difficulty[rows])
        return Dataset(InstanceColumns(ids, *picked), self.num_classes, self.feature_dim)

    def with_difficulty(self, labels: Mapping[str, int]) -> "Dataset":
        """Copy of this dataset with difficulty flags merged in from a full id map."""
        columns = self.instances
        flags = flags_by_id(columns.ids, labels, "difficulty map misses id", lambda i: f"instance {i!r}: ")
        merged = InstanceColumns(columns.ids, columns.features, columns.labels, flags)
        return Dataset(merged, self.num_classes, self.feature_dim)


def flags_by_id(ids: Sequence[str], labels: Mapping[str, int], lacks: str, named) -> np.ndarray:
    """The flags ``labels`` maps ``ids`` to, one int64 column read by the integer rule in [0, 1] (a -1
    refused, None as ``NO_DIFFICULTY``); the first row it lacks (``lacks``) or refuses (``named``) raises."""
    if not isinstance(labels, Mapping):
        raise ValidationError(f"a difficulty map must map ids to flags, got {type(labels).__name__}")
    lacked = next((row for row, inst_id in enumerate(ids) if inst_id not in labels), None)
    given = [labels[inst_id] for inst_id in ids[:lacked]]
    read, refusal = column([0 if flag is None else flag for flag in given], integer, "difficulty", 0, 1)
    first_fault(lambda _: "", [
        (lacked, lambda row: f"{lacks} {ids[row]!r}"),
        (refused_at(read, refusal), lambda row: named(ids[row]) + refusal),
    ])
    flags = np.array(read, np.int64)
    flags[[row for row, flag in enumerate(given) if flag is None]] = NO_DIFFICULTY  # read as a 0 above
    return flags


def _columns_of(instances: tuple[Instance, ...]) -> tuple[InstanceColumns, tuple[int, int] | None]:
    """``instances`` as columns, every row as wide as the first (a row of
    another width is left zero), and the first row of another width with
    that width, or None."""
    widths = [inst.features.shape[0] for inst in instances]
    width = widths[0] if widths else 0
    wrong_width = next(((row, w) for row, w in enumerate(widths) if w != width), None)
    features = [inst.features if w == width else np.zeros(width) for inst, w in zip(instances, widths)]
    flags = [NO_DIFFICULTY if inst.difficulty is None else inst.difficulty for inst in instances]
    matrix = np.stack(features) if features else np.zeros((0, 0))
    ids, labels = [inst.id for inst in instances], [inst.label for inst in instances]
    return InstanceColumns(ids, matrix, labels, flags), wrong_width


def _check_rows(where, columns: InstanceColumns, missing: int | None = NO_DIFFICULTY) -> InstanceColumns:
    """``columns`` read by the value rule (ids as a tuple, features as a
    float64 matrix, labels and flags as read), if they are of one length
    and every row obeys the rules of an :class:`Instance` alone: a string
    id, real and finite features, a label >= 0 within int64 and a flag in
    {0, 1}, or ``missing`` for none; else ``ValidationError(where(row) +
    reason)`` for the first row that does not, with the first of these
    rules it breaks."""
    ids, features, labels, flags = tuple(columns.ids), columns.features, columns.labels, columns.difficulty
    shape = "instance columns must be of one length, the features a matrix"
    matrix, feature_row, feature_refusal = real_matrix(features, "features", shape)
    if len({len(ids), len(features), len(labels), len(flags)}) != 1:
        raise ValidationError(shape)
    matrix = frozen(matrix)
    ids, id_refusal = column(ids, string, "id")
    labels, label_refusal = int64_column(labels, "label", 0)
    flags, flag_refusal = column(flags, integer, "difficulty", 0, 1, missing=missing)
    def named(reason):
        return lambda row: f"instance {ids[row]!r}: {reason}"
    faults = [
        (refused_at(ids, id_refusal), id_refusal),
        (feature_row, named(feature_refusal)),
        (~np.isfinite(matrix).all(axis=1), named("features must be finite")),
        (refused_at(labels, label_refusal), named(label_refusal)),
        (refused_at(flags, flag_refusal), named(flag_refusal)),
    ]
    first_fault(where, faults)
    return InstanceColumns(tuple(ids), matrix, labels, flags)


def _check_shared(
    columns: InstanceColumns, num_classes, feature_dim, wrong_width: tuple[int, int] | None = None
) -> dict:
    """``columns`` and the two sizes read by the integer rule, as the fields of a :class:`Dataset`, if the rows
    agree with each other and with the sizes: unique ids, ``feature_dim``
    features each (``wrong_width`` names a row of another width that the
    matrix does not show) and labels below ``num_classes``; else
    ``ValidationError`` for the first row that does not, checked in that
    order."""
    num_classes = integer(num_classes, "num_classes", low=1)
    feature_dim = integer(feature_dim, "feature_dim", low=1)
    ids, labels, flags = columns.ids, frozen(columns.labels, np.int64), frozen(columns.difficulty, np.int64)
    duplicate = None
    # Checked ids are strings, so they sort, and a repeat sits next to its twin: a list of
    # references, where a set of the ids would hold a hash table several times its size.
    ordered = sorted(ids)
    if any(map(operator.eq, ordered, itertools.islice(ordered, 1, None))):
        first: dict[str, int] = {}
        duplicate = next(row for row, inst_id in enumerate(ids) if first.setdefault(inst_id, row) != row)
    width = columns.features.shape[1]
    wrong_width = (0, width) if ids and width != feature_dim else wrong_width
    wrong_row, got = wrong_width or (None, None)
    first_fault(lambda _: "", [
        (duplicate, lambda row: f"duplicate instance id {ids[row]!r}"),
        (wrong_row, lambda row: f"instance {ids[row]!r}: expected {feature_dim} features, got {got}"),
        (labels >= num_classes, lambda row: f"instance {ids[row]!r}: label {labels[row]} out of range "
         f"for {num_classes} classes"),
    ])
    features = columns.features if ids else frozen(np.zeros((0, feature_dim)))  # no row sets the width
    columns = InstanceColumns(ids, features, labels, flags)
    return dict(instances=columns, num_classes=num_classes, feature_dim=feature_dim)


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of a dataset into folds, stratified by label."""

    num_folds: int
    fold_of: dict[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_folds", integer(self.num_folds, "num_folds"))
        object.__setattr__(self, "fold_of", string_keys(self.fold_of, "fold_of key"))


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash (offset 0xcbf29ce484222325, prime 0x100000001b3)."""
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


@functools.lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def _token_hash(token: str) -> int:
    return fnv1a64(token.encode("utf-8"))


def hash_featurize(text: str, dim: int) -> np.ndarray:
    """Signed hashing-trick featurizer.

    Lowercases, splits on whitespace, and for each token adds +1 or -1
    (sign from bit 63 of the token's FNV-1a 64 hash; +1 when clear) to
    bucket ``hash % dim``.  Non-empty results are L2-normalized; empty
    text yields the zero vector.  Token hashes are memoized per process,
    for at most 65,536 distinct tokens.
    """
    dim = integer(dim, "dim", low=1)
    tokens = string(text, "text").lower().split()
    if not tokens:
        return np.zeros(dim)  # np.bincount over no tokens would return int64
    h = np.fromiter(map(_token_hash, tokens), np.uint64, len(tokens))
    # Bucket counts are sums of +-1, which float64 holds exactly, so the
    # result equals token-by-token accumulation.
    vec = np.bincount(h % dim, weights=1.0 - 2.0 * (h >> 63), minlength=dim)
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def assign_folds(dataset: Dataset, num_folds: int, seed: int) -> FoldAssignment:
    """Deterministic stratified fold assignment.

    Instances of each class are shuffled under the seed and dealt
    round-robin onto folds, with the fold counter carried across classes
    so every fold is non-empty whenever ``len(dataset) >= num_folds``.
    Per fold and class the count differs from the exact proportional
    share by less than 1.
    """
    num_folds = integer(num_folds, "num_folds", low=2)
    if num_folds > len(dataset):
        raise ValidationError(
            f"num_folds={num_folds} exceeds dataset size {len(dataset)}"
        )
    rng = random.Random(integer(seed, "seed", low=0))
    by_label: dict[int, list[str]] = {}
    for inst_id, label in zip(dataset.ids(), dataset.label_array().tolist()):
        by_label.setdefault(label, []).append(inst_id)
    fold_of: dict[str, int] = {}
    next_fold = 0
    for label in sorted(by_label):
        ids = by_label[label]
        rng.shuffle(ids)
        for inst_id in ids:
            fold_of[inst_id] = next_fold
            next_fold = (next_fold + 1) % num_folds
    return FoldAssignment(num_folds=num_folds, fold_of=fold_of)


def load_dataset(
    path,
    format: str = "jsonl_features",
    *,
    feature_dim: int | None = None,
    num_classes: int | None = None,
) -> Dataset:
    """Load and validate a JSONL dataset.

    ``format="jsonl_features"`` expects a numeric "features" array per
    record; ``"jsonl_text"`` expects a "text" field and requires
    ``feature_dim`` for the hashing featurizer.  ``num_classes`` is
    inferred as ``max(label) + 1`` unless given explicitly, in which case
    labels are validated against it.

    Records are appended to the columns field by field; the rules of
    :class:`Dataset` then run once per column.  A record's "label",
    "difficulty" and "features" are read by their JSON types as they are
    appended (an ``array("q")`` would take true as 1), its "text" by
    :func:`hash_featurize`, and its "id" only by the id column's rule, as
    for a dataset built in Python.  An error names the first faulty
    record as reading record by record would: a fault of a record alone
    by its line, one across records (a repeated id, a width unlike the
    first record's, a label out of range) by the instance.
    """
    if format not in ("jsonl_features", "jsonl_text"):
        raise ValidationError(f"unknown dataset format {format!r}")
    if format == "jsonl_text" and feature_dim is None:
        raise ValidationError("jsonl_text requires an explicit feature_dim")
    ids: list[str] = []
    lines, labels, flags, flagged, features = array("q"), array("q"), array("q"), array("b"), array("d")
    width = wrong_width = None

    @decoder("dataset record")
    def append(record) -> None:
        """Append a record's fields to the columns; its id goes last, so
        the records with an id are whole."""
        nonlocal width, wrong_width
        if not isinstance(record, dict):
            raise ValidationError("record must be a JSON object")
        if format == "jsonl_text":
            row = hash_featurize(record["text"], feature_dim)
        else:
            row = number_list(record["features"], "features")
            if not row:
                raise ValidationError("'features' is empty")
        inst_id, label = record["id"], typed(record["label"], int, "label")  # the id column rule reads the id
        difficulty = typed(record.get("difficulty"), _DIFFICULTY, "difficulty")
        if width is None:
            width = len(row)
        if len(row) != width:  # a fault across records; its own faults still count first
            wrong_width = wrong_width or (len(ids), len(row))
            row = [0.0 if all(map(math.isfinite, row)) else math.nan] * width
        labels.append(label)  # OverflowError beyond int64
        flags.append(0 if difficulty is None else difficulty)
        flagged.append(difficulty is not None)
        if format == "jsonl_text":
            features.frombytes(row.tobytes())
        else:
            features.extend(row)
        ids.append(inst_id)

    def checked_rows() -> InstanceColumns:
        def view(buffer, dtype, count) -> np.ndarray:  # read-only, so the dataset holds it uncopied
            return np.frombuffer(memoryview(buffer).toreadonly(), dtype, count)
        n = len(ids)
        matrix = view(features, np.float64, n * (width or 0)).reshape(n, width or 0)
        read = InstanceColumns(ids, matrix, view(labels, np.int64, n), view(flags, np.int64, n))
        read = _check_rows(lambda row: f"{path}: line {lines[row]}: ", read, missing=None)
        no_flag = np.frombuffer(flagged, np.int8, n) == 0
        np.frombuffer(flags, np.int64, n)[no_flag] = NO_DIFFICULTY  # after the checks, in the viewed buffer
        return InstanceColumns(read.ids, read.features, read.labels, view(flags, np.int64, n))

    try:
        for line_no, record in iter_jsonl(path):
            lines.append(line_no)
            try:
                append(record)
            except ValidationError as exc:
                raise ValidationError(f"{path}: line {line_no}: {exc}") from None
    except ValidationError:
        checked_rows()  # a fault in an earlier record comes first
        raise
    if not ids:
        raise ValidationError(f"{path}: empty dataset")
    columns = checked_rows()
    if num_classes is None:
        num_classes = int(columns.labels.max()) + 1
    if feature_dim is None:
        feature_dim = width
    try:
        checked = _check_shared(columns, num_classes, feature_dim, wrong_width)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return unchecked(Dataset, **checked)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as jsonl_features, record by record from its
    columns; round-trips feature values exactly."""
    columns = dataset.instances

    def records():
        rows = zip(columns.ids, columns.labels.tolist(), columns.features, columns.difficulty.tolist())
        for inst_id, label, features, flag in rows:
            record = {"id": inst_id, "label": label, "features": features.tolist()}
            if flag != NO_DIFFICULTY:
                record["difficulty"] = flag
            yield record

    write_jsonl(path, records())
