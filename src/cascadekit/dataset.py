"""Datasets, text featurization, and stratified fold assignment.

Datasets are loaded from JSONL files, one record per line:

    {"id": "r1", "label": 0, "features": [0.1, -2.0, ...]}
    {"id": "r2", "label": 1, "text": "some short text"}

A record may also carry a binary "difficulty" field.  Text records are
featurized with a signed hashing trick (see :func:`hash_featurize`).
"""

from __future__ import annotations

import functools
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer, string
from .jsonio import decoder, numbers, read_jsonl, typed, write_jsonl

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# Distinct tokens whose hashes hash_featurize keeps; bounds the memo's memory.
_TOKEN_MEMO_SIZE = 1 << 16
_DIFFICULTY = int | None  # one hint object: hashing a new one per record is slow


@dataclass(frozen=True)
class Instance:
    """A single example: dense feature vector, gold label, optional difficulty flag."""

    id: str
    features: np.ndarray
    label: int
    difficulty: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", string(self.id, "id"))
        # C order: a strided row can change the bits of a model's product.
        features = np.asarray(self.features, dtype=np.float64, order="C")
        object.__setattr__(self, "features", features)
        if features.ndim != 1:
            raise ValidationError(f"instance {self.id!r}: features must be a flat vector")
        # count_nonzero: on short vectors, .all() costs twice as much per instance.
        if np.count_nonzero(np.isfinite(features)) != features.size:
            raise ValidationError(f"instance {self.id!r}: features must be finite")
        try:  # the id goes into the message only on failure
            object.__setattr__(self, "label", integer(self.label, "label", low=0))
            if self.difficulty is not None:
                object.__setattr__(self, "difficulty", integer(self.difficulty, "difficulty", 0, 1))
        except ValidationError as exc:
            raise ValidationError(f"instance {self.id!r}: {exc}") from None


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of instances with consistent shape."""

    instances: tuple[Instance, ...]
    num_classes: int
    feature_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", tuple(self.instances))
        for name in ("num_classes", "feature_dim"):
            object.__setattr__(self, name, integer(getattr(self, name), name, low=1))
        seen: set[str] = set()
        for inst in self.instances:
            if inst.id in seen:
                raise ValidationError(f"duplicate instance id {inst.id!r}")
            seen.add(inst.id)
            if inst.features.shape[0] != self.feature_dim:
                raise ValidationError(
                    f"instance {inst.id!r}: expected {self.feature_dim} features, "
                    f"got {inst.features.shape[0]}"
                )
            if inst.label >= self.num_classes:
                raise ValidationError(
                    f"instance {inst.id!r}: label {inst.label} out of range for "
                    f"{self.num_classes} classes"
                )

    def __len__(self) -> int:
        return len(self.instances)

    def ids(self) -> list[str]:
        return [inst.id for inst in self.instances]

    def feature_matrix(self) -> np.ndarray:
        if not self.instances:
            return np.zeros((0, self.feature_dim))
        return np.stack([inst.features for inst in self.instances])

    def label_array(self) -> np.ndarray:
        return np.array([inst.label for inst in self.instances], dtype=np.int64)

    def difficulty_array(self) -> np.ndarray:
        """Difficulty flags for all instances; error if any instance lacks one."""
        missing = [inst.id for inst in self.instances if inst.difficulty is None]
        if missing:
            raise ValidationError(
                f"{len(missing)} instances lack difficulty labels (first: {missing[0]!r})"
            )
        return np.array([inst.difficulty for inst in self.instances], dtype=np.int64)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """New dataset keeping the given positions, in the given order."""
        return Dataset(
            instances=tuple(self.instances[i] for i in indices),
            num_classes=self.num_classes,
            feature_dim=self.feature_dim,
        )

    def with_difficulty(self, labels: Mapping[str, int]) -> "Dataset":
        """Copy of this dataset with difficulty flags merged in from a full id map."""
        missing = [inst.id for inst in self.instances if inst.id not in labels]
        if missing:
            raise ValidationError(f"difficulty map misses id {missing[0]!r}")
        merged = tuple(
            Instance(inst.id, inst.features, inst.label, labels[inst.id])
            for inst in self.instances
        )
        return Dataset(merged, self.num_classes, self.feature_dim)


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of a dataset into folds, stratified by label."""

    num_folds: int
    fold_of: dict[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_folds", integer(self.num_folds, "num_folds"))


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
    tokens = text.lower().split()
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
    rng = random.Random(seed)
    by_label: dict[int, list[str]] = {}
    for inst in dataset.instances:
        by_label.setdefault(inst.label, []).append(inst.id)
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
    """
    if format not in ("jsonl_features", "jsonl_text"):
        raise ValidationError(f"unknown dataset format {format!r}")
    if format == "jsonl_text" and feature_dim is None:
        raise ValidationError("jsonl_text requires an explicit feature_dim")

    @decoder("dataset record")
    def decode(record) -> Instance:
        if not isinstance(record, dict):
            raise ValidationError("record must be a JSON object")
        if format == "jsonl_text":
            features = hash_featurize(typed(record["text"], str, "text"), feature_dim)
        else:
            features = numbers(record["features"], "features")
            if not features.size:
                raise ValidationError("'features' is empty")
        inst_id, label = typed(record["id"], str, "id"), typed(record["label"], int, "label")
        difficulty = typed(record.get("difficulty"), _DIFFICULTY, "difficulty")
        # Instance checks the label sign, finite features and the difficulty flag.
        return Instance(inst_id, features, label, difficulty)

    instances = read_jsonl(path, decode)
    if not instances:
        raise ValidationError(f"{path}: empty dataset")
    if num_classes is None:
        num_classes = max(inst.label for inst in instances) + 1
    if feature_dim is None:
        feature_dim = instances[0].features.shape[0]
    try:  # Dataset checks ids, dims and labels across records
        return Dataset(tuple(instances), num_classes=num_classes, feature_dim=feature_dim)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _record(inst: Instance) -> dict:
    record = {
        "id": inst.id,
        "label": int(inst.label),
        "features": [float(x) for x in inst.features],
    }
    if inst.difficulty is not None:
        record["difficulty"] = int(inst.difficulty)
    return record


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as jsonl_features; round-trips feature values exactly."""
    write_jsonl(path, map(_record, dataset.instances))
