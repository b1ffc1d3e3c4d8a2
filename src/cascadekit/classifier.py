"""Softmax classifiers trained by mini-batch gradient descent.

Two architectures: a linear softmax model and a one-hidden-layer tanh
network.  The cross-entropy objective can be augmented with a pairwise
confidence-margin regularizer that pushes the confidence of difficult
instances below that of easy ones (see :func:`dar_pair_loss`).

Everything is deterministic given the config seed: initialization, epoch
shuffling, and regularizer pair sampling all derive from it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, Instance
from .errors import NumericError, ValidationError
from .jsonio import decoder, read_json, write_json

DEFAULT_LEARNING_RATES = {"linear": 0.05, "mlp": 0.01}

INIT_SCALE = 0.05
GRAD_CHECK_STEP = 1e-5
KINK_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Architecture:
    """Model family: "linear", or "mlp" with one tanh hidden layer."""

    kind: str
    hidden_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp"):
            raise ValidationError(f"unknown architecture kind {self.kind!r}")
        if self.kind == "mlp" and (self.hidden_size is None or self.hidden_size < 1):
            raise ValidationError("mlp architecture requires hidden_size >= 1")
        if self.kind == "linear" and self.hidden_size is not None:
            raise ValidationError("linear architecture takes no hidden_size")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    ``learning_rate=None`` resolves to a per-architecture default
    (0.05 linear, 0.01 mlp).  ``dar_weight`` scales the confidence-margin
    regularizer; ``margin`` is its required confidence gap; ``pair_cap``
    bounds the number of (difficult, easy) pairs sampled per batch.
    """

    epochs: int = 10
    learning_rate: float | None = None
    batch_size: int = 32
    dar_weight: float = 0.0
    margin: float = 0.3
    seed: int = 0
    pair_cap: int = 256

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.dar_weight < 0:
            raise ValidationError("dar_weight must be >= 0")
        if not 0.0 < self.margin < 1.0:
            raise ValidationError("margin must lie in (0, 1)")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.pair_cap < 1:
            raise ValidationError("pair_cap must be >= 1")


@dataclass(frozen=True)
class ClassDistribution:
    """Normalized class-probability vector."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1:
            raise ValidationError("probs must be a flat vector")
        # Both checks are written so that NaN fails them.
        if not np.all((probs >= 0) & (probs <= 1)):
            raise ValidationError("probabilities must lie in [0, 1]")
        if not abs(float(probs.sum()) - 1.0) <= 1e-9:
            raise ValidationError("probabilities must sum to 1")

    @property
    def predicted_label(self) -> int:
        return int(np.argmax(self.probs))


@dataclass
class ClassifierModel:
    """A trained classifier: architecture, dims, and parameter arrays."""

    architecture: Architecture
    feature_dim: int
    num_classes: int
    weights: dict[str, np.ndarray]
    train_config: TrainConfig

    def __post_init__(self) -> None:
        expected = _weight_shapes(self.architecture, self.feature_dim, self.num_classes)
        if set(self.weights) != set(expected):
            raise ValidationError(
                f"weights carry {sorted(self.weights)}, expected {sorted(expected)}"
            )
        for name, shape in expected.items():
            if self.weights[name].shape != shape:
                raise ValidationError(
                    f"weight {name!r} has shape {self.weights[name].shape}, expected {shape}"
                )


def _weight_shapes(arch: Architecture, feature_dim: int, num_classes: int) -> dict[str, tuple]:
    if arch.kind == "linear":
        return {"w": (feature_dim, num_classes), "b": (num_classes,)}
    hidden = arch.hidden_size
    return {
        "w1": (feature_dim, hidden),
        "b1": (hidden,),
        "w2": (hidden, num_classes),
        "b2": (num_classes,),
    }


def _init_weights(
    arch: Architecture, feature_dim: int, num_classes: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    # Weight matrices uniform(-INIT_SCALE, INIT_SCALE), biases zero.
    shapes = _weight_shapes(arch, feature_dim, num_classes)
    weights = {}
    for name, shape in shapes.items():
        if name.startswith("b"):
            weights[name] = np.zeros(shape)
        else:
            weights[name] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
    return weights


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _forward(model: ClassifierModel, X: np.ndarray):
    """Returns (logits, hidden activations or None)."""
    w = model.weights
    if model.architecture.kind == "linear":
        return X @ w["w"] + w["b"], None
    hidden = np.tanh(X @ w["w1"] + w["b1"])
    return hidden @ w["w2"] + w["b2"], hidden


def predict_batch(model: ClassifierModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per instance; NumericError if any is non-finite."""
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValidationError(
            f"feature matrix has {X.shape[-1] if X.ndim else 0} columns, "
            f"model expects {model.feature_dim}"
        )
    logits, _ = _forward(model, X)
    probs = softmax(logits)
    if not np.isfinite(probs).all():
        raise NumericError("model produced non-finite class probabilities")
    return probs


def predict(model: ClassifierModel, instance: Instance) -> ClassDistribution:
    """Class distribution for one instance (softmax over the model logits)."""
    if instance.features.shape[0] != model.feature_dim:
        raise ValidationError(
            f"instance {instance.id!r} has {instance.features.shape[0]} features, "
            f"model expects {model.feature_dim}"
        )
    probs = predict_batch(model, instance.features[None, :])[0]
    return ClassDistribution(probs)


def confidence(dist: ClassDistribution) -> float:
    """Maximum class probability of a distribution."""
    return float(np.max(dist.probs))


def dar_pair_loss(conf_difficult: float, conf_easy: float, margin: float) -> float:
    """Hinge penalty on a (difficult, easy) confidence pair.

    Zero exactly when the easy instance out-confidences the difficult one
    by at least ``margin``: max(0, margin - (conf_easy - conf_difficult)).
    """
    if not 0.0 < margin < 1.0:
        raise ValidationError("margin must lie in (0, 1)")
    return max(0.0, margin - (conf_easy - conf_difficult))


Pairs = tuple[np.ndarray, np.ndarray]


def _resolve_pairs(
    difficulty: np.ndarray | None, config: TrainConfig, rng: np.random.Generator | None
) -> Pairs | None:
    """Row indices ``(d, e)`` of every (difficult, easy) pair, difficult-major,
    cut to a sorted sample of ``pair_cap`` pairs (drawn from ``rng``, else from
    the config seed) when there are more; None without difficulty labels."""
    if difficulty is None:
        return None
    difficult = np.flatnonzero(difficulty == 1)
    easy = np.flatnonzero(difficulty == 0)
    d = np.repeat(difficult, easy.size)
    e = np.tile(easy, difficult.size)
    if d.size > config.pair_cap:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        keep = np.sort(rng.choice(d.size, size=config.pair_cap, replace=False))
        d, e = d[keep], e[keep]
    return d, e


def _objective(
    logits: np.ndarray, y: np.ndarray, config: TrainConfig, pairs: Pairs | None
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Training loss (mean cross-entropy plus ``dar_weight`` times the mean
    :func:`dar_pair_loss` over ``pairs``), the softmax rows, and d loss / d
    confidence per row (None when the regularizer is off or has no pairs)."""
    n = len(y)
    probs = softmax(logits)
    ce = -float(log_softmax(logits)[np.arange(n), y].mean())
    if config.dar_weight == 0 or pairs is None or pairs[0].size == 0:
        return ce, probs, None
    d, e = pairs
    conf = probs.max(axis=1)
    slack = config.margin - (conf[e] - conf[d])
    active = slack > 0
    # Summed in pair order, not np.sum's pairwise order, so that epoch losses
    # (and the training log) do not change in their last bits.
    dar = float(np.cumsum(np.where(active, slack, 0.0))[-1]) / d.size
    counts = np.bincount(d[active], minlength=n) - np.bincount(e[active], minlength=n)
    dconf = counts * (config.dar_weight / d.size)
    return ce + config.dar_weight * dar, probs, dconf


def _batch_loss(
    model: ClassifierModel, X: np.ndarray, y: np.ndarray, config: TrainConfig, pairs: Pairs | None
) -> float:
    logits, _ = _forward(model, X)
    return _objective(logits, y, config, pairs)[0]


def _batch_loss_and_grads(
    model: ClassifierModel, X: np.ndarray, y: np.ndarray, config: TrainConfig, pairs: Pairs | None
) -> tuple[float, dict[str, np.ndarray]]:
    n = len(y)
    logits, hidden = _forward(model, X)
    loss, probs, dconf = _objective(logits, y, config, pairs)

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    if dconf is not None:
        # Confidence is the argmax softmax entry; gradients flow through
        # that entry's softmax row (first index wins on ties).
        rows = np.flatnonzero(dconf)
        top = np.argmax(probs[rows], axis=1)
        conf = probs[rows, top]
        jac = -probs[rows] * conf[:, None]
        jac[np.arange(rows.size), top] += conf
        dlogits[rows] += dconf[rows, None] * jac

    w = model.weights
    if model.architecture.kind == "linear":
        grads = {"w": X.T @ dlogits, "b": dlogits.sum(axis=0)}
    else:
        dhidden = dlogits @ w["w2"].T
        dpre = dhidden * (1.0 - hidden * hidden)
        grads = {
            "w1": X.T @ dpre,
            "b1": dpre.sum(axis=0),
            "w2": hidden.T @ dlogits,
            "b2": dlogits.sum(axis=0),
        }
    return loss, grads


def _batch_arrays(batch: Sequence[Instance], config: TrainConfig):
    if not batch:
        raise ValidationError("batch must be non-empty")
    X = np.stack([inst.features for inst in batch])
    y = np.array([inst.label for inst in batch], dtype=np.int64)
    difficulty = None
    if config.dar_weight > 0:
        missing = [inst.id for inst in batch if inst.difficulty is None]
        if missing:
            raise ValidationError(
                f"dar_weight > 0 requires difficulty labels; missing for {missing[0]!r}"
            )
        difficulty = np.array([inst.difficulty for inst in batch], dtype=np.int64)
    return X, y, difficulty


def total_loss(model: ClassifierModel, batch: Sequence[Instance], config: TrainConfig) -> float:
    """Mean cross-entropy plus ``dar_weight`` times the mean pair penalty.

    Pairs are all (difficult, easy) combinations in the batch, capped at
    ``pair_cap`` by sampling seeded from the config.  With ``dar_weight=0``
    this is exactly the mean cross-entropy.
    """
    X, y, difficulty = _batch_arrays(batch, config)
    return _batch_loss(model, X, y, config, _resolve_pairs(difficulty, config, rng=None))


def train_with_log(
    dataset: Dataset, architecture: Architecture, config: TrainConfig
) -> tuple[ClassifierModel, list[float]]:
    """Train and also return the per-epoch mean loss."""
    if not dataset.instances:
        raise ValidationError("cannot train on an empty dataset")
    lr = config.learning_rate
    if lr is None:
        lr = DEFAULT_LEARNING_RATES[architecture.kind]
    X = dataset.feature_matrix()
    y = dataset.label_array()
    difficulty = dataset.difficulty_array() if config.dar_weight > 0 else None

    rng = np.random.default_rng(config.seed)
    weights = _init_weights(architecture, dataset.feature_dim, dataset.num_classes, rng)
    model = ClassifierModel(architecture, dataset.feature_dim, dataset.num_classes, weights, config)

    n = len(y)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            take = perm[start : start + config.batch_size]
            pairs = None
            if difficulty is not None:
                pair_rng = np.random.default_rng([config.seed, epoch, batch_index])
                pairs = _resolve_pairs(difficulty[take], config, pair_rng)
            loss, grads = _batch_loss_and_grads(model, X[take], y[take], config, pairs)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            for name, grad in grads.items():
                weights[name] -= lr * grad
            total += loss * len(take)
        epoch_losses.append(total / n)
    return model, epoch_losses


def train(dataset: Dataset, architecture: Architecture, config: TrainConfig) -> ClassifierModel:
    """Mini-batch gradient descent for ``config.epochs``; returns the final model.

    Deterministic: same (dataset, architecture, config) gives bit-identical
    weights.  Raises :class:`NumericError` if the loss goes non-finite.
    """
    model, _ = train_with_log(dataset, architecture, config)
    return model


@dataclass(frozen=True)
class GradientCheckResult:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_error: float
    num_parameters: int
    kink_excluded: bool


def gradient_check(
    model: ClassifierModel, batch: Sequence[Instance], config: TrainConfig
) -> GradientCheckResult:
    """Compare analytic gradients of the training loss with central finite
    differences (step 1e-5) over every parameter.

    Batches sitting at a hinge kink (a pair's confidence gap within
    ``KINK_TOLERANCE`` of the margin, or a near-tied argmax) are excluded
    and reported via ``kink_excluded`` since the loss is not differentiable
    there.  Relative error uses a 1e-6 floor so that parameters with
    (near-)zero true gradient compare as matching.
    """
    X, y, difficulty = _batch_arrays(batch, config)
    pairs = _resolve_pairs(difficulty, config, rng=None)

    if pairs is not None and pairs[0].size:
        d, e = pairs
        probs = predict_batch(model, X)
        top2 = np.sort(probs, axis=1)[:, -2:]
        tied = top2[:, 1] - top2[:, 0] <= KINK_TOLERANCE
        conf = probs.max(axis=1)
        slack = config.margin - (conf[e] - conf[d])
        if np.any(np.abs(slack) <= KINK_TOLERANCE) or tied[d].any() or tied[e].any():
            return GradientCheckResult(math.nan, 0, True)

    _, analytic = _batch_loss_and_grads(model, X, y, config, pairs)

    max_rel = 0.0
    checked = 0
    h = GRAD_CHECK_STEP
    for name, array in model.weights.items():
        flat = array.flat
        grad_flat = analytic[name].ravel()
        for k in range(array.size):
            original = flat[k]
            flat[k] = original + h
            up = _batch_loss(model, X, y, config, pairs)
            flat[k] = original - h
            down = _batch_loss(model, X, y, config, pairs)
            flat[k] = original
            numeric = (up - down) / (2 * h)
            scale = max(abs(grad_flat[k]), abs(numeric))
            if scale > 1e-6:
                max_rel = max(max_rel, abs(grad_flat[k] - numeric) / scale)
            checked += 1
    return GradientCheckResult(max_rel, checked, False)


def model_to_dict(model: ClassifierModel) -> dict:
    return {
        "architecture": asdict(model.architecture),
        "feature_dim": model.feature_dim,
        "num_classes": model.num_classes,
        "weights": {
            name: {"shape": list(array.shape), "data": [float(x) for x in array.ravel()]}
            for name, array in model.weights.items()
        },
        "train_config": asdict(model.train_config),
    }


@decoder("model document")
def model_from_dict(payload: dict) -> ClassifierModel:
    arch = Architecture(
        kind=payload["architecture"]["kind"],
        hidden_size=payload["architecture"]["hidden_size"],
    )
    config = TrainConfig(**payload["train_config"])
    weights = {}
    for name, entry in payload["weights"].items():
        shape = tuple(entry["shape"])
        data = np.asarray(entry["data"], dtype=np.float64)
        if data.size != int(np.prod(shape)):
            raise ValidationError(
                f"weight {name!r}: {data.size} values do not fill shape {shape}"
            )
        if not np.isfinite(data).all():
            raise NumericError(f"weight {name!r} holds non-finite values")
        weights[name] = data.reshape(shape)
    # ClassifierModel.__post_init__ rejects any shape/architecture mismatch.
    return ClassifierModel(
        arch, int(payload["feature_dim"]), int(payload["num_classes"]), weights, config
    )


def save_model(model: ClassifierModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> ClassifierModel:
    return read_json(path, model_from_dict)
