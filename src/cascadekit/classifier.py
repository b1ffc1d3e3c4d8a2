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

from .dataset import NO_DIFFICULTY, Dataset, Instance, _columns_of
from .errors import NumericError, ValidationError, first_fault, frozen, integer, real, real_matrix, unchecked
from .jsonio import decoder, number_list, read_json, typed, write_json

DEFAULT_LEARNING_RATES = {"linear": 0.05, "mlp": 0.01}

INIT_SCALE = 0.05
GRAD_CHECK_STEP = 1e-5
KINK_TOLERANCE = 1e-3
NOT_FEATURE_MATRIX = "X must be a matrix, one feature row per instance"
BATCH_BLOCK_ROWS = 1024  # rows per predict_batch block: its transient memory grows with this, not with N
NON_FINITE_PROBS = "model produced non-finite class probabilities"


@dataclass(frozen=True)
class Architecture:
    """Model family: "linear", or "mlp" with one tanh hidden layer."""

    kind: str
    hidden_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "mlp"):
            raise ValidationError(f"unknown architecture kind {self.kind!r}")
        if self.kind == "linear" and self.hidden_size is not None:
            raise ValidationError("linear architecture takes no hidden_size")
        if self.kind == "mlp":
            object.__setattr__(self, "hidden_size", integer(self.hidden_size, "hidden_size", low=1))


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
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("pair_cap", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low=low))
        for name in ("learning_rate", "dar_weight", "margin"):
            value = getattr(self, name)
            if value is not None or name != "learning_rate":  # None: the default rate
                object.__setattr__(self, name, real(value, name))
        # The range checks below are written so that NaN fails them.
        if self.learning_rate is not None and not 0 < self.learning_rate < math.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if not 0 <= self.dar_weight < math.inf:
            raise ValidationError("dar_weight must be finite and >= 0")
        if not 0.0 < self.margin < 1.0:
            raise ValidationError("margin must lie in (0, 1)")


@dataclass(frozen=True)
class ClassDistribution:
    """Normalized class-probability vector: a checked row of :func:`probability_rows`."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        row = self.probs[None] if isinstance(self.probs, np.ndarray) else [self.probs]
        probs, faults = probability_rows(row, "probs must be a flat vector")
        first_fault(lambda _: "", faults)
        object.__setattr__(self, "probs", frozen(probs[0]))

    @property
    def predicted_label(self) -> int:
        return int(self.probs.argmax())


def probability_rows(probs, not_matrix: str) -> tuple[np.ndarray, list]:
    """The rule of a row of class probabilities: ``probs`` (N x C) read by
    :func:`errors.real_matrix`, and its rows' faults for :func:`errors.first_fault` in
    check order: not flat or not numbers, outside [0, 1], not summing to 1."""
    matrix, row, refusal = real_matrix(probs, "probs", not_matrix)
    with np.errstate(all="ignore"):  # NaN and inf rows fail the range check first
        in_range = ((matrix >= 0) & (matrix <= 1)).all(axis=1)
        summed = np.abs(matrix.sum(axis=1) - 1.0) <= 1e-9
    faults = [(~in_range, "probabilities must lie in [0, 1]"), (~summed, "probabilities must sum to 1")]
    return matrix, [(row, refusal), *faults]


@dataclass
class ClassifierModel:
    """A trained classifier: architecture, dims, and parameter arrays."""

    architecture: Architecture
    feature_dim: int
    num_classes: int
    weights: dict[str, np.ndarray]
    train_config: TrainConfig

    def __post_init__(self) -> None:
        self.feature_dim = integer(self.feature_dim, "feature_dim", low=1)
        self.num_classes = integer(self.num_classes, "num_classes", low=1)
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
            if not np.isfinite(self.weights[name]).all():
                raise NumericError(f"weight {name!r} holds non-finite values")


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


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The logits' row maximum, the logits minus it, their exp, and the exp's row sum: the part
    that softmax and log_softmax share.  (The ufunc reductions are what ``ndarray.max`` and
    ``.sum`` call, so they give the same bits, without the wrappers' per-call cost.)"""
    top = np.maximum.reduce(logits, axis=-1, keepdims=True)
    shifted = logits - top
    exp = np.exp(shifted)
    return top, shifted, exp, np.add.reduce(exp, axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    _, _, exp, total = _shifted_exp(logits)
    return exp / total


def log_softmax(logits: np.ndarray) -> np.ndarray:
    _, shifted, _, total = _shifted_exp(logits)
    return shifted - np.log(total)


def _forward(kind: str, weights: dict[str, np.ndarray], X: np.ndarray):
    """Returns (logits, hidden activations or None).

    Stacked models share a leading axis: ``X`` (M, B, d) with ``weights``
    (M, d, h) and (M, h) runs M forward passes in one ``np.matmul``, each
    slice with the bits of its own (B, d) pass.
    """
    if kind == "linear":
        return X @ weights["w"] + weights["b"][..., None, :], None
    hidden = np.tanh(X @ weights["w1"] + weights["b1"][..., None, :])
    return hidden @ weights["w2"] + weights["b2"][..., None, :], hidden


def _probabilities(model: ClassifierModel, X: np.ndarray) -> np.ndarray:
    """Softmax of the model's logits for ``X`` (..., d); NumericError if any
    probability is non-finite.

    A row's probabilities are finite exactly when its largest logit is:
    ``np.maximum`` carries a NaN through, and a finite maximum leaves every
    exp in [0, 1] with a 1 among them, so the row sum lies in [1, C].  So
    the row maxima are checked, not every probability.
    """
    logits, _ = _forward(model.architecture.kind, model.weights, X)
    top, _, exp, total = _shifted_exp(logits)
    if not np.isfinite(top).all():
        raise NumericError(NON_FINITE_PROBS)
    return exp / total


def predict_batch(model: ClassifierModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per instance; NumericError if any is non-finite.

    Rows are independent: each row runs as its own (1, d) product, so it
    gets the exact bits :func:`predict` gives that instance alone, whatever
    batch it sits in.  (A BLAS product over many rows at once can change a
    row's last bits with its batch-mates, and so can a strided row, hence
    the C-ordered read of ``X`` by :func:`errors.real_matrix`.)  The rows
    run in blocks of :data:`BATCH_BLOCK_ROWS`, each written into the
    (N, C) result, so the hidden activations held at once are one block's.
    """
    X, row, refusal = real_matrix(X, "X", NOT_FEATURE_MATRIX)
    first_fault(lambda row: f"row {row}: ", [(row, refusal)])
    if X.shape[1] != model.feature_dim:
        raise ValidationError(f"feature matrix has {X.shape[1]} columns, model expects {model.feature_dim}")
    probs = np.empty((X.shape[0], model.num_classes))
    for start in range(0, X.shape[0], BATCH_BLOCK_ROWS):
        block = X[start : start + BATCH_BLOCK_ROWS, None, :]
        probs[start : start + BATCH_BLOCK_ROWS] = _probabilities(model, block)[:, 0, :]
    return probs


def predict(model: ClassifierModel, instance: Instance) -> ClassDistribution:
    """Class distribution for one instance (softmax over the model logits), built unchecked:
    a non-finite one is refused by the rule of :func:`_probabilities`, and a trace table checks
    its rows again.

    The same bits as the instance's row of :func:`predict_batch`: the logits come from the same
    (1, d) product, and the softmax of that one row is taken as a 1-D array, whose reductions
    add and compare in the order a row's do, without the per-call cost of (1, C) arrays.
    """
    features = instance.features
    if features.shape[0] != model.feature_dim:
        raise ValidationError(
            f"instance {instance.id!r} has {features.shape[0]} features, model expects {model.feature_dim}"
        )
    logits = _forward(model.architecture.kind, model.weights, features[None, :])[0][0]
    top = np.maximum.reduce(logits)
    if not math.isfinite(top):
        raise NumericError(NON_FINITE_PROBS)
    exp = np.exp(logits - top)
    return unchecked(ClassDistribution, probs=exp / np.add.reduce(exp))


def confidence(dist: ClassDistribution) -> float:
    """Maximum class probability of a distribution."""
    return float(dist.probs.max())


def dar_pair_loss(conf_difficult: float, conf_easy: float, margin: float) -> float:
    """Hinge penalty on a (difficult, easy) confidence pair.

    Zero exactly when the easy instance out-confidences the difficult one
    by at least ``margin``: max(0, margin - (conf_easy - conf_difficult)).
    """
    margin = real(margin, "margin")
    if not 0.0 < margin < 1.0:
        raise ValidationError("margin must lie in (0, 1)")
    gap = real(conf_easy, "conf_easy") - real(conf_difficult, "conf_difficult")
    return max(0.0, margin - gap)


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
) -> tuple[float | np.ndarray, np.ndarray]:
    """Training loss (mean cross-entropy plus ``dar_weight`` times the mean
    :func:`dar_pair_loss` over ``pairs``) and its gradient in the logits.

    Stacked (M, B, C) logits give one loss per model; the regularizer takes
    the logits of one model.
    """
    n = y.shape[-1]
    _, shifted, exp, total = _shifted_exp(logits)
    probs = exp / total
    gold = y[..., None] == np.arange(logits.shape[-1])
    # The gold entries of log_softmax, averaged as .mean() does: sum, then divide.
    ce = -((shifted[gold].reshape(y.shape) - np.log(total[..., 0])).sum(axis=-1) / n)
    # p - 1.0 at the gold entry and p - 0.0 == p elsewhere: the same bits as
    # subtracting 1 in place at [row, y].
    dlogits = (probs - gold) / n
    if config.dar_weight == 0 or pairs is None or pairs[0].size == 0:
        return ce, dlogits

    d, e = pairs
    conf = probs.max(axis=1)
    slack = config.margin - (conf[e] - conf[d])
    active = slack > 0
    # Summed in pair order, not np.sum's pairwise order, so that epoch losses
    # (and the training log) do not change in their last bits.
    dar = float(np.cumsum(np.where(active, slack, 0.0))[-1]) / d.size
    counts = np.bincount(d[active], minlength=n) - np.bincount(e[active], minlength=n)
    dconf = counts * (config.dar_weight / d.size)
    # Confidence is the argmax softmax entry; gradients flow through that
    # entry's softmax row (first index wins on ties).
    rows = np.flatnonzero(dconf)
    top = np.argmax(probs[rows], axis=1)
    top_conf = probs[rows, top]
    jac = -probs[rows] * top_conf[:, None]
    jac[np.arange(rows.size), top] += top_conf
    dlogits[rows] += dconf[rows, None] * jac
    return ce + config.dar_weight * dar, dlogits


def _batch_loss(
    model: ClassifierModel, X: np.ndarray, y: np.ndarray, config: TrainConfig, pairs: Pairs | None
) -> float:
    logits, _ = _forward(model.architecture.kind, model.weights, X)
    return _objective(logits, y, config, pairs)[0]


def _batch_loss_and_grads(
    kind: str,
    weights: dict[str, np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    pairs: Pairs | None,
) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
    """Loss and weight gradients of one model, or of M stacked models when
    ``X``, ``y`` and ``weights`` carry a leading model axis."""
    logits, hidden = _forward(kind, weights, X)
    loss, dlogits = _objective(logits, y, config, pairs)
    Xt = np.swapaxes(X, -1, -2)
    if kind == "linear":
        return loss, {"w": Xt @ dlogits, "b": dlogits.sum(axis=-2)}
    dhidden = dlogits @ np.swapaxes(weights["w2"], -1, -2)
    dpre = dhidden * (1.0 - hidden * hidden)
    return loss, {
        "w1": Xt @ dpre,
        "b1": dpre.sum(axis=-2),
        "w2": np.swapaxes(hidden, -1, -2) @ dlogits,
        "b2": dlogits.sum(axis=-2),
    }


def _batch_arrays(model: ClassifierModel, batch: Sequence[Instance], config: TrainConfig):
    """The features, labels and (with ``dar_weight > 0``) difficulty flags of ``batch``, if each row
    fits ``model`` and carries a flag where one is needed; else ``ValidationError`` naming the first
    row that does not, with the first of these it breaks.  Ids may repeat: a batch is no dataset."""
    if not batch:
        raise ValidationError("batch must be non-empty")
    columns, wrong_width = _columns_of(tuple(batch))
    ids, X = columns.ids, columns.features
    y = np.array(columns.labels, np.int64)
    difficulty = np.array(columns.difficulty, np.int64) if config.dar_weight > 0 else None
    wrong_width = (0, X.shape[1]) if X.shape[1] != model.feature_dim else wrong_width
    wrong_row, got = wrong_width or (None, None)
    first_fault(lambda _: "", [
        (wrong_row, lambda row: f"instance {ids[row]!r} has {got} features, model expects {model.feature_dim}"),
        (y >= model.num_classes, lambda row: f"instance {ids[row]!r}: label {y[row]} out of range "
         f"for {model.num_classes} classes"),
        (None if difficulty is None else difficulty == NO_DIFFICULTY,
         lambda row: f"dar_weight > 0 requires difficulty labels; missing for {ids[row]!r}"),
    ])
    return X, y, difficulty


def total_loss(model: ClassifierModel, batch: Sequence[Instance], config: TrainConfig) -> float:
    """Mean cross-entropy plus ``dar_weight`` times the mean pair penalty.

    Pairs are all (difficult, easy) combinations in the batch, capped at
    ``pair_cap`` by sampling seeded from the config.  With ``dar_weight=0``
    this is exactly the mean cross-entropy.
    """
    X, y, difficulty = _batch_arrays(model, batch, config)
    return _batch_loss(model, X, y, config, _resolve_pairs(difficulty, config, rng=None))


def _lockstep_steps(
    sizes: np.ndarray, batch_size: int
) -> list[tuple[int, int, int, int | slice | np.ndarray]]:
    """``(batch index, start, length, models)`` for every step of an epoch.

    At each batch index, the models whose batches have one length take one
    step together.  A single model is an int index, which drops the model
    axis; all models are a slice, which keeps weight views.
    """
    steps = []
    for batch_index, start in enumerate(range(0, int(sizes.max()), batch_size)):
        lengths = np.minimum(sizes - start, batch_size)
        for length in np.unique(lengths[lengths > 0]).tolist():
            members = np.flatnonzero(lengths == length)
            if members.size == 1:
                models = int(members[0])
            elif members.size == sizes.size:
                models = slice(None)
            else:
                models = members
            steps.append((batch_index, start, length, models))
    return steps


def train_arrays(
    X: np.ndarray,
    y: np.ndarray,
    rows: Sequence[np.ndarray],
    num_classes: int,
    architecture: Architecture,
    config: TrainConfig,
    difficulty: np.ndarray | None = None,
) -> list[tuple[ClassifierModel, list[float]]]:
    """Train one model per entry of ``rows`` in lockstep; model m trains on
    ``X[rows[m]]``.  Returns each model with its per-epoch mean loss.

    Every model draws its initialization and epoch permutations from its own
    ``np.random.default_rng(config.seed)`` stream, and every step slice keeps
    the shape, so the bits, of training that model alone.  ``difficulty``
    (one flag per row of ``X``) is needed when ``config.dar_weight > 0``,
    which trains one model only.
    """
    sizes = np.array([len(r) for r in rows])
    if sizes.size == 0 or not sizes.all():
        raise ValidationError("cannot train on an empty dataset")
    if config.dar_weight > 0 and (sizes.size != 1 or difficulty is None):
        raise ValidationError("dar_weight > 0 needs difficulty labels and trains one model")
    lr = config.learning_rate
    if lr is None:
        lr = DEFAULT_LEARNING_RATES[architecture.kind]
    feature_dim = X.shape[1]

    rngs = [np.random.default_rng(config.seed) for _ in rows]
    inits = [_init_weights(architecture, feature_dim, num_classes, rng) for rng in rngs]
    weights = {name: np.stack([w[name] for w in inits]) for name in inits[0]}

    steps = _lockstep_steps(sizes, config.batch_size)
    order = np.zeros((sizes.size, sizes.max()), dtype=np.intp)
    loss_sums = np.zeros((config.epochs, sizes.size))
    for epoch in range(config.epochs):
        for m, rng in enumerate(rngs):
            order[m, : sizes[m]] = rows[m][rng.permutation(len(rows[m]))]
        for batch_index, start, length, models in steps:
            take = order[models, start : start + length]
            pairs = None
            if config.dar_weight > 0:
                pair_rng = np.random.default_rng([config.seed, epoch, batch_index])
                pairs = _resolve_pairs(difficulty[take], config, pair_rng)
            loss, grads = _batch_loss_and_grads(
                architecture.kind,
                {name: w[models] for name, w in weights.items()},
                X[take],
                y[take],
                config,
                pairs,
            )
            if not np.isfinite(loss).all():
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {batch_index}")
            for name, grad in grads.items():
                weights[name][models] -= lr * grad
            loss_sums[epoch, models] += loss * length
    epoch_losses = (loss_sums / sizes).T.tolist()
    return [
        (
            ClassifierModel(
                architecture,
                feature_dim,
                num_classes,
                {name: w[m].copy() for name, w in weights.items()},
                config,
            ),
            losses,
        )
        for m, losses in enumerate(epoch_losses)
    ]


def train_with_log(
    dataset: Dataset, architecture: Architecture, config: TrainConfig
) -> tuple[ClassifierModel, list[float]]:
    """Train and also return the per-epoch mean loss."""
    difficulty = dataset.difficulty_array() if config.dar_weight > 0 else None
    [(model, losses)] = train_arrays(
        dataset.feature_matrix(),
        dataset.label_array(),
        [np.arange(len(dataset))],
        dataset.num_classes,
        architecture,
        config,
        difficulty,
    )
    return model, losses


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_rel_error", real(self.max_rel_error, "max_rel_error"))
        object.__setattr__(self, "num_parameters", integer(self.num_parameters, "num_parameters"))


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
    X, y, difficulty = _batch_arrays(model, batch, config)
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

    _, analytic = _batch_loss_and_grads(
        model.architecture.kind, model.weights, X, y, config, pairs
    )

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
    arch = typed(payload["architecture"], Architecture, "architecture")
    config = typed(payload["train_config"], TrainConfig, "train_config")
    weights = {}
    for name, entry in payload["weights"].items():
        shape = typed(entry["shape"], tuple[int, ...], f"weights[{name!r}].shape")
        data = np.array(number_list(entry["data"], f"weights[{name!r}].data"))
        if data.size != int(np.prod(shape)):
            raise ValidationError(
                f"weight {name!r}: {data.size} values do not fill shape {shape}"
            )
        weights[name] = data.reshape(shape)
    feature_dim = typed(payload["feature_dim"], int, "feature_dim")
    num_classes = typed(payload["num_classes"], int, "num_classes")
    # ClassifierModel.__post_init__ rejects any shape/architecture mismatch
    # and non-finite weights.
    return ClassifierModel(arch, feature_dim, num_classes, weights, config)


def save_model(model: ClassifierModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> ClassifierModel:
    return read_json(path, model_from_dict)
