import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit import (
    Architecture,
    ClassDistribution,
    ClassifierModel,
    Dataset,
    Instance,
    NumericError,
    TrainConfig,
    ValidationError,
    confidence,
    dar_pair_loss,
    gradient_check,
    load_model,
    planted_hard_task,
    predict,
    predict_batch,
    save_model,
    total_loss,
    train,
    train_with_log,
)
from cascadekit.classifier import (
    DEFAULT_LEARNING_RATES,
    KINK_TOLERANCE,
    _batch_loss,
    _batch_loss_and_grads,
    _init_weights,
    _resolve_pairs,
    _weight_shapes,
    log_softmax,
    model_from_dict,
    model_to_dict,
    softmax,
)


def fixed_linear_model():
    """2x2 linear model with hand-computable logits."""
    weights = {
        "w": np.array([[1.0, -1.0], [0.0, 2.0]]),
        "b": np.array([0.5, 0.0]),
    }
    return ClassifierModel(Architecture("linear"), 2, 2, weights, TrainConfig())


def strip_difficulty(dataset):
    stripped = tuple(
        Instance(i.id, i.features, i.label, None) for i in dataset.instances
    )
    return type(dataset)(stripped, dataset.num_classes, dataset.feature_dim)


# --- config validation -------------------------------------------------------


def test_architecture_validation():
    Architecture("linear")
    Architecture("mlp", hidden_size=4)
    with pytest.raises(ValidationError):
        Architecture("transformer")
    with pytest.raises(ValidationError):
        Architecture("mlp")
    with pytest.raises(ValidationError):
        Architecture("linear", hidden_size=4)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(dar_weight=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(margin=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(margin=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(seed=-1)
    with pytest.raises(ValidationError):
        TrainConfig(pair_cap=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 2.5),
        ("epochs", True),
        ("batch_size", True),
        ("batch_size", 32.0),
        ("seed", 1.0),
        ("seed", True),
        ("pair_cap", "3"),
        ("pair_cap", 1.5),
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("learning_rate", True),
        ("dar_weight", math.nan),
        ("dar_weight", math.inf),
        ("dar_weight", "0.5"),
        ("margin", math.nan),
    ],
)
def test_train_config_rejects_wrong_types_and_nan(tmp_path, field, value):
    # These used to construct, and a model file carrying them loaded silently.
    with pytest.raises(ValidationError, match=field):
        TrainConfig(**{field: value})
    payload = model_to_dict(fixed_linear_model())
    payload["train_config"][field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: .*{field}"):
        load_model(path)


def test_train_config_accepts_numpy_integers_as_python_ints():
    config = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8), seed=np.uint8(2), pair_cap=np.int16(4))
    assert (config.epochs, config.batch_size, config.seed, config.pair_cap) == (3, 8, 2, 4)
    assert all(type(v) is int for v in (config.epochs, config.batch_size, config.seed, config.pair_cap))
    # Numpy reals (np.float32 used to be refused) are kept as Python floats.
    reals = TrainConfig(learning_rate=np.float32(0.25), dar_weight=np.float64(0.5), margin=np.float16(0.25))
    assert (reals.learning_rate, reals.dar_weight, reals.margin) == (0.25, 0.5, 0.25)
    assert all(type(v) is float for v in (reals.learning_rate, reals.dar_weight, reals.margin))


def test_class_distribution_validation():
    d = ClassDistribution(np.array([0.25, 0.75]))
    assert d.predicted_label == 1
    with pytest.raises(ValidationError):
        ClassDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        ClassDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValidationError):
        ClassDistribution(np.array([[1.0]]))


@pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.inf]])
def test_class_distribution_rejects_non_finite(probs):
    with pytest.raises(ValidationError, match="probabilities"):
        ClassDistribution(np.array(probs))


def test_model_rejects_wrong_weight_shapes():
    with pytest.raises(ValidationError):
        ClassifierModel(
            Architecture("linear"),
            2,
            2,
            {"w": np.zeros((3, 2)), "b": np.zeros(2)},
            TrainConfig(),
        )
    with pytest.raises(ValidationError):
        ClassifierModel(
            Architecture("linear"), 2, 2, {"w": np.zeros((2, 2))}, TrainConfig()
        )


# --- softmax / prediction ----------------------------------------------------


def test_softmax_matches_hand_values():
    # logits [1.5, 1.0] -> p0 = 1 / (1 + e^-0.5)
    p = softmax(np.array([1.5, 1.0]))
    np.testing.assert_allclose(p, [0.6224593312018546, 0.3775406687981454], atol=1e-15)


def test_softmax_shift_invariant_and_stable():
    a = softmax(np.array([0.0, 0.5]))
    b = softmax(np.array([1000.0, 1000.5]))
    np.testing.assert_allclose(a, b, atol=1e-15)
    assert np.all(np.isfinite(softmax(np.array([-1e300, 0.0, 1e300]))))


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=6,
    )
)
def test_softmax_is_a_distribution(logits):
    p = softmax(np.array(logits))
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(np.log(p), log_softmax(np.array(logits)), atol=1e-12)


def test_predict_matches_hand_computation():
    model = fixed_linear_model()
    dist = predict(model, Instance("a", np.array([1.0, 1.0]), 0))
    np.testing.assert_allclose(
        dist.probs, [0.6224593312018546, 0.3775406687981454], atol=1e-15
    )
    assert confidence(dist) == pytest.approx(0.6224593312018546, abs=1e-15)
    assert dist.predicted_label == 0


def test_predict_batch_consistent_with_predict():
    ds = planted_hard_task(10, seed=3)
    model = train(ds, Architecture("linear"), TrainConfig(epochs=2, seed=0))
    P = predict_batch(model, ds.feature_matrix())
    for row, inst in zip(P, ds.instances):
        assert np.array_equal(row, predict(model, inst).probs)


@st.composite
def random_models(draw):
    """A linear or mlp model of 1 to 64 classes whose weights are drawn at a
    scale from 1e-3 to 1e3, with a few feature rows for it."""
    num_classes, feature_dim = draw(st.integers(1, 64)), draw(st.integers(1, 4))
    architecture = draw(st.sampled_from([Architecture("linear"), Architecture("mlp", 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 3))
    shapes = _weight_shapes(architecture, feature_dim, num_classes)
    weights = {name: scale * rng.standard_normal(shape) for name, shape in shapes.items()}
    model = ClassifierModel(architecture, feature_dim, num_classes, weights, TrainConfig())
    return model, rng.standard_normal((draw(st.integers(1, 5)), feature_dim))


@settings(max_examples=200, deadline=None)
@given(random_models())
def test_every_predicted_row_builds_as_a_checked_distribution(drawn):
    # predict builds its ClassDistribution unchecked; this is why it may.
    model, X = drawn
    try:
        batch = list(predict_batch(model, X))
    except NumericError:
        batch = []
    for k, x in enumerate(X):
        try:
            one = predict(model, Instance(f"i{k}", x, 0)).probs
        except NumericError:
            continue
        batch.append(one)
    for probs in batch:
        assert np.array_equal(ClassDistribution(probs).probs, probs)
        assert ClassDistribution(list(probs)).probs.tolist() == probs.tolist()


def test_predict_rejects_wrong_dim():
    model = fixed_linear_model()
    with pytest.raises(ValidationError):
        predict(model, Instance("a", np.zeros(3), 0))
    with pytest.raises(ValidationError):
        predict_batch(model, np.zeros((4, 3)))


# --- losses -------------------------------------------------------------------


def test_dar_pair_loss_hand_values():
    # margin 0.4, gap 0.1086 -> penalty 0.2914...
    assert dar_pair_loss(0.62, 0.91, 0.2) == 0.0
    assert dar_pair_loss(0.5, 0.6, 0.3) == pytest.approx(0.2)
    assert dar_pair_loss(0.9, 0.5, 0.3) == pytest.approx(0.7)


def test_dar_pair_loss_margin_validation():
    with pytest.raises(ValidationError):
        dar_pair_loss(0.5, 0.6, 0.0)
    with pytest.raises(ValidationError):
        dar_pair_loss(0.5, 0.6, 1.0)


@given(
    conf_d=st.floats(min_value=0.0, max_value=1.0),
    conf_e=st.floats(min_value=0.0, max_value=1.0),
    margin=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
)
def test_dar_pair_loss_properties(conf_d, conf_e, margin):
    loss = dar_pair_loss(conf_d, conf_e, margin)
    assert loss >= 0.0
    if conf_e - conf_d >= margin:
        assert loss == 0.0
    else:
        assert loss == pytest.approx(margin - (conf_e - conf_d))


def test_total_loss_cross_entropy_oracle():
    model = fixed_linear_model()
    batch = [
        Instance("a", np.array([1.0, 1.0]), 0),
        Instance("b", np.array([-0.5, 0.25]), 1),
    ]
    got = total_loss(model, batch, TrainConfig(dar_weight=0.0))
    assert got == pytest.approx(0.39366933584916475, abs=1e-14)


def test_total_loss_with_pair_penalty_oracle():
    model = fixed_linear_model()
    # a is difficult (conf 0.6224...), b easy (conf 0.7310...)
    batch = [
        Instance("a", np.array([1.0, 1.0]), 0, difficulty=1),
        Instance("b", np.array([-0.5, 0.25]), 1, difficulty=0),
    ]
    config = TrainConfig(dar_weight=2.0, margin=0.4)
    got = total_loss(model, batch, config)
    assert got == pytest.approx(0.9764708409928642, abs=1e-14)


def test_total_loss_zero_weight_ignores_difficulty():
    model = fixed_linear_model()
    batch = [
        Instance("a", np.array([1.0, 1.0]), 0, difficulty=1),
        Instance("b", np.array([-0.5, 0.25]), 1, difficulty=0),
    ]
    assert total_loss(model, batch, TrainConfig(dar_weight=0.0)) == pytest.approx(
        0.39366933584916475, abs=1e-14
    )


def test_total_loss_no_pairs_reduces_to_cross_entropy():
    model = fixed_linear_model()
    all_difficult = [
        Instance("a", np.array([1.0, 1.0]), 0, difficulty=1),
        Instance("b", np.array([-0.5, 0.25]), 1, difficulty=1),
    ]
    with_dar = total_loss(model, all_difficult, TrainConfig(dar_weight=5.0))
    assert with_dar == pytest.approx(0.39366933584916475, abs=1e-14)


def test_total_loss_requires_difficulty_when_weighted():
    model = fixed_linear_model()
    batch = [Instance("a", np.array([1.0, 1.0]), 0)]
    with pytest.raises(ValidationError, match="difficulty"):
        total_loss(model, batch, TrainConfig(dar_weight=1.0))


@pytest.mark.parametrize(
    "batch, message",
    [
        (
            [Instance("a", np.ones(2), 0, 1), Instance("b", np.ones(3), 1, 0)],
            "instance 'b' has 3 features, model expects 2",
        ),
        ([Instance("a", np.ones(3), 0, 1)], "instance 'a' has 3 features, model expects 2"),
        (
            [Instance("a", np.ones(2), 0, 1), Instance("b", np.ones(2), 2, 0)],
            "instance 'b': label 2 out of range for 2 classes",
        ),
        (
            [Instance("a", np.ones(2), 2, 1), Instance("b", np.ones(2), 0)],
            "instance 'a': label 2 out of range for 2 classes",
        ),
        (
            [Instance("a", np.ones(2), 0), Instance("b", np.ones(2), 2, 0)],
            "dar_weight > 0 requires difficulty labels; missing for 'a'",
        ),
    ],
    ids=["mixed widths", "model width", "label range", "first row first", "missing flag first"],
)
def test_a_batch_that_does_not_fit_the_model_is_refused(batch, message):
    model = fixed_linear_model()
    for config in (TrainConfig(), TrainConfig(dar_weight=1.0)):
        if "dar_weight" in message and not config.dar_weight:
            continue
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            total_loss(model, batch, config)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            gradient_check(model, batch, config)


def test_a_batch_may_repeat_an_id():
    model = fixed_linear_model()
    batch = [Instance("a", np.array([1.0, 1.0]), 0, 1), Instance("a", np.array([-0.5, 0.25]), 1, 0)]
    distinct = [Instance("a", batch[0].features, 0, 1), Instance("b", batch[1].features, 1, 0)]
    config = TrainConfig(dar_weight=1.0)
    assert total_loss(model, batch, config) == total_loss(model, distinct, config)


def test_pair_cap_noop_when_not_binding():
    model = fixed_linear_model()
    rng = np.random.default_rng(0)
    batch = [
        Instance(f"i{k}", rng.normal(size=2), k % 2, difficulty=k % 2)
        for k in range(8)
    ]
    # 16 cross pairs; any cap >= 16 must give the identical loss
    full = total_loss(model, batch, TrainConfig(dar_weight=1.0, pair_cap=16))
    huge = total_loss(model, batch, TrainConfig(dar_weight=1.0, pair_cap=9999))
    assert full == huge
    capped = total_loss(model, batch, TrainConfig(dar_weight=1.0, pair_cap=3))
    assert capped == total_loss(model, batch, TrainConfig(dar_weight=1.0, pair_cap=3))


# --- training ------------------------------------------------------------------


def test_train_is_deterministic():
    ds = planted_hard_task(60, seed=1)
    config = TrainConfig(epochs=3, seed=9)
    m1 = train(ds, Architecture("linear"), config)
    m2 = train(ds, Architecture("linear"), config)
    for name in m1.weights:
        np.testing.assert_array_equal(m1.weights[name], m2.weights[name])
    m3 = train(ds, Architecture("linear"), TrainConfig(epochs=3, seed=10))
    assert any(np.any(m1.weights[n] != m3.weights[n]) for n in m1.weights)


def test_train_zero_weight_matches_unlabeled_data():
    ds = planted_hard_task(60, seed=2)
    config = TrainConfig(epochs=3, seed=5, dar_weight=0.0)
    with_labels = train(ds, Architecture("linear"), config)
    without = train(strip_difficulty(ds), Architecture("linear"), config)
    for name in with_labels.weights:
        np.testing.assert_array_equal(with_labels.weights[name], without.weights[name])


def test_train_with_log_reduces_loss():
    ds = planted_hard_task(200, seed=4)
    model, losses = train_with_log(
        ds, Architecture("linear"), TrainConfig(epochs=10, learning_rate=0.2, seed=0)
    )
    assert len(losses) == 10
    assert losses[-1] < losses[0]
    probs = predict_batch(model, ds.feature_matrix())
    acc = float((probs.argmax(axis=1) == ds.label_array()).mean())
    assert acc > 0.7


def test_train_mlp_solves_nonlinear_tier():
    from cascadekit import tiered_task

    ds = tiered_task(1500, seed=3)
    model = train(
        ds,
        Architecture("mlp", hidden_size=8),
        TrainConfig(epochs=30, learning_rate=0.1, seed=1),
    )
    probs = predict_batch(model, ds.feature_matrix())
    hard = ds.difficulty_array() == 1
    acc = float((probs.argmax(axis=1) == ds.label_array())[hard].mean())
    # the hard tier is not linearly separable; the hidden layer must be doing work
    assert acc > 0.9


def test_train_dar_requires_difficulty_labels():
    ds = strip_difficulty(planted_hard_task(20, seed=0))
    with pytest.raises(ValidationError, match="difficulty"):
        train(ds, Architecture("linear"), TrainConfig(dar_weight=0.5))


def test_train_raises_numeric_error_on_divergence():
    rng = np.random.default_rng(0)
    from cascadekit import Dataset

    instances = tuple(
        Instance(f"i{k}", rng.normal(scale=100.0, size=3), k % 2) for k in range(8)
    )
    ds = Dataset(instances, num_classes=2, feature_dim=3)
    config = TrainConfig(epochs=4, learning_rate=1e308, batch_size=4, seed=0)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match="non-finite loss at epoch"
    ):
        train(ds, Architecture("linear"), config)


def test_learning_rate_default_resolution():
    ds = planted_hard_task(30, seed=6)
    # None must behave exactly like the documented per-architecture default
    m_default = train(ds, Architecture("linear"), TrainConfig(epochs=2, seed=3))
    m_explicit = train(
        ds, Architecture("linear"), TrainConfig(epochs=2, seed=3, learning_rate=0.05)
    )
    for name in m_default.weights:
        np.testing.assert_array_equal(m_default.weights[name], m_explicit.weights[name])


# --- gradient check --------------------------------------------------------------


@pytest.mark.parametrize("kind,hidden", [("linear", None), ("mlp", 4)])
@pytest.mark.parametrize("dar_weight", [0.0, 0.5])
def test_gradient_check_small_error(kind, hidden, dar_weight):
    ds = planted_hard_task(24, seed=2)
    config = TrainConfig(
        epochs=2, learning_rate=0.2, dar_weight=dar_weight, margin=0.2, seed=4
    )
    model = train(ds, Architecture(kind, hidden), config)
    result = gradient_check(model, list(ds.instances[:16]), config)
    assert not result.kink_excluded
    assert result.num_parameters == sum(w.size for w in model.weights.values())
    assert result.max_rel_error < 1e-4


def test_gradient_check_flags_margin_kink():
    # engineer a pair exactly at the hinge: equal confidences, margin ~ 0
    weights = {"w": np.zeros((2, 2)), "b": np.zeros(2)}
    model = ClassifierModel(Architecture("linear"), 2, 2, weights, TrainConfig())
    batch = [
        Instance("d", np.array([0.3, -0.2]), 0, difficulty=1),
        Instance("e", np.array([0.1, 0.4]), 1, difficulty=0),
    ]
    config = TrainConfig(dar_weight=1.0, margin=0.5)
    result = gradient_check(model, batch, config)
    # zero weights -> both confidences 0.5, argmax tied -> kink
    assert result.kink_excluded
    assert math.isnan(result.max_rel_error)


# --- regularizer: index arrays against the per-pair loops they replaced ----------


def oracle_pairs(difficulty, config, rng):
    """All (difficult, easy) pairs as a list of tuples, difficult-major."""
    difficult = np.flatnonzero(difficulty == 1)
    easy = np.flatnonzero(difficulty == 0)
    pairs = [(int(d), int(e)) for d in difficult for e in easy]
    if len(pairs) > config.pair_cap:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        keep = rng.choice(len(pairs), size=config.pair_cap, replace=False)
        pairs = [pairs[k] for k in sorted(keep)]
    return pairs


def oracle_forward(model, X):
    w = model.weights
    if model.architecture.kind == "linear":
        return X @ w["w"] + w["b"], None
    hidden = np.tanh(X @ w["w1"] + w["b1"])
    return hidden @ w["w2"] + w["b2"], hidden


def oracle_loss(model, X, y, config, pairs):
    logits, _ = oracle_forward(model, X)
    logp = log_softmax(logits)
    ce = -float(logp[np.arange(len(y)), y].mean())
    if config.dar_weight == 0 or not pairs:
        return ce
    conf = softmax(logits).max(axis=1)
    dar = sum(max(0.0, config.margin - (conf[e] - conf[d])) for d, e in pairs) / len(pairs)
    return ce + config.dar_weight * float(dar)


def oracle_loss_and_grads(model, X, y, config, pairs):
    n = len(y)
    logits, hidden = oracle_forward(model, X)
    probs = softmax(logits)
    logp = log_softmax(logits)
    ce = -float(logp[np.arange(n), y].mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    loss = ce
    if config.dar_weight > 0 and pairs:
        top = np.argmax(probs, axis=1)
        conf = probs[np.arange(n), top]
        dconf = np.zeros(n)
        dar = 0.0
        for d, e in pairs:
            slack = config.margin - (conf[e] - conf[d])
            if slack > 0:
                dar += slack
                dconf[d] += 1.0
                dconf[e] -= 1.0
        dar /= len(pairs)
        loss = ce + config.dar_weight * dar
        dconf *= config.dar_weight / len(pairs)
        rows = np.flatnonzero(dconf)
        if rows.size:
            jac = -probs[rows] * conf[rows, None]
            jac[np.arange(rows.size), top[rows]] += conf[rows]
            dlogits[rows] += dconf[rows, None] * jac
    w = model.weights
    if model.architecture.kind == "linear":
        return loss, {"w": X.T @ dlogits, "b": dlogits.sum(axis=0)}
    dpre = (dlogits @ w["w2"].T) * (1.0 - hidden * hidden)
    return loss, {
        "w1": X.T @ dpre,
        "b1": dpre.sum(axis=0),
        "w2": hidden.T @ dlogits,
        "b2": dlogits.sum(axis=0),
    }


def oracle_at_kink(model, X, config, pairs):
    if config.dar_weight > 0 and pairs:
        probs = predict_batch(model, X)
        top2 = np.sort(probs, axis=1)[:, -2:]
        conf = probs.max(axis=1)
        for d, e in pairs:
            if abs(config.margin - (conf[e] - conf[d])) <= KINK_TOLERANCE:
                return True
            for idx in (d, e):
                if top2[idx, 1] - top2[idx, 0] <= KINK_TOLERANCE:
                    return True
    return False


@st.composite
def dar_batches(draw):
    n = draw(st.integers(1, 40))
    mix = draw(st.sampled_from(["mixed"] * 4 + ["all_easy", "all_difficult"]))
    if mix == "mixed":
        difficulty = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        difficulty = np.full(n, int(mix == "all_difficult"))
    num_difficult = int(difficulty.sum())
    cross = num_difficult * (n - num_difficult)
    # caps both below and above the number of cross pairs
    pair_cap = draw(st.integers(1, cross + 3))
    kind = draw(st.sampled_from(["linear", "mlp"]))
    dar_weight = draw(st.sampled_from([0.0, 0.3, 2.0]))
    margin = draw(st.floats(0.01, 0.99))
    # weight scale 0 ties every argmax; 1e-4 nearly ties it
    scale = draw(st.sampled_from([0.0, 1e-4, 0.5, 3.0]))
    plant_margin_kink = draw(st.booleans())
    tied_row = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    seed = draw(st.integers(0, 2**16))

    rng = np.random.default_rng(seed)
    arch = Architecture(kind, 4 if kind == "mlp" else None)
    shapes = {"w": (3, 3), "b": (3,)} if kind == "linear" else {
        "w1": (3, 4), "b1": (4,), "w2": (4, 3), "b2": (3,)
    }
    weights = {name: scale * rng.normal(size=shape) for name, shape in shapes.items()}
    model = ClassifierModel(arch, 3, 3, weights, TrainConfig())
    X = rng.normal(size=(n, 3))
    if tied_row is not None:
        # zero features and biases give that row all-equal logits
        X[tied_row] = 0.0
        for name in weights:
            if name.startswith("b"):
                weights[name][:] = 0.0
    y = rng.integers(0, 3, size=n)
    if plant_margin_kink and cross:
        # put the first cross pair exactly on the hinge
        conf = predict_batch(model, X).max(axis=1)
        gap = conf[np.flatnonzero(difficulty == 0)[0]] - conf[np.flatnonzero(difficulty == 1)[0]]
        if 0.0 < gap < 1.0:
            margin = float(gap)
    config = TrainConfig(dar_weight=dar_weight, margin=margin, pair_cap=pair_cap, seed=seed)
    return model, X, y, difficulty, config


@settings(max_examples=300, deadline=None)
@given(dar_batches())
def test_dar_index_arrays_match_per_pair_oracle(case):
    model, X, y, difficulty, config = case
    for rng_seed in (None, [config.seed, 3, 7]):
        new_rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        old_rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        d, e = _resolve_pairs(difficulty, config, new_rng)
        old_pairs = oracle_pairs(difficulty, config, old_rng)
        assert list(zip(d.tolist(), e.tolist())) == old_pairs

    # the seeded pairs from the last draw, as training passes them
    pairs = (d, e) if config.dar_weight > 0 else None
    assert _batch_loss(model, X, y, config, pairs) == oracle_loss(model, X, y, config, old_pairs)
    loss, grads = _batch_loss_and_grads(model.architecture.kind, model.weights, X, y, config, pairs)
    old_loss, old_grads = oracle_loss_and_grads(model, X, y, config, old_pairs)
    assert loss == old_loss
    assert grads.keys() == old_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], old_grads[name]), name

    batch = [
        Instance(f"i{k}", X[k], int(y[k]), int(difficulty[k])) for k in range(len(y))
    ]
    at_kink = oracle_at_kink(model, X, config, oracle_pairs(difficulty, config, None))
    assert gradient_check(model, batch, config).kink_excluded == at_kink


# --- training: the array trainer against the per-model loop it replaced ----------


def oracle_train_with_log(dataset, architecture, config):
    """The one-model training loop, step for step, on the per-pair oracles."""
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
    epoch_losses = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            take = perm[start : start + config.batch_size]
            pairs = None
            if difficulty is not None:
                pair_rng = np.random.default_rng([config.seed, epoch, batch_index])
                pairs = oracle_pairs(difficulty[take], config, pair_rng)
            loss, grads = oracle_loss_and_grads(model, X[take], y[take], config, pairs)
            for name, grad in grads.items():
                weights[name] -= lr * grad
            total += loss * len(take)
        epoch_losses.append(total / n)
    return model, epoch_losses


@st.composite
def training_runs(draw):
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 5))
    num_classes = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["linear", "mlp"]))
    arch = Architecture(kind, draw(st.integers(1, 5)) if kind == "mlp" else None)
    config = TrainConfig(
        epochs=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([None, 0.05, 0.5, 2.0])),
        batch_size=draw(st.integers(1, n + 3)),
        dar_weight=draw(st.sampled_from([0.0, 0.3, 2.0])),
        margin=draw(st.floats(0.01, 0.99)),
        seed=draw(st.integers(0, 2**16)),
        pair_cap=draw(st.integers(1, 30)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 5.0])), size=(n, dim))
    instances = tuple(
        Instance(f"i{k}", X[k], int(rng.integers(0, num_classes)), int(rng.integers(0, 2)))
        for k in range(n)
    )
    return Dataset(instances, num_classes, dim), arch, config


@settings(max_examples=200, deadline=None)
@given(training_runs())
def test_train_with_log_matches_per_model_oracle(run):
    dataset, arch, config = run
    model, losses = train_with_log(dataset, arch, config)
    old_model, old_losses = oracle_train_with_log(dataset, arch, config)
    assert losses == old_losses
    assert model.weights.keys() == old_model.weights.keys()
    for name in model.weights:
        assert np.array_equal(model.weights[name], old_model.weights[name]), name


# --- serialization ----------------------------------------------------------------


def test_model_roundtrip_exact(tmp_path):
    ds = planted_hard_task(40, seed=7)
    config = TrainConfig(epochs=2, seed=1, dar_weight=0.25, margin=0.2)
    model = train(ds, Architecture("mlp", hidden_size=3), config)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.architecture == model.architecture
    assert back.train_config == model.train_config
    for name in model.weights:
        np.testing.assert_array_equal(back.weights[name], model.weights[name])
    X = ds.feature_matrix()
    np.testing.assert_array_equal(predict_batch(back, X), predict_batch(model, X))


def test_model_dict_roundtrip_via_json_text():
    model = fixed_linear_model()
    payload = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(payload)
    np.testing.assert_array_equal(back.weights["w"], model.weights["w"])


def test_model_load_rejects_bad_payloads(tmp_path):
    model = fixed_linear_model()
    payload = model_to_dict(model)

    missing = {k: v for k, v in payload.items() if k != "architecture"}
    with pytest.raises(ValidationError, match="malformed"):
        model_from_dict(missing)

    short = json.loads(json.dumps(payload))
    short["weights"]["w"]["data"] = [1.0, 2.0, 3.0]
    with pytest.raises(ValidationError, match="do not fill"):
        model_from_dict(short)

    renamed = json.loads(json.dumps(payload))
    renamed["weights"]["w_extra"] = renamed["weights"].pop("w")
    with pytest.raises(ValidationError):
        model_from_dict(renamed)

    # Non-finite weights used to load and fail only at the first forward pass.
    for value in (math.nan, math.inf):
        bad = json.loads(json.dumps(payload))
        bad["weights"]["b"]["data"][1] = value
        with pytest.raises(NumericError, match="weight 'b' holds non-finite values"):
            model_from_dict(bad)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(NumericError, match=f"^{re.escape(str(path))}: "):
            load_model(path)
