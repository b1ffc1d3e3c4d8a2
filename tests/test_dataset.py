import gc
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit import (
    Dataset,
    Instance,
    TraceTable,
    ValidationError,
    assign_folds,
    hash_featurize,
    load_dataset,
    planted_hard_task,
    save_dataset,
    scored_from_traces,
    tiered_task,
)
from cascadekit.dataset import InstanceColumns, _token_hash, fnv1a64
from cascadekit.errors import integer
from cascadekit.jsonio import decoder, iter_jsonl, number_list, typed
from test_batched import peak_traced_bytes

# Published FNV-1a 64 test vectors (empty input is the offset basis).
KNOWN_HASHES = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"foobar": 0x85944171F73967E8,
}


def make_dataset(n, num_classes=2, dim=3, seed=0, difficulty=None):
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        diff = None if difficulty is None else difficulty[i]
        instances.append(
            Instance(f"i{i}", rng.normal(size=dim), i % num_classes, diff)
        )
    return Dataset(tuple(instances), num_classes=num_classes, feature_dim=dim)


# --- hashing ---------------------------------------------------------------


def test_fnv1a64_known_vectors():
    for data, expect in KNOWN_HASHES.items():
        assert fnv1a64(data) == expect


def test_fnv1a64_stays_64_bit():
    h = fnv1a64(b"some longer input to force many multiplications")
    assert 0 <= h < 1 << 64


def test_hash_featurize_golden_buckets():
    # bucket = hash % dim, sign from bit 63 (+1 when clear)
    v = hash_featurize("good movie", 16)
    expect = np.zeros(16)
    expect[8] = -1.0 / math.sqrt(2.0)  # "good"
    expect[15] = 1.0 / math.sqrt(2.0)  # "movie"
    np.testing.assert_allclose(v, expect, rtol=0, atol=1e-15)


def test_hash_featurize_repeated_token_accumulates():
    v = hash_featurize("a a", 8)
    expect = np.zeros(8)
    expect[4] = -1.0  # two hits of -1, then L2-normalized
    np.testing.assert_allclose(v, expect, rtol=0, atol=0)


def test_hash_featurize_lowercases():
    np.testing.assert_array_equal(
        hash_featurize("Good MOVIE", 16), hash_featurize("good movie", 16)
    )


def test_hash_featurize_empty_text_is_zero():
    assert np.all(hash_featurize("", 12) == 0.0)
    assert np.all(hash_featurize("   \t ", 12) == 0.0)


def test_hash_featurize_rejects_bad_dim():
    with pytest.raises(ValidationError):
        hash_featurize("x", 0)


@given(st.text(max_size=40), st.integers(min_value=1, max_value=64))
def test_hash_featurize_norm_is_zero_or_one(text, dim):
    v = hash_featurize(text, dim)
    assert v.shape == (dim,)
    norm = np.linalg.norm(v)
    assert norm == 0.0 or abs(norm - 1.0) < 1e-12


def hash_featurize_oracle(text, dim):
    """Reference: FNV-1a byte by byte, one bucket update per token."""
    vec = np.zeros(dim)
    for token in text.lower().split():
        h = 0xCBF29CE484222325
        for byte in token.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        vec[h % dim] += 1.0 if h < (1 << 63) else -1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def assert_same_vector(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # also tells 0.0 from -0.0


# Tokens that repeat, differ only in case, or change length when lowercased
# ("İ" lowercases to two code points), and whitespace that str.split() honours.
TRICKY_WORDS = ["a", "A", "good", "GOOD", "Good", "İ", "ß", "ẞ", "Σσς", "ǅ", "ﬃ", "e\u0301", "日本"]
WHITESPACE = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\u00a0", "\u2003", "\u2028", "\u3000"]
documents = st.one_of(
    st.text(),
    st.lists(st.tuples(st.sampled_from(TRICKY_WORDS), st.sampled_from(WHITESPACE))).map(
        lambda parts: "".join(word + space for word, space in parts)
    ),
)


@settings(max_examples=300, deadline=None)
@given(documents, st.integers(min_value=1, max_value=512))
def test_hash_featurize_matches_per_byte_oracle(text, dim):
    want = hash_featurize_oracle(text, dim)
    _token_hash.cache_clear()
    assert_same_vector(hash_featurize(text, dim), want)  # cold memo
    assert_same_vector(hash_featurize(text, dim), want)  # warm memo
    assert_same_vector(hash_featurize(text, np.int64(dim)), want)


def test_load_text_rows_match_oracle(tmp_path):
    rng = np.random.default_rng(5)
    texts = ["", " \u3000 "] + [
        "".join(w + s for w, s in zip(rng.choice(TRICKY_WORDS, 30), rng.choice(WHITESPACE, 30)))
        for _ in range(60)
    ]
    path = tmp_path / "text.jsonl"
    path.write_text(
        "".join(json.dumps({"id": f"t{i}", "label": i % 2, "text": t}) + "\n" for i, t in enumerate(texts)),
        encoding="utf-8",
    )
    ds = load_dataset(path, format="jsonl_text", feature_dim=37)
    for inst, text in zip(ds.instances, texts, strict=True):
        assert_same_vector(inst.features, hash_featurize_oracle(text, 37))


@pytest.mark.parametrize("dim", [0, 2.5, True], ids=["zero", "float", "bool"])
def test_load_text_refuses_a_bad_feature_dim(tmp_path, dim):
    one = tmp_path / "one.jsonl"
    one.write_text(json.dumps({"id": "a", "label": 0, "text": "hello"}) + "\n", encoding="utf-8")
    message = f"{one}: line 1: dim must be an integer >= 1, got {dim}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_dataset(one, format="jsonl_text", feature_dim=dim)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(empty))}: empty dataset$"):
        load_dataset(empty, format="jsonl_text", feature_dim=dim)


# --- instance / dataset validation ----------------------------------------


def test_instance_rejects_matrix_features():
    with pytest.raises(ValidationError):
        Instance("x", np.zeros((2, 2)), 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_instance_rejects_non_finite_features(value):
    # Only load_dataset used to check, so the API built such instances.
    with pytest.raises(ValidationError, match="'x': features must be finite"):
        Instance("x", np.array([0.5, value]), 0)


def test_instance_rejects_negative_label():
    with pytest.raises(ValidationError):
        Instance("x", np.zeros(2), -1)


def test_instance_rejects_bad_difficulty():
    with pytest.raises(ValidationError):
        Instance("x", np.zeros(2), 0, difficulty=2)


def test_dataset_rejects_duplicate_ids():
    a = Instance("same", np.zeros(2), 0)
    b = Instance("same", np.ones(2), 1)
    with pytest.raises(ValidationError, match="duplicate"):
        Dataset((a, b), num_classes=2, feature_dim=2)


def test_a_duplicate_is_named_in_row_order_not_in_sorted_order(tmp_path):
    ids = ["z", "a", "z", "a"]  # sorted, the repeated "a" comes first
    columns = InstanceColumns(ids, np.zeros((4, 2)), [0] * 4, [-1] * 4)
    with pytest.raises(ValidationError, match=r"^duplicate instance id 'z'$"):
        Dataset(columns, num_classes=2, feature_dim=2)
    path = tmp_path / "d.jsonl"
    path.write_text("".join(json.dumps({"id": i, "label": 0, "features": [0.5]}) + "\n" for i in ids))
    with pytest.raises(ValidationError, match=r": duplicate instance id 'z'$"):
        load_dataset(path)


def test_dataset_rejects_dim_mismatch():
    a = Instance("a", np.zeros(2), 0)
    b = Instance("b", np.zeros(3), 1)
    with pytest.raises(ValidationError):
        Dataset((a, b), num_classes=2, feature_dim=2)


def test_dataset_rejects_label_out_of_range():
    a = Instance("a", np.zeros(2), 5)
    with pytest.raises(ValidationError):
        Dataset((a,), num_classes=2, feature_dim=2)


@pytest.mark.parametrize(
    "sizes, name, value",
    [((2.5, 2), "num_classes", 2.5), ((2, 2.0), "feature_dim", 2.0), ((True, 2), "num_classes", True),
     ((2, "2"), "feature_dim", "2")],
    ids=["classes", "dim", "bool", "string"],
)
def test_dataset_sizes_must_be_integers(sizes, name, value):
    num_classes, feature_dim = sizes
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 1, got {re.escape(repr(value))}$"):
        Dataset((Instance("a", np.zeros(2), 0),), num_classes=num_classes, feature_dim=feature_dim)
    sized = Dataset((), num_classes=np.int64(2), feature_dim=np.int32(2))
    assert (type(sized.num_classes), type(sized.feature_dim)) == (int, int)


def test_dataset_accessors():
    ds = make_dataset(6, num_classes=3, dim=4)
    assert len(ds) == 6
    assert ds.ids() == [f"i{k}" for k in range(6)]
    assert ds.feature_matrix().shape == (6, 4)
    np.testing.assert_array_equal(ds.label_array(), [0, 1, 2, 0, 1, 2])
    sub = ds.subset([4, 1])
    assert sub.ids() == ["i4", "i1"]
    assert sub.num_classes == 3


def test_difficulty_array_requires_all_labels():
    ds = make_dataset(4)
    with pytest.raises(ValidationError, match="lack difficulty"):
        ds.difficulty_array()
    labeled = ds.with_difficulty({i: 1 for i in ds.ids()})
    np.testing.assert_array_equal(labeled.difficulty_array(), [1, 1, 1, 1])


def test_with_difficulty_requires_full_map():
    ds = make_dataset(3)
    with pytest.raises(ValidationError, match="misses"):
        ds.with_difficulty({"i0": 0, "i1": 1})


@pytest.mark.parametrize("flag", [1.9, True, "1", 1.0], ids=["float", "bool", "string", "whole-float"])
def test_with_difficulty_keeps_the_integer_rule(flag):
    ds = make_dataset(2)
    message = rf"^instance 'i1': difficulty must be an integer in \[0, 1\], got {re.escape(repr(flag))}$"
    with pytest.raises(ValidationError, match=message):
        ds.with_difficulty({"i0": 0, "i1": flag})
    labeled = ds.with_difficulty({"i0": np.int64(0), "i1": np.int8(1)})
    assert [type(inst.difficulty) for inst in labeled.instances] == [int, int]
    np.testing.assert_array_equal(labeled.difficulty_array(), [0, 1])


# --- fold assignment --------------------------------------------------------


def test_assign_folds_is_a_partition():
    ds = make_dataset(23, num_classes=3)
    folds = assign_folds(ds, 5, seed=7)
    assert folds.num_folds == 5
    assert set(folds.fold_of) == set(ds.ids())
    assert set(folds.fold_of.values()) <= set(range(5))


def test_assign_folds_balanced_within_class():
    ds = make_dataset(40, num_classes=2)
    folds = assign_folds(ds, 8, seed=3)
    for label in (0, 1):
        ids = [i.id for i in ds.instances if i.label == label]
        counts = np.bincount([folds.fold_of[x] for x in ids], minlength=8)
        assert counts.max() - counts.min() <= 1


def test_assign_folds_deterministic_and_seed_sensitive():
    ds = make_dataset(30)
    a = assign_folds(ds, 6, seed=11)
    b = assign_folds(ds, 6, seed=11)
    c = assign_folds(ds, 6, seed=12)
    assert a.fold_of == b.fold_of
    assert a.fold_of != c.fold_of


def test_assign_folds_rejects_bad_counts():
    ds = make_dataset(5)
    with pytest.raises(ValidationError):
        assign_folds(ds, 1, seed=0)
    with pytest.raises(ValidationError):
        assign_folds(ds, 6, seed=0)


@settings(max_examples=40)
@given(
    n=st.integers(min_value=4, max_value=60),
    num_classes=st.integers(min_value=2, max_value=4),
    num_folds=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_assign_folds_properties(n, num_classes, num_folds, seed):
    ds = make_dataset(n, num_classes=num_classes)
    folds = assign_folds(ds, num_folds, seed=seed)
    # every instance in exactly one fold
    assert sorted(folds.fold_of) == sorted(ds.ids())
    # overall sizes differ by at most one per class, so at most
    # num_classes overall; with the carried round-robin counter the
    # global imbalance also stays within one
    sizes = np.bincount(list(folds.fold_of.values()), minlength=num_folds)
    assert sizes.max() - sizes.min() <= 1
    # stratified: per class the spread is at most one
    for label in range(num_classes):
        ids = [i.id for i in ds.instances if i.label == label]
        if not ids:
            continue
        counts = np.bincount([folds.fold_of[x] for x in ids], minlength=num_folds)
        assert counts.max() - counts.min() <= 1


# --- load / save ------------------------------------------------------------


def test_dataset_roundtrip_exact(tmp_path):
    ds = make_dataset(12, num_classes=3, dim=5, difficulty=[i % 2 for i in range(12)])
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.num_classes == 3
    assert back.feature_dim == 5
    assert back.ids() == ds.ids()
    np.testing.assert_array_equal(back.feature_matrix(), ds.feature_matrix())
    np.testing.assert_array_equal(back.difficulty_array(), ds.difficulty_array())


def test_save_is_deterministic(tmp_path):
    ds = make_dataset(8)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_text_format(tmp_path):
    path = tmp_path / "text.jsonl"
    rows = [
        {"id": "r1", "label": 0, "text": "good movie"},
        {"id": "r2", "label": 1, "text": "bad movie"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    ds = load_dataset(path, format="jsonl_text", feature_dim=16)
    np.testing.assert_allclose(
        ds.instances[0].features, hash_featurize("good movie", 16)
    )
    assert ds.feature_dim == 16


def test_load_text_format_requires_dim(tmp_path):
    path = tmp_path / "text.jsonl"
    path.write_text('{"id": "r1", "label": 0, "text": "x"}\n')
    with pytest.raises(ValidationError, match="feature_dim"):
        load_dataset(path, format="jsonl_text")


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "r1", "label": 0, "features": [1.0]}\n')
    with pytest.raises(ValidationError, match="format"):
        load_dataset(path, format="csv")


def test_load_reports_line_of_bad_json(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "r1", "label": 0, "features": [1.0]}\nnot json\n')
    with pytest.raises(ValidationError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_non_finite_features(tmp_path, literal):
    # Python's JSON parser accepts these literals, so the loader must check.
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "r1", "label": 0, "features": [1.0, 2.0]}\n'
        f'{{"id": "r2", "label": 1, "features": [0.5, {literal}]}}\n'
    )
    with pytest.raises(ValidationError, match=r"d\.jsonl: line 2: instance 'r2': features must be finite"):
        load_dataset(path)


@pytest.mark.parametrize(
    "features",
    [["x", 1.0], [[1, 2], [3]], {"a": 1}, ["1.5", 2.0], [True, 1.0]],
    ids=["string", "ragged", "object", "numeric-string", "boolean"],
)
def test_load_rejects_non_numeric_features(tmp_path, features):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "r1", "label": 0, "features": [1.0, 2.0]}\n'
        + json.dumps({"id": "r2", "label": 1, "features": features})
        + "\n"
    )
    with pytest.raises(
        ValidationError, match=r"d\.jsonl: line 2: malformed dataset record: features must be an array of numbers"
    ):
        load_dataset(path)


NON_STRING_IDS = pytest.mark.parametrize(
    "bad_id", [None, [], {}, float("nan"), True], ids=["null", "array", "object", "nan", "true"]
)


@NON_STRING_IDS
def test_load_rejects_non_string_id(tmp_path, bad_id):
    # str() used to load null as the id "None" and NaN as "nan".
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "r1", "label": 0, "features": [1.0]}\n'
        + json.dumps({"id": bad_id, "label": 1, "features": [2.0]})
        + "\n"
    )
    # The id column's rule reads it, as for a dataset built in Python.
    with pytest.raises(ValidationError, match=r"d\.jsonl: line 2: id must be a string, got "):
        load_dataset(path)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"id": "r1", "label": 0, "features": [1.0]}\n{"id": "\xff", "label": 0}\n')
    with pytest.raises(ValidationError, match=r"d\.jsonl: not UTF-8 text"):
        load_dataset(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "r1", "features": [1.0]}\n')
    with pytest.raises(ValidationError, match="label"):
        load_dataset(path)


def test_load_rejects_non_integer_label(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "r1", "label": true, "features": [1.0]}\n')
    with pytest.raises(ValidationError, match="integer"):
        load_dataset(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("\n\n")
    with pytest.raises(ValidationError, match="empty"):
        load_dataset(path)


def test_load_infers_and_checks_num_classes(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "r1", "label": 0, "features": [1.0]}\n'
        '{"id": "r2", "label": 3, "features": [2.0]}\n'
    )
    assert load_dataset(path).num_classes == 4
    with pytest.raises(ValidationError, match="out of range"):
        load_dataset(path, num_classes=2)


# --- columns against the per-record code they replaced -------------------------------------
#
# The oracles are the per-record loader (decode a record, build its
# Instance, then check the instances together) and the per-instance
# Dataset checks.  Every columnar path must accept what they accept, with
# the same columns bit for bit, and refuse what they refuse, with the same
# message.


def oracle_dataset(instances, num_classes, feature_dim):
    """The per-instance Dataset checks: the sizes, then each instance's id,
    width and label in order."""
    num_classes = integer(num_classes, "num_classes", low=1)
    feature_dim = integer(feature_dim, "feature_dim", low=1)
    seen = set()
    for inst in instances:
        if inst.id in seen:
            raise ValidationError(f"duplicate instance id {inst.id!r}")
        seen.add(inst.id)
        if inst.features.shape[0] != feature_dim:
            raise ValidationError(
                f"instance {inst.id!r}: expected {feature_dim} features, got {inst.features.shape[0]}"
            )
        if inst.label >= num_classes:
            raise ValidationError(
                f"instance {inst.id!r}: label {inst.label} out of range for {num_classes} classes"
            )
    return tuple(instances), num_classes, feature_dim


def oracle_load(path, format="jsonl_features", *, feature_dim=None, num_classes=None):
    """The per-record loader: decode each record, build its Instance, then
    check the instances as a Dataset."""

    @decoder("dataset record")
    def decode(record):
        if not isinstance(record, dict):
            raise ValidationError("record must be a JSON object")
        if format == "jsonl_text":
            features = hash_featurize(record["text"], feature_dim)
        else:
            features = np.array(number_list(record["features"], "features"))
            if not features.size:
                raise ValidationError("'features' is empty")
        inst_id, label = record["id"], typed(record["label"], int, "label")  # Instance reads the id
        difficulty = typed(record.get("difficulty"), int | None, "difficulty")
        return Instance(inst_id, features, label, difficulty)

    instances = []
    for line_no, record in iter_jsonl(path):
        try:
            instances.append(decode(record))
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {line_no}: {exc}") from None
    if not instances:
        raise ValidationError(f"{path}: empty dataset")
    if num_classes is None:
        num_classes = max(inst.label for inst in instances) + 1
    if feature_dim is None:
        feature_dim = instances[0].features.shape[0]
    try:
        return oracle_dataset(instances, num_classes, feature_dim)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def assert_same(got, want):
    """A Dataset against the oracle's (instances, num_classes, feature_dim),
    or the same refusal."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    instances, num_classes, feature_dim = want
    assert (got.num_classes, got.feature_dim) == (num_classes, feature_dim)
    assert got.ids() == [inst.id for inst in instances]
    assert got.label_array().tolist() == [inst.label for inst in instances]
    assert [inst.difficulty for inst in got.instances] == [inst.difficulty for inst in instances]
    want_matrix = np.array([inst.features for inst in instances]).reshape(len(instances), feature_dim)
    assert got.feature_matrix().shape == want_matrix.shape
    assert got.feature_matrix().tobytes() == want_matrix.tobytes()
    for row, inst in zip(got.instances, instances, strict=True):
        assert (row.id, row.label, row.difficulty) == (inst.id, inst.label, inst.difficulty)
        assert row.features.tobytes() == inst.features.tobytes()


FEATURE_VALUES = [math.nan, math.inf, -math.inf, 2**1100, 2**60 + 1, -0.0, 1e-310, "x", True, None, [1.0]]
# Labels and flags stay within 64 bits: beyond them the columns refuse a
# record as malformed, where the per-record loader took a huge label.
FIELD_VALUES = ["x", [], {}, None, math.nan, True, 1, 0, -1, 2, 2.5, "1", 2**40]
FIELDS = ["id", "label", "features", "text", "difficulty"]


def _record(rng, k, dim, text, flagged):
    record = {"id": f"r{k}", "label": int(rng.integers(0, 3))}
    if text:
        words = rng.choice(["good", "bad", "Movie", "ok", "\u3000"], size=int(rng.integers(0, 6)))
        record["text"] = " ".join(words)
    else:
        record["features"] = rng.normal(size=dim).tolist()
    if flagged:
        record["difficulty"] = int(rng.integers(0, 2))
    return record


def _edit_record(records, record, rng, data):
    """One edit of one field; an edit that no longer applies does nothing."""
    kind = data.draw(st.sampled_from(["replace", "drop", "feature", "width", "label", "flag", "id"]))
    try:
        if kind == "replace":
            record[data.draw(st.sampled_from(FIELDS))] = data.draw(st.sampled_from(FIELD_VALUES))
        elif kind == "drop":
            del record[data.draw(st.sampled_from(FIELDS))]
        elif kind == "feature":
            features = record["features"]
            features[int(rng.integers(len(features)))] = data.draw(st.sampled_from(FEATURE_VALUES))
        elif kind == "width":
            features = record["features"]
            record["features"] = features + [0.5] if data.draw(st.booleans()) else features[:-1]
        elif kind == "label":
            record["label"] = data.draw(st.sampled_from([-1, -2, 3, 7]))
        elif kind == "flag":
            record["difficulty"] = data.draw(st.sampled_from([-1, 2, None, 1.0]))
        else:
            record["id"] = records[int(rng.integers(len(records)))]["id"]
    except (TypeError, KeyError, IndexError, ValueError):
        pass


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_columns_load_what_per_record_loading_loads(seed, data, tmp_path_factory):
    rng = np.random.default_rng(seed)
    text = data.draw(st.booleans(), label="text")
    dim = data.draw(st.integers(1, 4), label="dim")
    flagged = data.draw(st.sampled_from([True, False, None]), label="flags")
    records = [
        _record(rng, k, dim, text, flagged if flagged is not None else bool(rng.integers(0, 2)))
        for k in range(data.draw(st.integers(1, 6)))
    ]
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        _edit_record(records, records[int(rng.integers(len(records)))], rng, data)
    lines = [json.dumps(r) for r in records]
    if data.draw(st.booleans(), label="odd line"):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "{broken", "[1, 2]", "null", "\ufeff"])))
    path = tmp_path_factory.mktemp("load") / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    options = {
        "format": "jsonl_text" if text else "jsonl_features",
        "feature_dim": data.draw(st.sampled_from([8, 3] if text else [None, dim, dim + 1, 0]), label="dim option"),
        "num_classes": data.draw(st.sampled_from([None, 2, 3, 8]), label="classes"),
    }
    assert_same(outcome(load_dataset, path, **options), outcome(oracle_load, path, **options))


def _instances(rng, data, n, dim):
    instances = []
    for k in range(n):
        width = dim if data.draw(st.integers(0, 5)) else dim + 1
        inst_id = f"i{k}" if data.draw(st.integers(0, 5)) else f"i{int(rng.integers(0, n))}"
        flag = data.draw(st.sampled_from([None, 0, 1]))
        instances.append(Instance(inst_id, rng.normal(size=width), int(rng.integers(0, 4)), flag))
    return instances


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_columns_build_and_slice_what_per_instance_datasets_do(seed, data):
    rng = np.random.default_rng(seed)
    dim = data.draw(st.integers(1, 3), label="dim")
    instances = _instances(rng, data, data.draw(st.integers(0, 6), label="n"), dim)
    num_classes = data.draw(st.sampled_from([2, 4]), label="classes")
    built = outcome(Dataset, instances, num_classes, dim)
    assert_same(built, outcome(oracle_dataset, instances, num_classes, dim))
    if isinstance(built, str):
        return
    positions = st.integers(-len(instances), len(instances) - 1)
    indices = data.draw(st.lists(positions, max_size=6)) if instances else []
    assert_same(
        outcome(built.subset, indices),
        outcome(oracle_dataset, [instances[i] for i in indices], num_classes, dim),
    )
    values = st.sampled_from([0, 1, np.int64(1), None, 2, True, 1.0, -1])
    flags = {inst.id: data.draw(values) for inst in instances}
    for inst_id in data.draw(st.lists(st.sampled_from(built.ids()), max_size=2)) if instances else []:
        flags.pop(inst_id, None)  # a partial map

    def oracle_with_difficulty():  # row by row: an id the map lacks, or its flag, in row order
        merged = []
        for inst in instances:
            if inst.id not in flags:
                raise ValidationError(f"difficulty map misses id {inst.id!r}")
            merged.append(Instance(inst.id, inst.features, inst.label, flags[inst.id]))
        return oracle_dataset(merged, num_classes, dim)

    assert_same(outcome(built.with_difficulty, flags), outcome(oracle_with_difficulty))


def test_columns_are_read_only_and_rows_are_views():
    ds = make_dataset(5, num_classes=3, dim=4, difficulty=[0, 1, 0, 1, 1])
    for columnar in (ds, ds.subset([3, 1]), ds.with_difficulty({i: 0 for i in ds.ids()})):
        rows = list(columnar.instances)
        for array, stacked in (
            (columnar.feature_matrix(), np.stack([inst.features for inst in rows])),
            (columnar.label_array(), np.array([inst.label for inst in rows])),
            (columnar.difficulty_array(), np.array([inst.difficulty for inst in rows])),
        ):
            assert not array.flags.writeable
            assert array.dtype == stacked.dtype and np.array_equal(array, stacked)
        with pytest.raises(ValueError):
            columnar.feature_matrix()[0, 0] = 1.0
        with pytest.raises(ValueError):
            rows[0].features[0] = 1.0
        assert rows[0].features.base is not None  # a view of the matrix, not a copy
    # Rows are built on demand and not kept.
    assert ds.instances[0] is not ds.instances[0]
    assert [inst.id for inst in ds.instances[1:4:2]] == ["i1", "i3"]
    assert ds.instances[-1].id == "i4"
    with pytest.raises(IndexError):
        ds.instances[5]
    # A trace table and a scored table hold read-only columns too; rows and slices are views.
    probs = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    traces = TraceTable(("i0", "i1", "i2"), np.array([0, 1, 0]), probs, ((2,), (2, 12), (2,)), (2, 14, 2))
    for table in (traces, traces[1:]):
        for array in (table.exit_stage, table.probs):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            table.probs[0, 0] = 1.0
        assert table[0].distribution.probs.base is not None and not table[0].distribution.probs.flags.writeable
    assert traces[1:].probs.base is not None and traces[1:].exit_stage.base is not None  # views, not copies
    scored = scored_from_traces(traces, make_dataset(3), {"i0": 0, "i1": 1, "i2": None})
    for table in (scored, scored[1:]):
        for array in (table.confidence, table.predicted_label, table.gold_label, table.difficulty):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            table.confidence[0] = 1.0
    assert scored[1:].confidence.base is not None


@pytest.mark.parametrize(
    "build",
    [
        lambda path: load_dataset(path),
        lambda path: load_dataset(path, format="jsonl_text", feature_dim=4),
        lambda path: tiered_task(20, seed=1),
        lambda path: planted_hard_task(20, seed=1),
        lambda path: make_dataset(6).subset([4, 1]),
        lambda path: make_dataset(6).with_difficulty({f"i{k}": 1 for k in range(6)}),
    ],
    ids=["load", "load-text", "tiered", "planted", "subset", "with-difficulty"],
)
def test_a_dataset_holds_columns_not_instances(tmp_path, build):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "a", "label": 0, "features": [1.0, 2.0, 0.5, 0.0], "text": "good"}\n')
    ds = build(path)
    columns = ds.instances
    assert type(columns) is InstanceColumns
    held = gc.get_referents(ds) + gc.get_referents(columns) + gc.get_referents(columns.ids)
    assert not [x for x in held if isinstance(x, Instance)]
    assert all(type(x) is str for x in gc.get_referents(columns.ids))


@pytest.mark.parametrize("positions", [[], [1, 3], [0, 1, 2, 3, 4]], ids=["none", "some", "every"])
def test_rows_at_positions_are_the_indexed_rows_over_the_matrix(positions):
    columns = make_dataset(5, difficulty=[0, 1, None, 1, 0]).instances
    rows = list(columns.at(np.array(positions, dtype=np.int64)))

    def fields(row):
        return row.id, row.features.tolist(), row.label, row.difficulty

    assert list(map(fields, rows)) == [fields(columns[k]) for k in positions]
    assert all(np.shares_memory(row.features, columns.features) for row in rows)  # views, not a copy


@pytest.mark.parametrize(
    "widths, faults, feature_dim",
    [
        ([2, 3, 2], {}, None),
        ([2, 3, 2], {}, 3),
        ([3, 2, 2], {}, 2),
        ([2, 2, 3], {"dup": 1}, None),
        ([2, 3, 2], {"dup": 2}, None),
        ([2, 3, 2], {"label": 0}, 2),
        ([2, 3, 2], {"nan": 1}, None),
        ([2, 3, 2], {"nan": 2, "flag": 1}, None),
        ([2, 1, 3], {"negative": 2}, None),
    ],
)
def test_a_width_unlike_the_first_records_is_named_as_per_record_loading_names_it(
    tmp_path, widths, faults, feature_dim
):
    lines = []
    for k, width in enumerate(widths):
        record = {"id": f"r{k}", "label": 1, "features": [0.5] * width, "difficulty": 0}
        if faults.get("dup") == k:
            record["id"] = "r0"
        if faults.get("label") == k:
            record["label"] = 5
        if faults.get("negative") == k:
            record["label"] = -1
        if faults.get("nan") == k:
            record["features"][-1] = math.nan
        if faults.get("flag") == k:
            record["difficulty"] = 3
        lines.append(json.dumps(record))
    path = tmp_path / "d.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    options = {"feature_dim": feature_dim, "num_classes": 2}
    want = outcome(oracle_load, path, **options)
    assert isinstance(want, str)
    assert outcome(load_dataset, path, **options) == want


# --- a dataset is its rows: one instance rule -------------------------------------------


def _no_flag(value):
    """Whether ``value`` is the difficulty column's integer for no flag."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value == -1


@st.composite
def instance_columns(draw):
    """Columns of 1-5 rows whose values mix Python and numpy numbers,
    strings, bools and None.  A row is right in every field unless it
    draws faults (one row in four, one or two faults); a fault-free column
    may come as an ndarray."""
    width = draw(st.integers(1, 3))
    ids, features, labels, flags, seen = [], [], [], [], set()
    for k in range(draw(st.integers(1, 5))):
        faults = set()
        if draw(st.integers(0, 3)) == 0:
            faults = draw(st.sets(st.sampled_from(["id", "feature", "label", "flag"]), min_size=1, max_size=2))
        ids.append(draw(st.sampled_from([k, None, b"r"] if "id" in faults else [f"r{k}", np.str_(f"r{k}")])))
        row = [draw(st.sampled_from([0.5, 1, np.float32(2.0), np.int64(3), -0.0])) for _ in range(width)]
        if "feature" in faults:
            wrong = ["1.5", True, None, math.nan, math.inf, 2**1100, np.bool_(True), 1 + 0j]
            row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(wrong))
        features.append(row)
        right_labels, wrong_labels = [0, 1, np.int64(1), np.int32(0)], [-1, 1.5, True, "1", np.float64(1.0)]
        labels.append(draw(st.sampled_from(wrong_labels if "label" in faults else right_labels)))
        right_flags, wrong_flags = [0, 1, -1, np.int64(-1), np.int8(1)], [2, True, 1.0, -1.0, "0", np.bool_(False)]
        flags.append(draw(st.sampled_from(wrong_flags if "flag" in faults else right_flags)))
        seen |= faults
    columns = [ids, features, labels, flags]
    for at, (fault, dtype) in enumerate([("feature", np.float64), ("label", np.int64), ("flag", np.int64)], 1):
        if fault not in seen and draw(st.booleans()):
            columns[at] = np.array(columns[at], dtype=dtype)
    return columns


@settings(max_examples=400, deadline=None)
@given(columns=instance_columns())
def test_a_dataset_builds_exactly_when_each_row_builds_alone(columns):
    ids, features, labels, flags = columns

    def alone(k):
        return outcome(Instance, ids[k], features[k], labels[k], None if _no_flag(flags[k]) else flags[k])

    rows = [alone(k) for k in range(len(ids))]
    width = len(features[0])
    built = outcome(Dataset, InstanceColumns(ids, features, labels, flags), 2, width)
    faulty = [row for row in rows if isinstance(row, str)]
    if faulty:
        assert built == faulty[0]  # a Dataset names the row as the Instance does
        return
    assert_same(built, (rows, 2, width))


# --- the memory a build holds beyond its columns -------------------------------------------

ROWS = 20_000


def held_bytes(dataset) -> int:
    """The bytes of a dataset's columns: its arrays and its id tuple with its strings."""
    columns = dataset.instances
    arrays = columns.features.nbytes + columns.labels.nbytes + columns.difficulty.nbytes
    return arrays + sys.getsizeof(columns.ids) + sum(map(sys.getsizeof, columns.ids))


def test_building_from_columns_holds_under_a_megabyte_beyond_them():
    ids = tuple(f"i{k}" for k in range(ROWS))
    arrays = [np.zeros((ROWS, 2)), np.arange(ROWS) % 2, np.full(ROWS, -1)]
    for array in arrays:
        array.flags.writeable = False  # so the dataset holds them uncopied
    columns = InstanceColumns(ids, *arrays)
    assert peak_traced_bytes(lambda: Dataset(columns, 2, 2)) < 1_000_000


def test_loading_holds_under_a_megabyte_beyond_the_columns_loaded(tmp_path):
    path = tmp_path / "d.jsonl"
    records = ({"id": f"i{k}", "label": k % 2, "features": [0.5, -1.0]} for k in range(ROWS))
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    loaded = []
    peak = peak_traced_bytes(lambda: loaded.append(load_dataset(path)))
    assert len(loaded[0]) == ROWS
    assert peak - held_bytes(loaded[0]) < 1_000_000


def test_equal_columns_make_equal_datasets(tmp_path):
    # Dataset equality used to compare the InstanceColumns objects by
    # identity, so a dataset never equalled its own save/load round trip.
    original = tiered_task(50, 0)
    save_dataset(original, tmp_path / "d.jsonl")
    loaded = load_dataset(tmp_path / "d.jsonl")
    assert loaded == original and load_dataset(tmp_path / "d.jsonl") == loaded
    columns = original.instances
    labels = columns.labels.copy()
    labels[7] = 1 - labels[7]
    relabeled = Dataset(InstanceColumns(columns.ids, columns.features, labels, columns.difficulty), 2, 2)
    assert relabeled != original and relabeled == relabeled.subset(range(50))
    assert original != tiered_task(50, 0, id_prefix="other")
