"""How a checked object holds the arrays it is given.

``errors.frozen`` is the one rule: a checked table or row holds read-only
arrays that no write made after the check can reach.  A read-only array
over a buffer that cannot be written (``bytes`` or a read-only
``memoryview``) is kept as it is; anything else is copied once, a
read-only array that owns its data too, since its owner can make it
writable again.  So a caller's array stays as the caller left it, and
writing to it changes nothing the object holds.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit import ClassDistribution, Dataset, ExitTrace, Instance, ScoredTable, TraceTable, evaluate
from cascadekit.dataset import InstanceColumns
from cascadekit.errors import frozen, unchecked

FORMS = ("C order", "F order", "strided view", "read-only view", "read-only owner")


def _caller(data, values: np.ndarray):
    """``values`` as an array a caller passes in, in a drawn form, and the
    arrays the caller keeps behind it, each with whether it was writable."""
    form = data.draw(st.sampled_from(FORMS), label="form")
    if form == "strided view":
        buffer = np.zeros((2 * len(values), *values.shape[1:]), values.dtype)
        view = buffer[::2]
        view[...] = values
        return view, [(buffer, True)]
    array = np.array(values, order="F" if form == "F order" else "C")
    if form == "read-only view":
        view = array.view()
        view.flags.writeable = False
        return view, [(array, True)]
    array.flags.writeable = form != "read-only owner"
    return array, [(array, array.flags.writeable)]


def _floats(data, shape, low, high) -> np.ndarray:
    size = int(np.prod(shape))
    values = st.lists(st.floats(low, high, allow_nan=False), min_size=size, max_size=size)
    return np.array(data.draw(values)).reshape(shape)


def _ints(data, n, low, high) -> np.ndarray:  # -1 in a difficulty column: no flag
    return np.array(data.draw(st.lists(st.integers(low, high), min_size=n, max_size=n)), dtype=np.int64)


def _probs(data, rows, classes) -> np.ndarray:
    weights = _floats(data, (rows, classes), 0.1, 10.0)
    return weights / weights.sum(axis=1, keepdims=True)


def _columns(data, *values):
    """Each of ``values`` as a caller's array, and every array the caller keeps."""
    columns = [_caller(data, column) for column in values]
    return [array for array, _ in columns], [kept for _, arrays in columns for kept in arrays]


def _ids(n):
    return tuple(f"i{k}" for k in range(n))


def _trace_table(data, n):
    stages = _ints(data, n, 0, 2)
    (exit_stage, probs), kept = _columns(data, stages, _probs(data, n, data.draw(st.integers(1, 3))))
    costs = tuple(tuple(range(1, k + 2)) for k in stages.tolist())
    return TraceTable(_ids(n), exit_stage, probs, costs, tuple(map(sum, costs))), kept


def _dataset(data, n):
    dim = data.draw(st.integers(1, 3))
    features = _floats(data, (n, dim), -10.0, 10.0)
    columns, kept = _columns(data, features, _ints(data, n, 0, 2), _ints(data, n, -1, 1))
    return Dataset(InstanceColumns(_ids(n), *columns), 3, dim), kept


def _scored_table(data, n):
    confidence, flags = _floats(data, (n,), 0.0, 1.0), _ints(data, n, -1, 1)
    columns, kept = _columns(data, confidence, _ints(data, n, 0, 2), _ints(data, n, 0, 2), flags)
    return ScoredTable(*columns), kept


def _instance(data, n):
    features, kept = _caller(data, _floats(data, (n,), -10.0, 10.0))
    label, flag = data.draw(st.integers(0, 2)), data.draw(st.sampled_from((None, 0, 1)))
    return Instance("a", features, label, flag), kept


def _distribution(data, n):
    probs, kept = _caller(data, _probs(data, 1, n)[0])
    return ClassDistribution(probs), kept


def _exit_trace(data, n):
    probs, kept = _caller(data, _probs(data, 1, n)[0])
    # predict builds its distribution unchecked, over an array of its own.
    checked = data.draw(st.booleans())
    distribution = ClassDistribution(probs) if checked else unchecked(ClassDistribution, probs=probs)
    confidence = float(distribution.probs.max())
    return ExitTrace("a", 1, distribution, confidence, (2, 12), 14), kept


BUILDERS = {
    "TraceTable": _trace_table,
    "Dataset": _dataset,
    "ScoredTable": _scored_table,
    "Instance": _instance,
    "ClassDistribution": _distribution,
    "ExitTrace": _exit_trace,
}


def _state(value):
    """A plain copy of everything ``value`` holds, to compare with later."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tolist()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_state(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return value


def _arrays(value):
    """Every ndarray ``value`` holds, through nested dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_a_checked_object_owns_its_arrays(build, data, n):
    built, kept = build(data, n)
    snapshot = _state(built)
    assert all(array.flags.writeable == writable for array, writable in kept)  # as the caller left them
    for array, _ in kept:
        array.flags.writeable = True  # the caller's own, read-only or not
        array[...] = 7
    assert _state(built) == snapshot
    held = list(_arrays(built))
    assert held and all(not array.flags.writeable and frozen(array) is array for array in held)


def test_frozen_keeps_a_read_only_array_with_nothing_writable_behind_it():
    buffer = np.frombuffer(bytes(32))
    for array in (buffer, buffer[1:], buffer.reshape(2, 2), np.frombuffer(memoryview(bytes(16)))):
        assert frozen(array) is array
    assert frozen(buffer, np.float64) is buffer


def test_frozen_copies_anything_else_once():
    writable = np.arange(6.0)
    read_only_view = writable.view()
    read_only_view.flags.writeable = False
    owner = np.arange(6.0)  # read-only, but its owner can make it writable again
    owner.flags.writeable = False
    cases = (writable, writable[::2], read_only_view, read_only_view[1:], owner, owner[1:], owner.reshape(2, 3))
    for values in (*cases, [0.0, 1.0], (1, 2)):
        held = frozen(values)
        assert held is not values and not held.flags.writeable and frozen(held) is held
        np.testing.assert_array_equal(held, values)
        before = held.copy()
        writable[...] = -1.0
        owner.flags.writeable = True
        owner[...] = -1.0
        owner.flags.writeable = False
        np.testing.assert_array_equal(held, before)
        with pytest.raises(ValueError):
            held.flags.writeable = True
    assert writable.flags.writeable  # the caller's array is left as it was
    converted = frozen(read_only_view, np.int64)
    assert converted.dtype == np.int64 and not converted.flags.writeable


def test_a_read_only_owner_cannot_reach_a_distribution():
    p = np.array([0.5, 0.5])
    p.flags.writeable = False
    d = ClassDistribution(p)
    p.flags.writeable = True
    p[0] = 7.0
    np.testing.assert_array_equal(d.probs, [0.5, 0.5])


def test_a_table_cannot_be_made_writable_again():
    ids = ("a", "b")
    table = TraceTable(ids, np.array([0, 1]), np.array([[0.6, 0.4], [0.3, 0.7]]), ((2,), (2, 10)), (2, 12))
    dataset = Dataset(InstanceColumns(ids, np.ones((2, 1)), np.array([0, 1]), np.array([-1, -1])), 2, 1)
    before = evaluate(table, dataset, 12)
    for array in (table.probs, table.probs[0], table.exit_stage):
        with pytest.raises(ValueError):
            array.flags.writeable = True
    assert evaluate(table, dataset, 12) == before
