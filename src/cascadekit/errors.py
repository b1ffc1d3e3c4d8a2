"""Exception types shared across the package, and the value rule of its Python API: what
counts as an integer, a real number, a string or a boolean, how it is stored, and how a
wrong one is reported; and how a checked object holds an array (:func:`frozen`)."""

import bisect
import contextlib
import itertools
import numbers
import re
import reprlib
from collections.abc import Mapping, Sequence

import numpy as np


class ValidationError(ValueError):
    """Bad inputs, malformed files, or violated preconditions (CLI exit code 1)."""


class NumericError(ArithmeticError):
    """Non-finite values encountered during training or evaluation (CLI exit code 2)."""


def _refuse(name: str, expected: str, value) -> ValidationError:
    return ValidationError(f"{name} must be {expected}, got {reprlib.repr(value)}")


def integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an ``int``: a Python or numpy integer, never a bool, and
    at least ``low`` (and at most ``high``) where given."""
    if type(value) is not int and isinstance(value, (int, np.integer)) and type(value) is not bool:
        value = int(value)
    if type(value) is int and (low is None or value >= low) and (high is None or value <= high):
        return value
    bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
    raise _refuse(name, f"an integer{bounds}", value)


def column(values, rule, name: str, *bounds, missing=None) -> tuple[Sequence, str | None]:
    """The column form of :func:`integer` (with its bounds), :func:`real`,
    :func:`string` or :func:`boolean`: ``values`` read one by one by ``rule`` up to the
    first it refuses, and that refusal, worded as ``rule`` words it (None
    when every value was read).  A value ``rule`` reads as ``missing`` (when
    given) stands for no value and is kept, whatever the bounds.

    A column whose values the rule stores as they are is returned as it is,
    after one look at its dtype (an ndarray) or at the set of its values'
    types (a set of the values would hide ``True`` behind ``1``), and one
    at its bounds (for :func:`string`, at the code points of all its
    strings).  An ndarray of another dtype is read by the Python values of
    its entries, flattened in row-major order.
    """
    array = isinstance(values, np.ndarray)
    if (values.dtype.kind in _KINDS[rule] if array else set(map(type, values)) <= _STORED[rule]):
        if rule is string:
            stored = _encodable("".join(values))
        else:
            stored = not bounds or _within(values, *bounds, missing=missing)
        if stored:
            return values, None
    read = []
    for value in values.ravel().tolist() if array else values:
        try:
            with contextlib.suppress(ValidationError):
                if missing is not None and rule(value, name) == missing:
                    read.append(missing)
                    continue
            read.append(rule(value, name, *bounds))
        except ValidationError as exc:
            return read, str(exc)
    return read, None


def column_rows(rows, rule, name: str, not_sequence: str, *bounds) -> tuple[tuple[tuple, ...], str | None]:
    """The column form of ``rule`` (with its bounds) for rows of values: ``rows`` as tuples of
    the values ``rule`` stores, read in one :func:`column` look at every entry of every row, up
    to the first row that is not a sequence (a string or a mapping is not one either; refused
    as ``<name> must be <not_sequence>, got <row>``) or holds a refused entry, and that refusal
    (None for none).  When every entry is stored as it is, each row is returned as
    ``tuple(row)``: a tuple itself."""
    # A string or a mapping iterates as its characters or its keys: one look at the set of the
    # rows' types finds one, and only then is each row looked at.
    odd_rows = any(issubclass(kind, (str, Mapping)) for kind in set(map(type, rows)))
    as_row = _sequence_row if odd_rows else tuple
    read, wrong_row = [], None
    for row in rows:
        try:
            read.append(as_row(row))
        except TypeError:
            wrong_row = str(_refuse(name, not_sequence, row))
            break
    entries = list(itertools.chain.from_iterable(read))
    values, refusal = column(entries, rule, name, *bounds)
    if values is not entries:  # read value by value: rebuild the rows whole before any refusal
        whole = bisect.bisect_right(list(itertools.accumulate(map(len, read))), len(values))
        values = iter(values)
        read = [tuple(itertools.islice(values, len(row))) for row in read[:whole]]
    return tuple(read), refusal or wrong_row


def _sequence_row(row) -> tuple:
    """``tuple(row)``, or TypeError for a string or a mapping, as for a row that is no sequence."""
    if isinstance(row, (str, Mapping)):
        raise TypeError
    return tuple(row)


def int64_column(values, name: str, *bounds) -> tuple[Sequence, str | None]:
    """:func:`column` of :func:`integer` that also refuses a value beyond int64."""
    read, refusal = column(values, integer, name, *bounds)
    if len(read) and np.asarray(read).dtype.kind != "i":  # uint64 or object: a value beyond int64
        row = next(k for k, value in enumerate(read) if not -(2**63) <= value < 2**63)
        return read[:row], str(_refuse(name, "an integer within int64", read[row]))
    return read, refusal


def _flat_vector(values) -> bool:
    """Whether ``values`` is a 1-D array or a sequence of scalars."""
    try:
        return np.ndim(values) == 1
    except ValueError:  # a ragged nesting
        return False


def real_matrix(rows, name: str, not_matrix: str) -> tuple[np.ndarray, int | None, str | None]:
    """``rows`` read by :func:`real` in :func:`column` form: the float64
    matrix (C order) of the rows read whole, and the first refused row and
    refusal (None, None for none).  An ndarray is read by one look at its
    dtype, and so are lists of Python floats of one width (a JSON file's) by
    one look at the set of the rows' types and at their entries', cast frozen;
    any other sequence is read row by row, refusing a row that is not a flat
    vector.  Either must be a matrix, else ``ValidationError(not_matrix)``."""
    nested = None
    if isinstance(rows, Sequence):
        entries = itertools.chain.from_iterable(rows)
        if rows and set(map(type, rows)) <= {list} and set(map(type, entries)) <= {float}:
            with contextlib.suppress(ValueError):  # rows of two widths, refused below
                return frozen(np.array(rows, dtype=np.float64)), None, None
        flat = list(itertools.takewhile(_flat_vector, rows))
        nested = None if len(flat) == len(rows) else f"{name} must be a flat vector"
        rows = np.array(flat, dtype=object) if flat else np.empty((0, 0))  # keeps each value's type
    if np.ndim(rows) != 2:
        raise ValidationError(not_matrix)
    values, refusal = column(rows, real, name)  # an ndarray of a kept dtype is not flattened
    whole = len(rows)  # the rows read whole
    if not isinstance(values, np.ndarray):  # read value by value, in row-major order
        width = rows.shape[1]
        whole = len(values) // width if width else whole
        rows = np.reshape(values[: whole * width], (whole, width))
    refusal = refusal or nested
    # C order: a strided row can change the bits of a model's product.
    return np.asarray(rows, dtype=np.float64, order="C"), None if refusal is None else whole, refusal


def _within(values, low, high=None, missing=None) -> bool:
    """Whether every value but ``missing`` lies within the bounds: an ndarray by its own
    ``min`` and ``max``, a sequence of ints by the builtin ones, so with no int64 copy."""
    if isinstance(values, np.ndarray):
        values = values if missing is None else values[values != missing]
        return not values.size or bool(values.min() >= low and (high is None or values.max() <= high))
    values = values if missing is None else [value for value in values if value != missing]
    return min(values, default=low) >= low and (high is None or max(values, default=high) <= high)


def first_fault(where, faults) -> None:
    """Raise ``ValidationError(where(row) + reason)`` for the first faulty
    row and, of its faults, the first in ``faults``: ``(rows, reason)``
    pairs in check order, where ``rows`` is a boolean mask of the faulty
    rows, or the first of them (None for none), and ``reason`` a string or
    a function of the row."""
    rows = [(m.argmax() if m.any() else None) if isinstance(m, np.ndarray) else m for m, _ in faults]
    found = [(row, order) for order, row in enumerate(rows) if row is not None]
    if found:
        row, order = min(found)
        reason = faults[order][1]
        raise ValidationError(where(row) + (reason(row) if callable(reason) else reason))


def unchecked(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields`` (every one, by name), made without running
    ``__post_init__``: a row of a table that ran the same checks, or a table a loader checked."""
    row = object.__new__(cls)
    row.__dict__.update(fields)
    return row


def frozen(values, dtype=None) -> np.ndarray:
    """``values`` as a checked object holds them, an ndarray (of ``dtype``, where given) that no
    later write can reach: as it is if it is read-only over read-only ndarrays (its ``base`` chain)
    down to ``bytes`` or a read-only ``memoryview``, else copied once, or read, into new ``bytes``."""
    end = values
    while isinstance(end, np.ndarray) and not end.flags.writeable:
        end = end.base
    if (type(end) is bytes or isinstance(end, memoryview) and end.readonly) and dtype in (None, values.dtype):
        return values
    array = np.asarray(values, dtype=dtype)
    return np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)


def refused_at(read: Sequence, refusal: str | None) -> int | None:
    """The row of a :func:`column` refusal, or None."""
    return None if refusal is None else len(read)


def real(value, name: str) -> float:
    """``value`` as a ``float``: a Python or numpy real, never a bool or a
    string (NaN passes; range checks are written so that it fails them)."""
    if isinstance(value, numbers.Real) and type(value) is not bool:
        with contextlib.suppress(OverflowError):  # an int too large for a float
            return float(value)
    raise _refuse(name, "a number", value)


_SURROGATE = re.compile("[\ud800-\udfff]")


def _encodable(text: str) -> bool:
    """Whether ``text`` holds no surrogate code point (ASCII text, at once)."""
    return text.isascii() or _SURROGATE.search(text) is None


def string(value, name: str) -> str:
    """``value`` as a ``str``: a Python or numpy string that UTF-8 can encode, so one that holds
    no surrogate code point (JSON writes a high and a low one as two escapes, and reads them
    back as one other character)."""
    if not isinstance(value, str):
        raise _refuse(name, "a string", value)
    if not _encodable(value):
        raise _refuse(name, "a string without surrogates", value)
    return str(value)


def string_keys(mapping: Mapping, name: str) -> dict:
    """``mapping`` as a dict whose keys :func:`string` read, in its column
    form: a refusal names the first key that is not a string."""
    keys, refusal = column(tuple(mapping), string, name)
    if refusal is not None:
        raise ValidationError(refusal)
    return dict(zip(keys, mapping.values()))


def instance_of(value, cls: type, name: str):
    """``value`` if it is a ``cls``, refused in the rule's words (``<name> must be a <cls>``)."""
    if isinstance(value, cls):
        return value
    raise _refuse(name, f"{'an' if cls.__name__[0] in 'AEIOU' else 'a'} {cls.__name__}", value)


def boolean(value, name: str) -> bool:
    """``value`` as a ``bool``: a Python or numpy bool, never an integer."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise _refuse(name, "a boolean", value)


_STORED = {integer: {int}, real: {float}, string: {str}, boolean: {bool}}
_KINDS = {integer: "i", real: "iuf", string: "", boolean: "b"}  # dtypes kept; a uint64 may not fit
