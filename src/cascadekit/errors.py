"""Exception types shared across the package, and the value rule of its
Python API: what counts as an integer, a real number, a string or a
boolean, how it is stored, and how a wrong one is reported."""

import contextlib
import numbers
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


def column(values: Sequence, rule, name: str) -> tuple[Sequence, str | None]:
    """The column form of :func:`integer` (without bounds) or
    :func:`string`: ``values`` read one by one by ``rule`` up to the first
    it refuses, and that refusal, worded as ``rule`` words it (None when
    every value was read).

    A column whose values all have the one type ``rule`` stores is returned
    as it is, after a look at the set of their types alone; a set of the
    values would hide ``True`` behind ``1``.
    """
    if set(map(type, values)) <= _STORED[rule]:
        return values, None
    read = []
    for value in values:
        try:
            read.append(rule(value, name))
        except ValidationError as exc:
            return read, str(exc)
    return read, None


def real(value, name: str) -> float:
    """``value`` as a ``float``: a Python or numpy real, never a bool or a
    string (NaN passes; range checks are written so that it fails them)."""
    if isinstance(value, numbers.Real) and type(value) is not bool:
        with contextlib.suppress(OverflowError):  # an int too large for a float
            return float(value)
    raise _refuse(name, "a number", value)


def string(value, name: str) -> str:
    """``value`` as a ``str``: a Python or numpy string."""
    if isinstance(value, str):
        return str(value)
    raise _refuse(name, "a string", value)


def string_keys(mapping: Mapping, name: str) -> dict:
    """``mapping`` as a dict whose keys :func:`string` read, in its column
    form: a refusal names the first key that is not a string."""
    keys, refusal = column(tuple(mapping), string, name)
    if refusal is not None:
        raise ValidationError(refusal)
    return dict(zip(keys, mapping.values()))


def boolean(value, name: str) -> bool:
    """``value`` as a ``bool``: a Python or numpy bool, never an integer."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise _refuse(name, "a boolean", value)


_STORED = {integer: frozenset({int}), string: frozenset({str})}
