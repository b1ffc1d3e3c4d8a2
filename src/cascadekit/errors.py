"""Exception types shared across the package, and the value rule of its
Python API: what counts as an integer or a real number, how it is
stored, and how a wrong one is reported."""

import contextlib
import numbers
import reprlib

import numpy as np


class ValidationError(ValueError):
    """Bad inputs, malformed files, or violated preconditions (CLI exit code 1)."""


class NumericError(ArithmeticError):
    """Non-finite values encountered during training or evaluation (CLI exit code 2)."""


def integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an ``int``: a Python or numpy integer, never a bool, and
    at least ``low`` (and at most ``high``) where given."""
    if type(value) is not int and isinstance(value, (int, np.integer)) and type(value) is not bool:
        value = int(value)
    if type(value) is int and (low is None or value >= low) and (high is None or value <= high):
        return value
    bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
    raise ValidationError(f"{name} must be an integer{bounds}, got {reprlib.repr(value)}")


def real(value, name: str) -> float:
    """``value`` as a ``float``: a Python or numpy real, never a bool or a
    string (NaN passes; range checks are written so that it fails them)."""
    if isinstance(value, numbers.Real) and type(value) is not bool:
        with contextlib.suppress(OverflowError):  # an int too large for a float
            return float(value)
    raise ValidationError(f"{name} must be a number, got {reprlib.repr(value)}")
