"""Exception types shared across the package, and the type rules of its
Python API."""

import numbers

import numpy as np


class ValidationError(ValueError):
    """Bad inputs, malformed files, or violated preconditions (CLI exit code 1)."""


class NumericError(ArithmeticError):
    """Non-finite values encountered during training or evaluation (CLI exit code 2)."""


def is_integer(value) -> bool:
    """A Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or numpy real number, never a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
