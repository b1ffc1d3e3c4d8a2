"""The on-disk format and the error rule of every cascadekit artifact.

JSON documents are written with sorted keys, a 2-space indent and a
trailing newline; JSONL files hold one sorted-key object per line.  The
readers hand each parsed document or JSONL record to a ``decode``
function and report invalid JSON, and any ``ValidationError`` or
``NumericError`` it raises, with ``<path>:`` (plus ``line N:`` for JSONL)
in front, so a malformed file always names itself.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterable

from .errors import NumericError, ValidationError

# What indexing, converting or iterating a wrong-shaped JSON value raises
# (OverflowError: int() of an Infinity literal).
_SHAPE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def decoder(what: str):
    """Decorate a ``*_from_dict`` so a wrong-shaped payload raises
    ``ValidationError("malformed <what>: ...")``."""

    def wrap(decode):
        @functools.wraps(decode)
        def checked(*args, **kwargs):
            try:
                return decode(*args, **kwargs)
            except ValidationError:
                raise
            except KeyError as exc:
                raise ValidationError(f"malformed {what}: missing required key {exc}") from None
            except _SHAPE_ERRORS as exc:
                raise ValidationError(f"malformed {what}: {exc}") from None

        return checked

    return wrap


def string_field(payload: dict, key: str) -> str:
    """``payload[key]``, which must be a JSON string: an id never comes
    from ``str()`` of a null, a number or a container."""
    value = payload[key]
    if not isinstance(value, str):
        raise ValidationError(f"{key!r} must be a string, got {value!r}")
    return value


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path, decode: Callable):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    try:
        return decode(payload)
    except (ValidationError, NumericError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_jsonl(path, records: Iterable) -> None:
    """Write one record per line as it comes, so a generator is never
    held in memory whole."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_jsonl(path, decode: Callable) -> list:
    """Decode every non-blank line, in file order."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    out.append(decode(json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise ValidationError(
                        f"{path}: line {line_no}: invalid JSON ({exc.msg})"
                    ) from None
                except (ValidationError, NumericError) as exc:
                    raise type(exc)(f"{path}: line {line_no}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return out
