"""The on-disk format and the error rule of every cascadekit artifact.

JSON documents are written with sorted keys, a 2-space indent and a
trailing newline; JSONL files hold one sorted-key object per line.
:func:`read_json` hands the parsed document to a ``decode`` function and
reports invalid JSON, and any ``ValidationError`` or ``NumericError`` it
raises, with ``<path>:`` in front; :func:`iter_jsonl` yields each JSONL
record with its line number, which the JSONL loaders put in front of a
record's fault, so a malformed file always names itself.

Fields are read by their type hints (:func:`typed`): an ``int``, ``bool``,
``str`` or ``float`` by the value rule (:func:`errors.integer`,
:func:`errors.boolean`, :func:`errors.string`, :func:`errors.real`), in its
words, and a ``float`` must also be finite; containers and dataclasses are
read element by element.
A loader whose own rules read a record's values (the trace rules, say)
gathers the raw fields and leaves every refusal to those rules.  A writer
that builds its lines from each column's JSON text (:func:`jsonl_lines`)
writes the bytes :func:`write_jsonl` writes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import reprlib
import types
import typing
from collections.abc import Callable, Iterable, Iterator, Mapping
from json.encoder import encode_basestring_ascii

from .errors import NumericError, ValidationError, boolean, integer, real, string

# What indexing, converting or iterating a wrong-shaped JSON value raises
# (OverflowError: a JSON integer too large for a float array or an int64 column).
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


def typed(value, hint, where: str):
    """``value`` read as the field ``where`` of type ``hint``."""
    # Each hint's reader is built once, so a read never dispatches on the hint.
    read = _READERS.get(hint) or _READERS.setdefault(hint, _reader(hint))
    return read(value, where)


def number_list(value, where: str) -> list[float]:
    """A JSON array of numbers as a list of floats (``np.asarray`` would also take "1.5" and true)."""
    if type(value) is not list or not _NUMBER_TYPES.issuperset(map(type, value)):
        raise TypeError(f"{where} must be an array of numbers")
    return list(map(float, value))  # OverflowError for an int beyond float


_NUMBER_TYPES = frozenset((int, float))  # what JSON numbers parse to
_SCALARS = {int: integer, bool: boolean, str: string, float: real}
_READERS: dict = {}


def _wrong(where: str, expected: str, value) -> TypeError:
    return TypeError(f"{where} must be {expected}, got {reprlib.repr(value)}")


def _reader(hint) -> Callable:
    """Build the ``read(value, where)`` function of one type hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        rule, finite = _SCALARS[hint], hint is float
        def read(value, where):
            try:
                value = rule(value, where)
            except ValidationError as exc:  # a TypeError, so decoder names the payload
                raise TypeError(str(exc)) from None
            if finite and not math.isfinite(value):
                raise _wrong(where, "a finite number", value)
            return value
    elif origin is types.UnionType and len(args) == 2 and type(None) in args:
        inner = _reader(args[0] if args[1] is type(None) else args[1])
        def read(value, where):
            return None if value is None else inner(value, where)
    elif (origin is tuple and args[1:] == (Ellipsis,)) or origin is list:
        item, kinds = _reader(args[0]), (list, tuple) if origin is tuple else (list,)
        def read(value, where):
            if type(value) not in kinds:
                raise _wrong(where, "an array", value)
            try:
                return origin([item(v, where) for v in value])
            except (TypeError, KeyError):  # read again to name the element
                for i, v in enumerate(value):
                    item(v, f"{where}[{i}]")
                raise
    elif origin is dict and args[0] is str:
        item = _reader(args[1])
        def read(value, where):
            if type(value) is not dict:
                raise _wrong(where, "an object", value)
            return {k: item(v, f"{where}[{k!r}]") for k, v in value.items()}
    elif dataclasses.is_dataclass(hint):
        readers = {name: _reader(field) for name, field in typing.get_type_hints(hint).items()}
        fields = dataclasses.fields(hint)
        required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]
        def read(value, where):
            if type(value) is not dict:
                raise _wrong(where or "document", "an object", value)
            unknown = ", ".join(sorted(value.keys() - readers.keys()))
            if unknown:
                raise TypeError(f"{where or 'document'} has unknown keys: {unknown}")
            prefix = f"{where}." if where else ""
            for name in required:
                if name not in value:
                    raise KeyError(prefix + name)
            return hint(**{name: readers[name](v, prefix + name) for name, v in value.items()})
    else:
        raise NotImplementedError(f"no JSON reader for {hint!r}")
    return read


def write_json(path, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)  # one write, not json.dump's many
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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


# One encoder for every JSONL record: json.dumps(record, sort_keys=True)
# builds a new one per call, with the same output.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


def write_jsonl(path, records: Iterable) -> None:
    """Write one record per line as it comes, so a generator is never
    held in memory whole."""
    encode = _JSONL_ENCODER.encode
    write_lines(path, (encode(record) + "\n" for record in records))


def write_lines(path, lines: Iterable[str]) -> None:
    """Write ``lines``, each ending in a newline, as they come."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# The JSON text _JSONL_ENCODER writes for a finite float, an int and a str.
float_text = float.__repr__
int_text = int.__repr__
string_text = encode_basestring_ascii


def array_text(texts: Iterable[str]) -> str:
    """The JSON text of an array whose items' texts are ``texts``."""
    return "[" + ", ".join(texts) + "]"


def jsonl_lines(texts: Mapping[str, Iterable[str]]) -> Iterator[str]:
    """The lines :func:`write_jsonl` writes for records whose fields come as columns of JSON
    text, one column per key (at least one): each line is one fixed template, keys in sorted order."""
    keys = sorted(texts)
    escaped = (string_text(key).replace("{", "{{").replace("}", "}}") for key in keys)
    line = "{{" + ", ".join(f"{key}: {{}}" for key in escaped) + "}}\n"
    return map(line.format, *(texts[key] for key in keys))


def iter_jsonl(path) -> Iterator[tuple[int, object]]:
    """``(line number, parsed record)`` for every non-blank line, in file
    order; invalid JSON and non-UTF-8 bytes fail naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(
                        f"{path}: line {line_no}: invalid JSON ({exc.msg})"
                    ) from None
                yield line_no, record
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
