"""Exception hierarchy shared across the package, and the one file reader.

Every input file the package reads goes through ``read_bytes`` (a heavy
trace's tensor files excepted, which ``trace`` reads itself): a file that is
missing, a directory or unreadable raises ``ParseError`` naming it.  Every
JSON file (ratio policies, latent blob headers, configs, ``trace.json`` and
the ``tensors.json`` header) goes through ``read_json`` and ``checked``: a
value has type T only when the exact type ``json`` parses it to is one that
T allows.  A bool is not a number, an int is a float, null fits only an
``Optional`` field, and a ``list[T]`` holds only T.  Nothing is coerced:
``"3"``, ``3.7`` and ``true`` are not the int 3.  A file that breaks the
rule raises ``ParseError`` naming it, as does a tensor shape that
``f32_nbytes`` refuses.
"""

import json
import math
import sys
import typing
from pathlib import Path


class SortblockError(Exception):
    """Base class for all package errors."""


class ShapeError(SortblockError):
    """Operands have incompatible or unexpected shapes."""


class ConfigError(SortblockError):
    """A configuration value violates its documented constraints."""


class FitError(SortblockError):
    """A least-squares system could not be solved (singular / rank-deficient)."""


class MissingDataError(SortblockError):
    """A trace or file lacks the data a consumer requires (e.g. light-mode trace)."""


class NonFiniteError(SortblockError):
    """A sampling step produced a latent holding inf or NaN."""


class ResourceError(SortblockError):
    """An operation would exceed its memory budget."""


class ParseError(SortblockError):
    """A structured input file (CSV, JSON, blob, trace) is malformed or cannot be read."""


def read_bytes(path) -> bytes:
    """The bytes of the file at ``path``; ParseError naming it if it is
    missing, a directory or unreadable."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc


def read_json(path, data: bytes | None = None):
    """The JSON document held by the file at ``path``, or by ``data``, bytes
    read from it; ParseError naming ``path`` if they are not UTF-8 JSON."""
    try:
        return json.loads((read_bytes(path) if data is None else data).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an int past the digit limit, deep nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,), list: (list,), dict: (dict,),
               type(None): (type(None),)}


def schema(hints: dict) -> dict:
    """Per key of ``hints`` (a type hint per key, as ``typing.get_type_hints``
    gives), the pair (the JSON types a value may have, the types of its items
    if it is a ``list[T]``, else ()), which ``checked`` reads."""
    return {key: _json_types(hint) for key, hint in hints.items()}


def _json_types(hint) -> tuple[tuple, tuple]:
    if typing.get_origin(hint) is typing.Union:
        pairs = [_json_types(arg) for arg in typing.get_args(hint)]
        return sum((types for types, _ in pairs), ()), sum((items for _, items in pairs), ())
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return (list,), _json_types(item)[0]
    return _JSON_TYPES[hint], ()


def checked(path, doc, fields: dict) -> dict:
    """``doc``, which must be a JSON object with every key of ``fields`` (a
    ``schema``), each value of its type; otherwise ParseError naming ``path``.
    Keys that ``fields`` does not name are not looked at."""
    if type(doc) is not dict:
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key, (types, items) in fields.items():
        if key not in doc:
            raise ParseError(f"{path}: missing field {key!r}")
        value = doc[key]
        if type(value) not in types or (
            items and type(value) is list and not all(type(v) in items for v in value)
        ):
            raise ParseError(f"{path}: field {key!r} has the wrong type")
    return doc


def f32_nbytes(path, shape) -> int:
    """The bytes of a float32 array of ``shape``, a shape read from ``path``;
    ParseError naming it for a negative dimension or a shape past numpy's
    limits: 32 dimensions (numpy 1's) and an intp size, which binds the
    nonzero dimensions of an empty array too."""
    if min(shape, default=0) < 0:
        raise ParseError(f"{path}: negative dimension in shape {list(shape)}")
    if len(shape) > 32 or 4 * math.prod(filter(None, shape)) > sys.maxsize:
        raise ParseError(f"{path}: shape {list(shape)} is too large for an array")
    return 4 * math.prod(shape)
