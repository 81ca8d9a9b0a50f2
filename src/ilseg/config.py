"""JSON form of the frozen config dataclasses.

A config declares each field once, with its type, and checks ranges in
`__post_init__`, so a config object that exists is valid. `from_json`
derives the allowed keys and the JSON type of each from the fields and
type hints; `to_json` writes the object back, as checkpoint headers echo it.
"""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

__all__ = ["ConfigError", "from_json", "to_json"]

_UNIONS = (typing.Union, types.UnionType)
# (singular, plural) of the JSON value that a field type reads
_NAMES = {
    bool: ("true or false", "booleans"),
    int: ("an integer", "integers"),
    float: ("a finite number", "finite numbers"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
}


class ConfigError(ValueError):
    """A config document does not match its dataclass."""


def from_json(cls, doc, where: str, **fixed):
    """Build the config dataclass `cls` from the JSON object `doc`.

    The keys are the fields of `cls` apart from those in `fixed`, whose
    values the caller sets. A bool is not an int; an int is accepted,
    and kept, for a float; a JSON list is read as a tuple; a nested
    config is an object. A mismatch, a missing required key, an unknown
    key or a failed range check raises ConfigError naming the key path
    below `where`.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'top level'} must be an object, got {json.dumps(doc)}")
    at = f"{where}: " if where else ""
    keys = {f.name: f for f in fields(cls) if f.name not in fixed}
    unknown = sorted(doc.keys() - keys.keys())
    if unknown:
        raise ConfigError(f"{at}unknown keys {unknown}")
    for name, f in keys.items():
        if name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{at}missing required key {name!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {name: _check(hints[name], value, f"{where}.{name}" if where else name) for name, value in doc.items()}
    try:
        return cls(**kwargs, **fixed)
    except ValueError as e:
        raise ConfigError(f"{at}{e}") from None


def to_json(value):
    """The JSON form of a config dataclass, which `from_json` reads back."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value


def _describe(hint, plural: bool = False) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return f"a list of {_describe(args[0], True)}"
    if origin in _UNIONS:
        return " or ".join("null" if a is type(None) else _describe(a, plural) for a in args)
    return _NAMES[dict if is_dataclass(hint) else hint][plural]


def _check(hint, value, path: str):
    """`value` read as the field type `hint`, or ConfigError."""
    kind = hint
    if typing.get_origin(hint) in _UNIONS:  # X | None, the one union configs use
        if value is None:
            return None
        (kind,) = set(typing.get_args(hint)) - {type(None)}
    if typing.get_origin(kind) is tuple:
        if isinstance(value, list):
            return tuple(_check(typing.get_args(kind)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    elif is_dataclass(kind):
        if isinstance(value, dict):
            return from_json(kind, value, path)
    elif kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return value
    elif type(value) is kind:
        return value
    raise ConfigError(f"{path} must be {_describe(hint)}, got {json.dumps(value)}")
