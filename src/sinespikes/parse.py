"""The one reader from JSON to checked values.

Each outside input (a config, one of its sections, a saved instance) is a
frozen dataclass whose fields are its keys; ``metadata["key"]`` renames one.
``read`` checks each value against its field's annotation before the
dataclass' own range checks run: ``int`` is an integer and not a bool,
``float`` a finite number, ``str`` a string, ``tuple[X, ...]`` a list of X,
a dataclass an object read by the same rules, ``X | Y`` either, and
``X | None`` also null. A key without a field is rejected, at each object
before any of its values is read.
"""

from __future__ import annotations

import math
import reprlib
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import InvalidConfigurationError

__all__ = ["read"]


def _finite(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        return False


# what each scalar annotation accepts, and how a message names it
_SCALARS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _finite),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _json_key(f) -> str:
    return f.metadata.get("key", f.name)


def _alternatives(tp) -> tuple:
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    return typing.get_args(tp) if union else (tp,)


def _describe(tp) -> str:
    if tp is type(None):
        return "null"
    if is_dataclass(tp):
        return "an object"
    return "a list" if typing.get_origin(tp) is tuple else _SCALARS[tp][0]


def _value(value, tp, name: str):
    alternatives = _alternatives(tp)
    if value is None and type(None) in alternatives:
        return None
    for alt in alternatives:
        if is_dataclass(alt):
            return read(alt, value, name)
        if typing.get_origin(alt) is tuple and isinstance(value, list):
            item = typing.get_args(alt)[0]
            return tuple(_value(v, item, f"{name}[{i}]") for i, v in enumerate(value))
        if alt in _SCALARS and _SCALARS[alt][1](value):
            return float(value) if alt is float else value
    expected = " or ".join(map(_describe, alternatives))
    raise InvalidConfigurationError(f"{name} must be {expected}, got {reprlib.repr(value)}")


def read(cls, payload, section: str | None):
    """Build dataclass ``cls`` from a JSON object; messages name keys ``section.key``."""
    if not isinstance(payload, dict):
        raise InvalidConfigurationError(
            f"{section or 'the config'} must be an object, got {reprlib.repr(payload)}")

    def path(key):
        return key if section is None else f"{section}.{key}"

    unread = sorted(payload.keys() - {_json_key(f) for f in fields(cls)})
    if unread:
        raise InvalidConfigurationError(
            f"{', '.join(map(path, unread))} {'is' if len(unread) == 1 else 'are'} not read")
    hints, kwargs = typing.get_type_hints(cls), {}
    for f in fields(cls):
        key = _json_key(f)
        if key in payload:
            kwargs[f.name] = _value(payload[key], hints[f.name], path(key))
        elif f.default is MISSING:
            raise InvalidConfigurationError(f"{path(key)} is required")
    return cls(**kwargs)
