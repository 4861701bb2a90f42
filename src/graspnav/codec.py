"""JSON in both directions: one codec for every config and scene-spec
dataclass, for the values of every JSON input file, and one writer for
every report and output file.

A dataclass that subclasses `JsonCodec` gets `to_dict` and `from_dict`
driven by its fields and their type hints. Decoding checks JSON input
against the hints: `float` fields take finite numbers (a JSON integer is
stored as a float), `int` fields take integers only, `str` fields take
strings, booleans are never numbers, tuples have the hinted length,
nested codec classes need an object, and `X | None` also takes null.
Unknown keys and missing required keys are rejected; omitted keys take
the field defaults. Every failure is a `ConfigError` naming the key path,
such as ``nav.footprint_radius`` or ``objects[0].tier``. A number field
declares its range once, with `bounded` (each item of a tuple is held to
it), and `JsonCodec.__post_init__` checks every range, so objects built by
Python callers pass the same check; a class's own `__post_init__` calls it
first, then checks rules that span several fields. A `ValueError` or
`ConfigError` raised while building is re-raised with the key path. File
loaders read with `read_json_object` and check each value with `decode_value`.

Every file graspnav writes goes through `to_json`: keys sorted, NaN and
infinity rejected, arrays written as lists and dataclasses as objects of
their fields, so the same values always give the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing

import numpy as np

from .errors import ConfigError, FileFormatError

_EXPECTED = {float: "a finite number", int: "an integer", str: "a string",
             dict: "an object"}


def bounded(default=dataclasses.MISSING, *, gt=None, ge=None, le=None):
    """A dataclass field whose value, or each item of a tuple value, must be
    > `gt`, >= `ge` and <= `le` (where given); `JsonCodec` checks it."""
    return dataclasses.field(default=default, metadata={"bounds": (gt, ge, le)})


class JsonCodec:
    """Mixin for dataclasses that read and write plain JSON values."""

    def __post_init__(self):
        for name, gt, ge, le in _bounded_fields(type(self)):
            value = getattr(self, name)
            if isinstance(value, (tuple, list)):
                for i, item in enumerate(value):
                    _check_range(f"{name}[{i}]", item, gt, ge, le)
            else:
                _check_range(name, value, gt, ge, le)

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        return _decode_object(cls, d, "")


@functools.cache
def _bounded_fields(cls) -> tuple:
    return tuple((f.name, *f.metadata["bounds"]) for f in dataclasses.fields(cls)
                 if "bounds" in f.metadata)


def _check_range(name: str, value, gt, ge, le) -> None:
    # written as `not value > gt` so that NaN fails every bound
    if gt is not None and not value > gt:
        raise ConfigError(f"{name} must be "
                          f"{'positive' if gt == 0 else f'> {gt}'}, got {value}")
    if ge is not None and not value >= ge:
        raise ConfigError(f"{name} must be >= {ge}, got {value}")
    if le is not None and not value <= le:
        raise ConfigError(f"{name} must be <= {le}, got {value}")


def read_json_object(path, what: str, or_list: bool = False) -> dict | list:
    """Parse the JSON file at `path`, which must hold one object (or, with
    `or_list`, one list). Every failure is a FileFormatError naming the
    file; callers check the values inside with `decode_value`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, (dict, list) if or_list else dict):
        raise FileFormatError(f"{what} {path} must hold a JSON object"
                              + (" or list" if or_list else ""))
    return raw


def to_json(value, indent: int | None = None) -> str:
    """Sorted-key JSON text of `value` ending in a newline. NaN and
    infinity raise ValueError, since JSON has no such values."""
    return json.dumps(value, sort_keys=True, allow_nan=False, indent=indent,
                      default=_plain) + "\n"


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _encode(value):
    if isinstance(value, JsonCodec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _error(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}" if path else message)


def _decode_object(cls, d, path: str):
    if not isinstance(d, dict):
        raise _error(path, f"expected an object, got {d!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise _error(path, f"unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        key = f"{path}.{name}" if path else name
        if name in d:
            kwargs[name] = decode_value(hints[name], d[name], key)
        elif (f.default is dataclasses.MISSING
              and f.default_factory is dataclasses.MISSING):
            raise _error(key, "missing required key")
    try:
        return cls(**kwargs)
    except (ConfigError, ValueError) as exc:
        raise _error(path, str(exc)) from exc


def decode_value(hint, value, path: str):
    """Check one JSON value against a type hint, as the fields are checked."""
    if isinstance(hint, type) and issubclass(hint, JsonCodec):
        return _decode_object(hint, value, path)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:      # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else decode_value(inner, value, path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise _error(path, f"expected a list, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise _error(path, f"expected {len(args)} values, got {len(value)}")
        # bulk path when every hint and item has one scalar type, as in 30k
        # point indices or a 16-value pose; anything else is checked item
        # by item to name the bad index
        if ({*args, *map(type, value)} <= {args[0], Ellipsis}
                and (args[0] is not float or all(map(math.isfinite, value)))):
            return tuple(value)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return tuple(decode_value(a, v, f"{path}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if not isinstance(value, bool):
        if hint is float and isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if math.isfinite(number):
                return number
            raise _error(path, f"expected a finite number, got non-finite {value!r}")
        if isinstance(value, hint):
            return value
    raise _error(path, f"expected {_EXPECTED[hint]}, got {value!r}")
