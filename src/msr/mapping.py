"""JSON wire format of the frozen config dataclasses, driven by each field's
annotation: int, float, str, X | None, tuple[X, Y], tuple[X, ...],
dict[K, V] or a nested dataclass. A value of the wrong type or length is a
ConfigError that names its key. An int is accepted for a float field and
kept as given; a bool is never a number, and NaN and infinities are not
numbers either. `check_count` bounds the ints that size arrays."""

import dataclasses
import math
import types

from .errors import ConfigError

_SCALARS = {int: "an integer", float: "a number", str: "a string"}


def _key(label: str, name) -> str:
    return f"{label}.{name}" if label else str(name)


def from_mapping(cls, data, label: str):
    """Instance of dataclass `cls` from a JSON object whose absent keys keep
    their defaults; `label` is the object's dotted key ("" at the top)."""
    what = label or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be an object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}")
    missing = [name for name, f in fields.items() if name not in data
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{what} needs keys {missing}")
    return cls(**{name: _value(fields[name].type, value, _key(label, name))
                  for name, value in data.items()})


def _value(tp, value, key: str):
    if dataclasses.is_dataclass(tp):
        return from_mapping(tp, value, key)
    args = getattr(tp, "__args__", ())
    if isinstance(tp, types.UnionType):  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _value(inner, value, key)
    origin = getattr(tp, "__origin__", None)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{key} must hold {len(args)} values, got {len(value)}")
        return tuple(_value(t, v, f"{key}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        return {_value(args[0], k, key): _value(args[1], v, _key(key, k))
                for k, v in value.items()}
    allowed = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{key} must be {_SCALARS[tp]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def check_count(key: str, value: int, least: int) -> None:
    """A count that sizes arrays: at least `least`, and below 2**60, whose
    float64 array alone would overflow numpy's int64 byte count."""
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    if value >= 2 ** 60:
        raise ConfigError(f"{key} must be < 2**60, got {value}")


def to_mapping(obj):
    """JSON value of a config object: dataclasses become objects in field
    order, tuples become lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_mapping(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_mapping(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_mapping(v) for k, v in obj.items()}
    return obj
