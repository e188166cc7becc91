"""JSON wire format of the frozen config dataclasses, and the one check of
their values, both driven by each field's annotation: int, float, str,
X | None, tuple[X, Y], tuple[X, ...], dict[K, V] or a nested dataclass, any
of them as Annotated[X, rule, ...]. A value of the wrong type or length is a
ConfigError that names its dotted key. An int is accepted for a float field
and kept as given; a bool is never a number, and NaN, infinities and ints
past the float range are not finite numbers. A rule is a range written as
its message prints it: an interval, "[0, 1]", "(0, 1)", "[0, 0.5)", or a
bound, ">= 1", "> 0", "< 2**60". `Count` is an int that sizes arrays: at
least 1, and below 2**60, whose float64 array alone would overflow numpy's
int64 byte count. Every config type's `__post_init__` calls `check_fields`,
so a config built in Python or by `dataclasses.replace` is checked as a
document's is; `check` applies the same rules to one value, such as a
run-path argument."""

import dataclasses
import math
import operator
import types
from typing import Annotated

from .errors import ConfigError

Count = Annotated[int, ">= 1", "< 2**60"]

_SCALARS = {int: "an integer", float: "a number", str: "a string"}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


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


def check_fields(obj, label: str) -> None:
    """Check each field of config dataclass `obj` against its annotation, as
    `from_mapping` checks a document's values, and keep the value as
    `from_mapping` reads it (a list given for a tuple field as a tuple);
    `label` is the object's dotted key. A nested config object checked
    itself when it was built."""
    for f in dataclasses.fields(obj):
        key, value = _key(label, f.name), getattr(obj, f.name)
        if not dataclasses.is_dataclass(f.type):
            object.__setattr__(obj, f.name, _value(f.type, value, key))
        elif not isinstance(value, f.type):
            raise ConfigError(f"{key} must be a {f.type.__name__}, got {value!r}")


def check(key: str, value, tp, *rules: str):
    """`value` as `from_mapping` reads it for a field of type `tp`, if it
    meets every rule; else a ConfigError naming `key`."""
    value = _value(tp, value, key)
    for rule in rules:
        if not _holds(rule, value):
            raise ConfigError(f"{key} must be {'in ' if rule[0] in '[(' else ''}{rule}, "
                              f"got {value}")
    return value


def _holds(rule: str, value) -> bool:
    if rule[0] in "[(":
        low, high = rule[1:-1].split(", ")
        return (_holds((">= " if rule[0] == "[" else "> ") + low, value)
                and _holds(("<= " if rule[-1] == "]" else "< ") + high, value))
    op, bound = rule.split(" ")
    base, _, power = bound.partition("**")
    return _COMPARE[op](value, int(base) ** int(power) if power else float(bound))


def _value(tp, value, key: str):
    if hasattr(tp, "__metadata__"):  # Annotated[X, rule, ...]
        return check(key, value, tp.__origin__, *tp.__metadata__)
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
    try:
        finite = tp is not float or math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


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
