"""Typed construction of config dataclasses from parsed JSON.

A run config and a saved model's config both come from JSON, so they share
one set of rules: a section is an object that names each required field of
its dataclass and no other key, and each value is a section or has the
field's scalar type.  Errors name a key by its path: ``model.H``, or
``output_dir`` at the root.
"""

from __future__ import annotations

import dataclasses
import math
import typing


ROOT = "config root"


class ConfigError(ValueError):
    """A config problem, reported with the offending key."""


def _dotted(section: str, key: str) -> str:
    return key if section == ROOT else f"{section}.{key}"


_SCALAR_NAMES = {int: "an integer", float: "a finite number",
                 bool: "true or false", str: "a string"}


def check_scalar(section: str, key: str, value, hint) -> None:
    """Raise ConfigError unless value has the field's scalar type.

    Integers exclude booleans, numbers must be finite, and ``X | None``
    fields also take null.  An integer is accepted where a float is due.
    """
    allowed = typing.get_args(hint) or (hint,)
    if value is None and type(None) in allowed:
        return
    kind = next(t for t in allowed if t is not type(None))
    if kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        nullable = " or null" if type(None) in allowed else ""
        raise ConfigError(
            f"{_dotted(section, key)} must be {_SCALAR_NAMES[kind]}{nullable}, got {value!r}"
        )


def build_section(cls, raw, section: str):
    """An instance of dataclass ``cls`` from the JSON object ``raw``.

    A field whose type is a dataclass is built from its own object.  Raises
    ConfigError, naming ``section`` and the key, for a non-object, an unknown
    or missing key, a value of the wrong type, or a value that ``cls`` itself
    rejects.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key {_dotted(section, sorted(unknown)[0])} "
                          f"(known: {sorted(fields)})")
    for name, f in fields.items():
        if (name not in raw and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigError(f"{section} is missing {name!r}")
    hints = typing.get_type_hints(cls)
    values = dict(raw)
    for key, value in raw.items():
        if dataclasses.is_dataclass(hints[key]):
            values[key] = build_section(hints[key], value, _dotted(section, key))
        else:
            check_scalar(section, key, value, hints[key])
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from None
