"""Typed construction of config dataclasses from parsed JSON.

A run config's sections and a saved model's config both come from JSON, so
they share one set of rules: a section is an object, it names only the
dataclass's fields, and each value has the field's scalar type.
"""

from __future__ import annotations

import dataclasses
import math
import typing


class ConfigError(ValueError):
    """A config problem, reported with the offending key."""


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
            f"{section}.{key} must be {_SCALAR_NAMES[kind]}{nullable}, got {value!r}"
        )


def build_section(cls, raw, section: str):
    """An instance of dataclass ``cls`` from the JSON object ``raw``.

    Raises ConfigError, naming ``section`` and the key, for a non-object,
    an unknown or missing key, a value of the wrong type, or a value that
    ``cls`` itself rejects.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} must be a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"unknown key {section}.{sorted(unknown)[0]} (known: {sorted(known)})"
        )
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        check_scalar(section, key, value, hints[key])
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None
