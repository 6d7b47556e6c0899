"""Line-oriented ``key = value`` config text, bound to dataclasses.

Used for the training and scene config files and for the model-architecture
header of a checkpoint's manifest. Unknown keys are hard errors so typos never
silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import typing

from .tensor import ConfigError


def parse_kv_text(text: str, source: str = "config") -> dict[str, str]:
    """Parse the text; a bad line is a ConfigError that begins
    ``<source> line <n>: ``."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {ln}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{source} line {ln}: empty key")
        if key in out:
            raise ConfigError(f"{source} line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def format_kv(kv: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in kv.items())


def read_kv_file(path) -> dict[str, str]:
    with open(path) as f:
        return parse_kv_text(f.read(), str(path))


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def coerce_key(key: str, raw: str, target_type):
    """Parse ``raw`` as a bool, int or float; errors name ``key``."""
    try:
        if target_type is bool:
            return _parse_bool(raw)
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: bad value {raw!r}: {exc}") from None
    raise ConfigError(f"key {key!r}: unsupported config field type {target_type!r}")


def _coerce_all(cls, kv: dict[str, str]) -> dict:
    hints = typing.get_type_hints(cls)
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(kv) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {key: coerce_key(key, raw, hints[key]) for key, raw in kv.items()}


def dataclass_from_kv(cls, kv: dict[str, str]):
    """Construct cls from string keys/values; missing required fields error."""
    values = _coerce_all(cls, kv)
    try:
        return cls(**values)
    except TypeError as exc:
        raise ConfigError(f"building {cls.__name__}: {exc}") from None


def apply_kv(obj, kv: dict[str, str]):
    """Return a copy of a dataclass instance with string overrides applied."""
    return dataclasses.replace(obj, **_coerce_all(type(obj), kv))


def dataclass_to_kv(obj) -> dict[str, str]:
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, bool):
            out[f.name] = "true" if value else "false"
        else:
            out[f.name] = str(value)
    return out
