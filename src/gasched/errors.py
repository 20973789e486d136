"""Exception types shared across the package, and the range rules of the
config dataclasses, which raise :class:`ConfigError`."""

import functools
from dataclasses import field, fields
from typing import Any, Callable

Rule = tuple[Callable[[Any], bool], str]


class GaschedError(Exception):
    """Base class for package-specific errors."""


class DimensionError(GaschedError, ValueError):
    """A genome or matrix has the wrong length/shape for the operation."""


class StateError(GaschedError, RuntimeError):
    """An operation was invoked on an object in an invalid state."""


class CapacityError(GaschedError, RuntimeError):
    """No free slot is available for the requested placement."""


class ConfigError(GaschedError, ValueError):
    """Invalid configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message


def at_least(low: int) -> Rule:
    return lambda v: v >= low, f"must be >= {low}"


def in_range(low: int, high: int) -> Rule:
    return lambda v: low <= v <= high, f"must lie in [{low}, {high}]"


def checked(*rules: Rule, key: str | None = None, **kwargs: Any) -> Any:
    """Declare a dataclass field as a run parameter with its range rules,
    ``(predicate, message)`` pairs that :func:`check_fields` enforces.
    ``key`` is the CLI key the value comes from (by default the field
    name): errors name it, and the CLI fills the field from it."""
    return field(metadata={"key": key, "rules": rules}, **kwargs)


def check_fields(obj: Any) -> None:
    """Raise ConfigError for the first rule, in field order, that a field
    of the dataclass instance ``obj`` breaks."""
    for name, key, ok, message in _rules(type(obj)):
        if not ok(getattr(obj, name)):
            raise ConfigError(key, message)


@functools.cache  # configs are built per GA run: fields() on each build doubles their cost
def keyed_fields(cls: type) -> list[tuple[str, str, tuple[Rule, ...]]]:
    """``(field name, CLI key, rules)`` of each field of the dataclass
    ``cls`` whose metadata holds rules (see :func:`checked`), in field
    order."""
    return [(f.name, f.metadata.get("key") or f.name, f.metadata["rules"])
            for f in fields(cls) if "rules" in f.metadata]


@functools.cache
def _rules(cls: type) -> list[tuple[str, str, Callable[[Any], bool], str]]:
    return [(name, key, ok, message)
            for name, key, rules in keyed_fields(cls) for ok, message in rules]
