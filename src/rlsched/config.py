"""Cluster/simulator configuration, the config file format and the two
numeric rules.

The on-disk format is YAML. `section_values` rejects unknown keys and
converts each value to its field's annotated type, so typos and malformed
values fail loudly instead of running with defaults. Every config class and
every public numeric argument of the library is then checked by one of two
rules, whether it came from a file, a flag or a direct call: `check_int` for
a count, a size or a seed, and `check_real` for a rate, a step size or a
scale.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError


@dataclass(frozen=True)
class EnvConfig:
    """Dimensions of the simulated cluster.

    horizon: look-ahead window in time steps (rows of the occupancy image)
    capacities: total units per resource; the entries define the resources,
        which are known by index (the default two: cpu, memory)
    queue_slots: number of schedulable queue positions
    backlog_size: maximum jobs held in the overflow FIFO
    episode_limit: hard cap on simulated steps per episode
    """

    horizon: int = 20
    capacities: tuple[int, ...] = (10, 10)
    queue_slots: int = 5
    backlog_size: int = 60
    episode_limit: int = 2000

    def __post_init__(self):
        check_int("horizon", self.horizon, 1)
        if not self.capacities:
            raise ConfigError("capacities must be non-empty")
        for r, capacity in enumerate(self.capacities):
            check_int(f"capacities[{r}]", capacity, 1)
        check_int("queue_slots", self.queue_slots, 1)
        check_int("backlog_size", self.backlog_size)
        check_int("episode_limit", self.episode_limit, 1)

    @property
    def num_resources(self) -> int:
        return len(self.capacities)

    @property
    def num_actions(self) -> int:
        """Action 0 is void; action i + 1 picks queue slot i."""
        return self.queue_slots + 1


def is_int(value) -> bool:
    """The type rule for an int: an int or a numpy integer, never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(name: str, value, low: int = 0, error=ConfigError) -> None:
    """The rule for a count, a size or a seed: `is_int`, of at least `low`.
    Raises `error` naming `name`."""
    if not is_int(value):
        raise error(f"{name} must be an int, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def check_real(name: str, value, low, high=math.inf, *, open_low=False,
               error=ConfigError) -> None:
    """The rule for a rate, a step size or a scale: a real number, never a
    bool, in [low, high], or above `low` when `open_low` is set. An infinite
    `high` means finite; NaN fails every range. Raises `error` naming
    `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    above = low < value if open_low else low <= value
    if not (above and (value < high if high == math.inf else value <= high)):
        rule = (f"finite and {'>' if open_low else '>='} {low}" if high == math.inf
                else f"in {'(' if open_low else '['}{low}, {high}]")
        raise error(f"{name} must be {rule}, got {value}")


def _convert(tp, value):
    """`value` as the annotated type `tp`. Raises TypeError or ValueError.

    A scalar field takes a value of its type or a string that parses as one
    (command-line flags arrive as strings); a float field also takes an int.
    A tuple field takes a list; an optional field takes None. A field that
    nests another section takes only that section, already built.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            return tuple(_convert(args[0], v) for v in value)
        if len(value) != len(args):
            raise ValueError(f"expected {len(args)} items, got {value!r}")
        return tuple(_convert(t, v) for t, v in zip(args, value))
    if type(None) in args:
        if value is None:
            return None
        (tp,) = [t for t in args if t is not type(None)]
        return _convert(tp, value)
    if dataclasses.is_dataclass(tp):
        if isinstance(value, tp):
            return value
        raise TypeError("not settable here; it has its own section")
    allowed = (int, float) if tp is float else (tp,)
    if isinstance(value, bool) or not isinstance(value, (str, *allowed)):
        raise TypeError(f"expected {tp.__name__}, got {value!r}")
    return tp(value)


def section_values(cls, raw, section: str, **overrides) -> dict:
    """The fields of the dataclass `cls` that one config-file section sets,
    each converted to its annotated type.

    `raw` is the section's mapping, or None when the section is absent.
    `overrides` (command-line flags) are converted the same way and win over
    the file; an override of None is a flag that was not given. Any bad key
    or value raises a ConfigError naming the section and the key. Range and
    cross-field checks are left to `cls`, so they run when it is built.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(
            f"{section} section: expected a mapping, got {type(raw).__name__}"
        )
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    given = {k: v for k, v in overrides.items() if v is not None}
    values = {}
    for key, value in [*raw.items(), *given.items()]:
        try:
            values[key] = _convert(types[key], value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section} key {key!r}: {exc}") from None
    return values


def from_section(cls, raw, section: str, **overrides):
    """Build the dataclass `cls` from one config-file section and the flags
    that override it (see `section_values`)."""
    return cls(**section_values(cls, raw, section, **overrides))


def read_yaml(path: str | Path):
    """Parse a YAML file; a syntax error or bytes that are not text become a
    ConfigError naming the file. The file is read as bytes, so PyYAML
    detects the encoding and reports a bad byte as a YAMLError."""
    with open(path, "rb") as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
