"""Cluster/simulator configuration and the config file format.

The on-disk format is YAML. `section_values` rejects unknown keys and
converts each value to its field's annotated type, so typos and malformed
values fail loudly instead of running with defaults.
"""
from __future__ import annotations

import dataclasses
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
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not self.capacities:
            raise ConfigError("capacities must be non-empty")
        if any(c < 1 for c in self.capacities):
            raise ConfigError(f"capacities must be positive, got {self.capacities}")
        if self.queue_slots < 1:
            raise ConfigError(f"queue_slots must be >= 1, got {self.queue_slots}")
        if self.backlog_size < 0:
            raise ConfigError(f"backlog_size must be >= 0, got {self.backlog_size}")
        if self.episode_limit < 1:
            raise ConfigError(f"episode_limit must be >= 1, got {self.episode_limit}")

    @property
    def num_resources(self) -> int:
        return len(self.capacities)

    @property
    def num_actions(self) -> int:
        """Action 0 is void; action i + 1 picks queue slot i."""
        return self.queue_slots + 1


def check_seed(seed: int) -> None:
    """Seeds feed numpy's SeedSequence, which takes non-negative integers:
    an int or a numpy integer, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


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
