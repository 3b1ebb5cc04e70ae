"""Cluster/simulator configuration and its file format.

The on-disk format is YAML with a fixed key set; unknown keys are rejected so
typos fail loudly instead of silently running with defaults.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError


def _tuple_of(convert):
    return lambda values: tuple(convert(v) for v in values)


ENV_CONFIG_CONVERTERS = {
    "horizon": int,
    "capacities": _tuple_of(int),
    "queue_slots": int,
    "backlog_size": int,
    "episode_limit": int,
    "resources": _tuple_of(str),
}


@dataclass(frozen=True)
class EnvConfig:
    """Dimensions of the simulated cluster.

    horizon: look-ahead window in time steps (rows of the occupancy image)
    capacities: total units per resource
    queue_slots: number of schedulable queue positions (the action space is
        queue_slots + 1, action 0 being the void action)
    backlog_size: maximum jobs held in the overflow FIFO
    episode_limit: hard cap on simulated steps per episode
    resources: resource names, same length as capacities
    """

    horizon: int = 20
    capacities: tuple[int, ...] = (10, 10)
    queue_slots: int = 5
    backlog_size: int = 60
    episode_limit: int = 2000
    resources: tuple[str, ...] = ("cpu", "memory")

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
        if len(self.resources) != len(self.capacities):
            raise ConfigError(
                f"{len(self.resources)} resource names for "
                f"{len(self.capacities)} capacities"
            )

    @property
    def num_resources(self) -> int:
        return len(self.capacities)


def env_config_from_dict(raw: dict) -> EnvConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(ENV_CONFIG_CONVERTERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        try:
            kwargs[key] = ENV_CONFIG_CONVERTERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"env key {key!r}: {exc}") from None
    return EnvConfig(**kwargs)


def read_yaml(path: str | Path):
    """Parse a YAML file; a syntax error becomes a ConfigError naming the file."""
    with open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None


def load_env_config(path: str | Path) -> EnvConfig:
    """Read an EnvConfig from a YAML file holding either the bare key set or
    a top-level `env:` section (the harness config file layout)."""
    raw = read_yaml(path)
    if raw is None:
        return EnvConfig()
    if isinstance(raw, dict) and "env" in raw:
        raw = raw["env"]
    return env_config_from_dict(raw)
