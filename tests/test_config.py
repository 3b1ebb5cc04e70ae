import dataclasses
import typing

import pytest
import yaml

from rlsched.agent import AgentConfig
from rlsched.cli import SECTIONS, TrainSpec, load_harness_config
from rlsched.config import EnvConfig, from_section, read_yaml
from rlsched.errors import ConfigError
from rlsched.experiment import ExperimentSpec
from rlsched.workload import WorkloadSpec


def test_defaults_are_consistent():
    cfg = EnvConfig()
    assert cfg.horizon == 20
    assert cfg.capacities == (10, 10)
    assert cfg.num_resources == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"horizon": 0},
        {"capacities": ()},
        {"capacities": (10, 0)},
        {"queue_slots": 0},
        {"backlog_size": -1},
        {"episode_limit": 0},
    ],
)
def test_invalid_configs_rejected(overrides):
    with pytest.raises(ConfigError):
        EnvConfig(**overrides)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        from_section(EnvConfig, {"horizon": 10, "hozirons": 1}, "env")
    assert "hozirons" in str(err.value)


def test_from_section_converts_to_field_types():
    spec = from_section(
        ExperimentSpec,
        {"job_rates": [1, "0.5"], "seeds": ["3"], "checkpoint": None},
        "experiment",
        episodes=4,
        checkpoint=None,
    )
    assert spec.job_rates == (1.0, 0.5)
    assert type(spec.job_rates[0]) is float
    assert spec.seeds == (3,)
    assert spec.episodes == 4
    assert spec.checkpoint is None
    assert from_section(WorkloadSpec, None, "workload") == WorkloadSpec()


@pytest.mark.parametrize(
    "cls, raw, key",
    [
        (EnvConfig, {"horizon": 2.5}, "horizon"),
        (EnvConfig, {"horizon": True}, "horizon"),
        (EnvConfig, {"capacities": [10, "x"]}, "capacities"),
        (EnvConfig, {"capacities": "10"}, "capacities"),
        (WorkloadSpec, {"small_duration_range": [1, 2, 3]}, "small_duration_range"),
        (ExperimentSpec, {"workload": {"rate": 0.5}}, "workload"),
    ],
)
def test_from_section_rejects_mistyped_values(cls, raw, key):
    with pytest.raises(ConfigError) as err:
        from_section(cls, raw, "section")
    assert f"section key {key!r}" in str(err.value)


def test_from_section_rejects_non_mapping():
    with pytest.raises(ConfigError) as err:
        from_section(EnvConfig, [1, 2], "env")
    assert "env" in str(err.value)


def test_load_from_file(tmp_path):
    path = tmp_path / "env.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "horizon": 12,
                "capacities": [6, 8],
                "queue_slots": 4,
                "backlog_size": 20,
                "episode_limit": 500,
            }
        )
    )
    cfg = from_section(EnvConfig, read_yaml(path), "env")
    assert cfg.horizon == 12
    assert cfg.capacities == (6, 8)


def test_load_from_harness_file_with_env_section(tmp_path):
    path = tmp_path / "harness.yaml"
    path.write_text(yaml.safe_dump({"env": {"horizon": 9}}))
    raw = load_harness_config(str(path))
    assert from_section(EnvConfig, raw.get("env"), "env").horizon == 9


def test_load_repo_default_config():
    # the file documents the defaults (its experiment section sets a sweep)
    raw = load_harness_config("configs/default.yaml")
    for cls, section in [(EnvConfig, "env"), (WorkloadSpec, "workload"),
                         (AgentConfig, "agent"), (TrainSpec, "train")]:
        assert from_section(cls, raw[section], section) == cls()
    # ...and names every settable key: nested sections have their own, seeds
    # come from flags, and a checkpoint is a path given per run
    unlisted = {"workload": {"seed"}, "experiment": {"checkpoint"}}
    for section, cls in SECTIONS.items():
        settable = {key for key, tp in typing.get_type_hints(cls).items()
                    if not dataclasses.is_dataclass(tp)}
        assert set(raw[section]) == settable - unlisted.get(section, set()), section
