import dataclasses
import re
import typing

import numpy as np
import pytest
import yaml

from rlsched.agent import (
    ActorCriticAgent, AgentConfig, Transition, n_step_returns, train,
)
from rlsched.cli import SECTIONS, TrainSpec, load_harness_config
from rlsched.config import EnvConfig, check_int, check_real, from_section, read_yaml
from rlsched.env import Job
from rlsched.errors import ConfigError, SpecError
from rlsched.experiment import ExperimentSpec
from rlsched.nn import Network, dense
from rlsched.workload import WorkloadSpec, draw_sequences, load_trace, validate_spec


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


# -- the two numeric rules -------------------------------------------------------

# three wrong values per kind of number: a float where an int belongs, a bool
# and a string; a real takes ints, so its first is None instead
WRONG = {int: (2.5, True, "3"), float: (None, True, "0.5")}


def _numeric_fields():
    """(class, field, number type) for every int or float field of the config
    classes, a tuple field's entries included, from the type hints."""
    for cls in (EnvConfig, WorkloadSpec, AgentConfig, ExperimentSpec, TrainSpec):
        for name, tp in typing.get_type_hints(cls).items():
            args = typing.get_args(tp)
            number = args[0] if typing.get_origin(tp) is tuple else tp
            if number in WRONG:
                yield cls, name, number


def _with(cls, name, value):
    """`cls` built with field `name` set to `value`; a tuple field gets
    `value` in every entry."""
    default = getattr(cls(), name)
    if isinstance(default, tuple):
        value = (value,) * (len(default) if name.endswith("_range") else 1)
    return cls(**{name: value})


def _error_of(cls, name):
    """A workload spec's rules raise SpecError, also for a sweep's job rates."""
    if (cls is WorkloadSpec and name != "seed") or name == "job_rates":
        return SpecError
    return ConfigError


FIELD_CASES = [(cls, name, bad) for cls, name, number in _numeric_fields()
               for bad in WRONG[number]]


@pytest.mark.parametrize(
    "cls, name, bad", FIELD_CASES,
    ids=[f"{cls.__name__}.{name}={bad!r}" for cls, name, bad in FIELD_CASES])
def test_every_numeric_field_rejects_a_wrong_type(cls, name, bad):
    with pytest.raises(_error_of(cls, name)) as err:
        _with(cls, name, bad)
    # the message opens with the field's name: "seed" for seeds, "rate" for
    # job_rates, "capacities[0]" for capacities
    assert re.match(r"[a-z_]+", str(err.value)).group() in name


def test_the_generated_cases_cover_every_config_class():
    covered = {(cls.__name__, name) for cls, name, _ in FIELD_CASES}
    assert {("EnvConfig", "capacities"), ("WorkloadSpec", "rate"),
            ("WorkloadSpec", "small_duration_range"), ("AgentConfig", "n_steps"),
            ("ExperimentSpec", "job_rates"), ("ExperimentSpec", "seeds"),
            ("TrainSpec", "sequences")} <= covered


def _sgd_step(lr):
    net = Network([dense(2)], input_shape=(3,), seed=0)
    net.sgd_step([(np.zeros((2, 3)), np.zeros(2))], lr)


def _trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("job_id,arrival_time,duration,cpu_req,mem_req\n")
    return path


def _transition():
    state = np.zeros((1, 2), dtype=np.float32)
    return Transition(state, 0, -1.0, state, True)


# (function, argument, call with the argument set to a value)
ARGUMENT_CASES = [
    (n_step_returns, "n", lambda v, tmp: n_step_returns(
        [_transition()], 0.9, lambda s: 0.0, v)),
    (train, "episodes", lambda v, tmp: train(
        EnvConfig(), [[Job(0, 0, 1, (1, 1))]], AgentConfig(), episodes=v)),
    (ActorCriticAgent.__init__, "seed",
     lambda v, tmp: ActorCriticAgent((4, 13), 3, seed=v)),
    (ActorCriticAgent.__init__, "num_actions",
     lambda v, tmp: ActorCriticAgent((4, 13), v)),
    (draw_sequences, "count",
     lambda v, tmp: draw_sequences(WorkloadSpec(), EnvConfig(), v, 0)),
    (draw_sequences, "key",
     lambda v, tmp: draw_sequences(WorkloadSpec(), EnvConfig(), 1, 0, v)),
    (load_trace, "time_scale",
     lambda v, tmp: load_trace(_trace(tmp), EnvConfig(), time_scale=v)),
    (Network.sgd_step, "lr", lambda v, tmp: _sgd_step(v)),
]


@pytest.mark.parametrize(
    "function, name, call", ARGUMENT_CASES,
    ids=[f"{f.__qualname__}.{name}" for f, name, _ in ARGUMENT_CASES])
def test_every_numeric_argument_rejects_a_wrong_type(tmp_path, function, name,
                                                     call):
    number = typing.get_type_hints(function)[name]
    for bad in WRONG[number]:
        with pytest.raises(ConfigError) as err:
            call(bad, tmp_path)
        # a draw_sequences key is a seed
        assert str(err.value).startswith("seed" if name == "key" else name), bad


@pytest.mark.parametrize("make", [
    lambda: WorkloadSpec(seed=np.uint64(3)),
    lambda: ExperimentSpec(seeds=(np.int64(0), np.int32(1))),
    lambda: ActorCriticAgent((4, 13), np.int64(3), seed=np.int64(5)),
    lambda: draw_sequences(WorkloadSpec(), EnvConfig(), np.int64(1),
                           np.int64(2), np.uint8(0)),
    lambda: EnvConfig(horizon=np.int64(8), capacities=(np.int32(4), 4)),
    lambda: AgentConfig(gamma=np.float64(0.5), n_steps=np.int64(2)),
    lambda: WorkloadSpec(small_duration_range=(np.int64(1), np.int32(3)),
                         other_demand_range=(np.uint8(0), 2)),
], ids=["workload-seed", "experiment-seeds", "agent-seed", "draw-key",
        "env-sizes", "agent-numbers", "workload-bounds"])
def test_numpy_numbers_pass_both_rules(make):
    make()


@pytest.mark.parametrize("check, message", [
    (lambda: AgentConfig(n_steps=2.5), "n_steps must be an int, got 2.5"),
    (lambda: validate_spec(WorkloadSpec(rate="0.5"), EnvConfig()),
     "rate must be a number, got '0.5'"),
    (lambda: EnvConfig(horizon=0), "horizon must be >= 1, got 0"),
    (lambda: EnvConfig(capacities=(10, 0)), "capacities[1] must be >= 1, got 0"),
    (lambda: AgentConfig(gamma=1.5), "gamma must be in [0, 1], got 1.5"),
    (lambda: AgentConfig(lr_actor=0.0), "lr_actor must be finite and > 0, got 0.0"),
    (lambda: check_real("x", float("inf"), 0), "x must be finite and >= 0, got inf"),
    (lambda: check_real("x", float("nan"), 0, 1), "x must be in [0, 1], got nan"),
    (lambda: check_real("x", 0, 0, 1, open_low=True), "x must be in (0, 1], got 0"),
    (lambda: check_int("x", np.int64(-1)), "x must be >= 0, got -1"),
    (lambda: check_real("x", 1j, 0), "x must be a number, got 1j"),
], ids=["float-count", "string-rate", "horizon", "capacity", "gamma",
        "zero-lr", "infinite", "nan", "open-low", "numpy-negative", "complex"])
def test_the_two_rules_name_the_value(check, message):
    with pytest.raises(ConfigError if "rate" not in message else SpecError) as err:
        check()
    assert str(err.value) == message


def test_a_rule_raises_the_error_it_is_given():
    with pytest.raises(SpecError, match="length must be >= 0, got -1"):
        check_int("length", -1, error=SpecError)
    with pytest.raises(ConfigError, match="x must be an int"):
        check_int("x", np.bool_(True))
    check_real("x", 1, 0, 1)  # both ends are in range
    check_real("x", 0, 0, 1)
