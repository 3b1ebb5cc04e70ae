"""The benchmark in `perfbench/` times and checks rlsched by wrapping its
functions from outside the package. These tests keep that contract in the
fast suite: every wrapped name resolves, and the training and evaluation
paths call the wrapped functions, so a hook cannot go silent and let a
benchmark check pass on zero samples."""
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from rlsched import agent as agent_module
from rlsched import experiment
from rlsched.agent import ActorCriticAgent, AgentConfig, Transition
from rlsched.config import EnvConfig
from rlsched.env import ClusterEnv, Job, JobList
from rlsched.nn import flatten
from rlsched.workload import WorkloadSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench's tracing module, imported without installing any hook."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)
    return wrapper


def test_every_wrapped_function_resolves():
    wrapped = load_tracing().wrapped_functions()
    assert wrapped
    for name, owner, attr in wrapped:
        assert callable(getattr(owner, attr, None)), name
    params = inspect.signature(agent_module.n_step_returns).parameters
    assert list(params) == ["segment", "gamma", "value_fn", "n"]
    assert list(inspect.signature(ActorCriticAgent.act).parameters)[:2] == [
        "self", "state"]
    env = ClusterEnv(EnvConfig()).reset([Job(0, 0, 2, (1, 1))])
    assert env.step(2).info["invalid_action"] is True  # slot 2 is empty


def test_update_calls_n_step_returns_once_per_segment(monkeypatch):
    calls = []
    monkeypatch.setattr(agent_module, "n_step_returns",
                        counting(agent_module.n_step_returns, calls))
    agent = ActorCriticAgent((1, 2), 2, config=AgentConfig(n_steps=2),
                             seed=0, chain=[flatten()])
    states = [np.array([[float(i), 1.0]], dtype=np.float32) for i in range(7)]
    segments = [
        [Transition(states[t], t % 2, -1.0, states[t + 1], t == 5)
         for t in range(start, stop)]
        for start, stop in [(0, 2), (2, 4), (4, 6)]
    ]
    for segment in segments:
        agent.update(segment)
    assert [args[0] for args, _ in calls] == segments


SMALL_ENV = EnvConfig(horizon=8, capacities=(4, 4), queue_slots=3,
                      backlog_size=10, episode_limit=60)
SMALL_WL = WorkloadSpec(length=8, small_duration_range=(1, 2),
                        large_duration_range=(4, 6),
                        dominant_demand_range=(1, 2),
                        other_demand_range=(1, 1))


def small_cell(kind, **spec_fields):
    """run_cell over two episodes of one `kind` cell on a small cluster."""
    spec = experiment.ExperimentSpec(policies=(kind,), seeds=(0,), episodes=2,
                                     env=SMALL_ENV, workload=SMALL_WL,
                                     **spec_fields)
    return experiment.run_cell(spec, kind, 0, 0,
                               experiment.cell_sequences(spec, 0, 0))


def counting_steps(monkeypatch):
    """The state each env.step is taken from, in call order."""
    states = []
    step = ClusterEnv.step

    def counted(self, action):
        states.append(self.encode_state())
        return step(self, action)

    monkeypatch.setattr(ClusterEnv, "step", counted)
    return states


def test_greedy_a2c_policy_acts_through_agent_act(tmp_path, monkeypatch):
    """An a2c cell built from a saved checkpoint makes each decision in one
    greedy ActorCriticAgent.act on the state the env steps from."""
    config = AgentConfig(architecture="fc")
    env = ClusterEnv(SMALL_ENV)
    ActorCriticAgent(env.observation_shape(), SMALL_ENV.num_actions,
                     config=config, seed=0).save(tmp_path)
    calls = []
    monkeypatch.setattr(ActorCriticAgent, "act",
                        counting(ActorCriticAgent.act, calls))
    steps = counting_steps(monkeypatch)
    rows = small_cell("a2c", agent=config, checkpoint=str(tmp_path))
    assert len(rows) == 2 and steps
    assert len(calls) == len(steps)
    for ((_, state), kwargs), stepped in zip(calls, steps):
        assert np.array_equal(state, stepped)
        assert kwargs == {"greedy": True}


@pytest.mark.parametrize("kind, name", [("sjf", "sjf_select"),
                                        ("tetris", "tetris_select"),
                                        ("random", "random_select")])
def test_cells_call_heuristics_rebound_in_experiment(monkeypatch, kind, name):
    """perfbench's tracing.patch rebinds each heuristic in every rlsched
    module that holds it; a cell must call the rebound experiment global,
    once per decision, or the traced baselines metrics read zero."""
    calls = []
    monkeypatch.setattr(experiment, name,
                        counting(getattr(experiment, name), calls))
    steps = counting_steps(monkeypatch)
    small_cell(kind)
    assert steps and len(calls) == len(steps)


@pytest.mark.parametrize("policies", [("random",), ("random", "sjf", "tetris")])
def test_a_sweep_calls_the_traced_functions_its_benchmark_reads(
        tmp_path, monkeypatch, policies):
    """perfbench's sweep spans and `check_sweep` read `random_select` once
    per random decision and `ClusterEnv.reset` once per episode, with a job
    list the sweep drew; each env's own empty reset comes first."""
    selects, resets = [], []
    monkeypatch.setattr(experiment, "random_select",
                        counting(experiment.random_select, selects))
    monkeypatch.setattr(ClusterEnv, "reset", counting(ClusterEnv.reset, resets))
    steps = counting_steps(monkeypatch)
    spec = experiment.ExperimentSpec(policies=policies, job_rates=(0.6, 0.9),
                                     seeds=(0, 1), episodes=2, env=SMALL_ENV,
                                     workload=SMALL_WL)
    rows, _ = experiment.run_experiment(spec, tmp_path)
    cells = len(policies) * len(spec.job_rates) * len(spec.seeds)
    assert len(rows) == cells * spec.episodes
    # per cell: ClusterEnv()'s reset([]), then one reset per episode
    assert [bool(args[1]) for args, _ in resets] == (
        [False] + [True] * spec.episodes) * cells
    assert all(type(args[1]) is JobList for args, _ in resets if args[1])
    assert selects
    if policies == ("random",):
        assert len(selects) == len(steps)
