"""The benchmark in `perfbench/` times and checks rlsched by wrapping its
functions from outside the package. These tests keep that contract in the
fast suite: every wrapped name resolves, and the training and evaluation
paths call the wrapped functions, so a hook cannot go silent and let a
benchmark check pass on zero samples."""
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from rlsched import agent as agent_module
from rlsched.agent import ActorCriticAgent, AgentConfig, Transition
from rlsched.baselines import make_policy
from rlsched.config import EnvConfig
from rlsched.env import ClusterEnv, Job
from rlsched.nn import flatten

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench's tracing module, imported without installing any hook."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
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
    assert [args[0] for args in calls] == segments


def test_greedy_a2c_policy_acts_through_agent_act(monkeypatch):
    cfg = EnvConfig()
    env = ClusterEnv(cfg).reset([Job(0, 0, 2, (1, 1))])
    agent = ActorCriticAgent(env.observation_shape(), cfg.num_actions,
                             config=AgentConfig(architecture="fc"), seed=0)
    policy = make_policy("a2c", agent=agent)
    calls = []
    monkeypatch.setattr(ActorCriticAgent, "act",
                        counting(ActorCriticAgent.act, calls))
    action = policy(env)
    assert len(calls) == 1
    (self, state, *_), = calls
    assert self is agent and np.array_equal(state, env.encode_state())
    assert action == agent.act(state, mode="greedy")
