"""Reference scheduling policies sharing the agent's action interface.

A policy is a callable env -> action index. The heuristics look at the
environment state directly (they are not learners) and choose only among
`env.fitting_jobs()`, the queued jobs that fit right now, at start offset 0;
reserving future rows is left to the learned agent.
"""
from __future__ import annotations

import math

import numpy as np

from .env import ClusterEnv
from .errors import ConfigError
from .metrics import EpisodeReport, episode_report

POLICY_KINDS = ("random", "sjf", "tetris", "a2c")
LAM_SHORT = 0.05  # Tetris's weight on the short-job term
VOID = (0, None)  # the void action, as an (action, job) pair


def sjf_select(env: ClusterEnv) -> int:
    """The shortest fitting job; ties go to the lowest action, since `min`
    returns the first minimum; void when nothing fits."""
    return min(env.fitting_jobs(), key=lambda pair: pair[1].duration,
               default=VOID)[0]


def tetris_select(env: ClusterEnv) -> int:
    """Packing-plus-short-jobs score: cosine alignment between the current
    row's free-resource vector and the job demand, plus LAM_SHORT / duration.
    Ties go to the lowest action, since `max` returns the first maximum; void
    when nothing fits.

    Free units and demands are small integers, so their sums of squares and
    dot products are exact in Python integers, and `math.sqrt` and the one
    division round exactly as the float64 norm and dot product would."""
    free = [cap - col[0] for cap, col in
            zip(env.config.capacities, env.image.columns)]
    free_norm = math.sqrt(sum(f * f for f in free))

    def score(pair) -> float:
        demand = pair[1].demand
        norm = free_norm * math.sqrt(sum(d * d for d in demand))
        alignment = (
            sum(f * d for f, d in zip(free, demand)) / norm if norm > 0 else 0.0
        )
        return alignment + LAM_SHORT / pair[1].duration

    return max(env.fitting_jobs(), key=score, default=VOID)[0]


def random_select(env: ClusterEnv, rng: np.random.Generator) -> int:
    """Uniform over the fitting jobs' actions plus the void action."""
    choices = [0] + [action for action, _ in env.fitting_jobs()]
    return int(choices[rng.integers(len(choices))])


def make_policy(kind: str, rng: np.random.Generator | None = None, agent=None):
    """Build a policy callable, one of POLICY_KINDS. `random` needs an rng;
    `a2c` needs a trained agent (greedy action selection)."""
    if kind == "sjf":
        return sjf_select
    if kind == "tetris":
        return tetris_select
    if kind == "random":
        if rng is None:
            raise ConfigError("random policy needs an rng")
        return lambda env: random_select(env, rng)
    if kind == "a2c":
        if agent is None:
            raise ConfigError("a2c policy needs a trained agent")
        return lambda env: agent.act(env.encode_state(), mode="greedy")
    raise ConfigError(f"unknown policy kind {kind!r}; pick from {POLICY_KINDS}")


def run_greedy(policy, env: ClusterEnv, jobs, gamma: float) -> EpisodeReport:
    """Reset `env` to `jobs` and drive it with `policy` until the episode
    ends. Non-void actions pack jobs within the current step; void advances
    time."""
    env.reset(jobs)
    rewards = []
    while not env.is_done():
        outcome = env.step(policy(env))
        rewards.append(outcome.reward)
    return episode_report(env.completed, rewards, gamma, total_jobs=len(env.jobs))
