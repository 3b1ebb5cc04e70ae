"""The three heuristic policies, SJF, Tetris and random, and `run_greedy`,
which drives an environment with any policy for one episode.

A policy is a callable env -> action index. The heuristics look at the
environment state directly (they are not learners) and choose only among
`env.fitting_jobs()`, the queued jobs that fit right now, at start offset 0;
reserving future rows is left to the learned agent.
"""
from __future__ import annotations

import math
import operator

import numpy as np

from .env import ClusterEnv
from .metrics import EpisodeReport, episode_report

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
    Ties go to the lowest action, since `max` returns the first maximum.
    When nothing fits it returns void at once, before it builds the free
    vector or scores anything.

    Free units and demands are small integers, so their sums of squares and
    dot products, taken with `sum(map(operator.mul, ...))`, are exact in
    Python integers, and `math.sqrt` and the one division round exactly as
    the float64 norm and dot product would."""
    candidates = env.fitting_jobs()
    if not candidates:
        return 0
    mul = operator.mul
    free = [cap - col[0] for cap, col in
            zip(env.config.capacities, env.image.columns)]
    free_norm = math.sqrt(sum(map(mul, free, free)))

    def score(pair) -> float:
        job = pair[1]
        demand = job.demand
        norm = free_norm * math.sqrt(sum(map(mul, demand, demand)))
        alignment = sum(map(mul, free, demand)) / norm if norm > 0 else 0.0
        return alignment + LAM_SHORT / job.duration

    return max(candidates, key=score)[0]


def random_select(env: ClusterEnv, rng: np.random.Generator) -> int:
    """Uniform over the fitting jobs' actions plus the void action.

    When nothing fits, void is the only choice and it returns 0 without
    touching `rng`. This leaves the stream as it was: `rng.integers(1)`
    draws no bits either, so every later draw, and every episode of the
    random policy, is the same as if it had been called."""
    candidates = env.fitting_jobs()
    if not candidates:
        return 0
    pick = int(rng.integers(len(candidates) + 1))  # 0 is void
    return candidates[pick - 1][0] if pick else 0


def run_greedy(policy, env: ClusterEnv, jobs, gamma: float) -> EpisodeReport:
    """Reset `env` to `jobs` and drive it with `policy` until the episode
    ends. Non-void actions pack jobs within the current step; void advances
    time."""
    env.reset(jobs)
    rewards = []
    done = env.is_done()
    while not done:
        outcome = env.step(policy(env))
        rewards.append(outcome.reward)
        done = outcome.done
    return episode_report(env.completed, rewards, gamma, total_jobs=len(env.jobs))
