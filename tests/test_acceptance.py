"""Acceptance suite.

One test per criterion; each prints a `[PASS]`/`[FAIL]` line with the
measured numbers so the whole gate can be read off `pytest -s
tests/test_acceptance.py`. Training-based criteria use documented
hyperparameters from ACCEPT_* constants; everything is seeded and
deterministic.
"""
import dataclasses
import itertools
import time

import numpy as np
import pytest

from invariants import random_stress
from rlsched.agent import (
    ActorCriticAgent,
    AgentConfig,
    Transition,
    architecture_chain,
    train,
)
from rlsched.baselines import run_greedy, sjf_select
from rlsched.config import EnvConfig
from rlsched.env import ClusterEnv, Job
from rlsched.experiment import ExperimentSpec, run_experiment
from rlsched.nn import Network, dense, flatten, gradient_check
from rlsched.workload import WorkloadSpec, generate, load_trace, save_trace


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# -- criterion 1: gradient correctness -------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.time()
    shape = (1, 20, 123)  # the default environment's encoded state

    def projection_head(width, seed=7):
        g = np.random.default_rng(seed).standard_normal(width)

        def head(out):
            return float((out @ g).sum()), np.tile(g, (out.shape[0], 1))

        return head

    worst = {}
    for arch in ("fc", "conv16", "conv32", "conv16_pool", "conv32_pool"):
        net = Network(
            architecture_chain(arch) + [dense(6)], shape, seed=0, init_scale=0.05
        ).astype(np.float64)
        x = np.random.default_rng(100).standard_normal((1,) + shape)
        worst[arch] = gradient_check(
            net, x, projection_head(6), num_samples=200, step=1e-5, seed=0
        )
    elapsed = time.time() - started
    detail = (
        ", ".join(f"{a}={e:.2e}" for a, e in worst.items())
        + f" (limit 1e-4, {elapsed:.0f}s)"
    )
    report(
        "criterion 1 gradient correctness",
        max(worst.values()) < 1e-4 and elapsed < 60,
        detail,
    )


# -- criterion 2: critic fixed point ----------------------------------------------


def exact_value_iteration(rewards, gamma):
    """Brute-force Bellman solution for a deterministic chain ending in a
    terminal state."""
    values = [0.0] * (len(rewards) + 1)
    for _ in range(1000):
        for i in range(len(rewards)):
            values[i] = rewards[i] + gamma * values[i + 1]
    return values[:-1]


def test_criterion_2_critic_fixed_point():
    started = time.time()
    config = AgentConfig(gamma=0.9, lr_actor=1e-3, lr_critic=0.05, n_steps=1,
                         entropy_coeff=0.0, init_scale=0.01)
    agent = ActorCriticAgent((1, 3), 2, config=config, seed=0,
                             chain=[flatten()])
    s0, s1, s2 = (np.eye(3, dtype=np.float32)[i].reshape(1, 3) for i in range(3))
    transitions = [
        Transition(s0, 0, -1.0, s1, done=False),
        Transition(s1, 0, -1.0, s2, done=True),
    ]
    updates = 0
    for _ in range(2000):
        for tr in transitions:
            agent.update([tr])
            updates += 1
        if updates >= 4000:
            break
    oracle = exact_value_iteration([-1.0, -1.0], gamma=0.9)
    learned = [agent.value(s0), agent.value(s1)]
    errs = [abs(a - b) for a, b in zip(learned, oracle)]
    elapsed = time.time() - started
    report(
        "criterion 2 critic fixed point",
        max(errs) <= 0.02 and updates <= 5000 and elapsed < 60,
        f"learned=({learned[0]:.3f}, {learned[1]:.3f}) oracle=({oracle[0]:.1f}, "
        f"{oracle[1]:.1f}) after {updates} updates ({elapsed:.0f}s)",
    )


# -- criterion 3: SJF optimality oracle ---------------------------------------------


def brute_force_min_avg_waiting(durations):
    best = None
    for order in itertools.permutations(durations):
        waiting, clock = 0, 0
        for d in order:
            waiting += clock
            clock += d
        best = waiting if best is None else min(best, waiting)
    return best / len(durations)


def test_criterion_3_sjf_oracle():
    started = time.time()
    rng = np.random.default_rng(2024)
    cfg = EnvConfig(horizon=10, capacities=(1, 1), queue_slots=7,
                    backlog_size=10, episode_limit=300)
    env = ClusterEnv(cfg)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        durations = [int(rng.integers(1, 7)) for _ in range(n)]
        jobs = [Job(i, 0, d, (1, 1)) for i, d in enumerate(durations)]
        rep = run_greedy(sjf_select, env, jobs, 0.99)
        assert rep.completed == n
        assert rep.avg_waiting_time == brute_force_min_avg_waiting(durations)
        checked += 1
    elapsed = time.time() - started
    report(
        "criterion 3 SJF oracle",
        checked == 100 and elapsed < 60,
        f"{checked} instances, exact equality ({elapsed:.0f}s)",
    )


# -- criterion 4: environment conservation suite -------------------------------------


def test_criterion_4_conservation_suite():
    started = time.time()
    env = ClusterEnv(EnvConfig(episode_limit=400))
    spec = WorkloadSpec(rate=0.7, length=120)
    executed = random_stress(
        env,
        lambda s: dataclasses.replace(spec, seed=s),
        steps=100_000,
        seed=99,
    )
    elapsed = time.time() - started
    report(
        "criterion 4 conservation suite",
        executed == 100_000 and elapsed < 120,
        f"{executed} random steps, zero violations ({elapsed:.0f}s)",
    )


# -- criterion 5 + 9: baseline ordering and sweep determinism -------------------------


def baseline_sweep_spec():
    return ExperimentSpec(
        policies=("random", "sjf", "tetris"),
        job_rates=(0.6, 0.7, 0.8, 0.9),
        seeds=(0, 1, 2, 3, 4),
        episodes=10,
        summary_window=10,
    )


def test_criterion_5_baseline_ordering(tmp_path):
    started = time.time()
    _, summaries = run_experiment(baseline_sweep_spec(), tmp_path / "sweep")
    table = {
        (s["job_rate"], s["seed"], s["policy"]): s["avg_slowdown_mean"]
        for s in summaries
    }
    violations = []
    for rate in (0.6, 0.7, 0.8, 0.9):
        for seed in range(5):
            rnd = table[(rate, seed, "random")]
            tet = table[(rate, seed, "tetris")]
            sjf = table[(rate, seed, "sjf")]
            if not (rnd > tet >= sjf):
                violations.append((rate, seed, round(rnd, 2), round(tet, 2),
                                   round(sjf, 2)))
    elapsed = time.time() - started
    report(
        "criterion 5 baseline ordering",
        not violations and elapsed < 300,
        f"20 cells random>tetris>=sjf, violations={violations} ({elapsed:.0f}s)",
    )


def test_criterion_9_sweep_determinism(tmp_path):
    started = time.time()
    spec = dataclasses.replace(baseline_sweep_spec(), job_rates=(0.7,),
                               seeds=(0, 1), episodes=5, summary_window=5)
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("episodes.csv", "summary.csv", "manifest.json")
    )
    elapsed = time.time() - started
    report(
        "criterion 9 sweep determinism",
        same,
        f"re-run byte-identical across results files ({elapsed:.0f}s)",
    )
