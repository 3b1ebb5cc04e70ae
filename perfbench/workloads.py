"""The benchmark's three workloads and the hooks that record what they ran.

All three are closed loops: the simulator asks for the next decision only
after the previous one returns, and jobs arrive in simulated time. One
operation is one episode. A round is a fixed set of episodes, the same in
every round of a run, so the failed share of a run does not depend on how
many rounds fit in its time.
"""
from __future__ import annotations

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np

from rlsched import agent, env, experiment, metrics, workload
from rlsched.nn import checkpoint, network

from checks import (check_greedy, check_jobs, check_loaded, check_n_step,
                    check_sweep, check_training)
from tracing import patch

# Network.forward as rlsched defines it, taken before any wrapper is
# installed, so the checks' own forward passes are never traced
_forward = network.Network.forward


@dataclasses.dataclass
class Episode:
    """What the benchmark recorded about one episode the program ran."""

    jobs: list  # copies of the env's jobs with their start/finish records
    steps: int
    total_reward: float
    repeats: int = 0  # trailing greedy acts on an unchanged state (F2)


class Sampler:
    """Picks the first call, then each call whose countdown, drawn from the
    seed, runs out. The same calls are picked in every round."""

    def __init__(self, seed: int, stream: int, gap: int):
        self.seed, self.stream, self.gap = seed, stream, gap
        self.restart()

    def restart(self) -> None:
        self.rng = np.random.default_rng([self.seed, self.stream])
        self.countdown = 1

    def _draw(self) -> int:
        return int(self.rng.integers(1, 2 * self.gap))

    def pick(self) -> bool:
        self.countdown -= 1
        if self.countdown:
            return False
        self.countdown = self._draw()
        return True


class Recorder:
    """Capture hooks around rlsched's public functions. They record, per
    round, every episode and the samples the correctness checks need."""

    def __init__(self, seed: int):
        self.seed = seed
        self.samplers: list[Sampler] = []
        self.start_round()
        self._hook_episodes()

    def start_round(self) -> None:
        self.episodes: list[Episode] = []
        self.acts: list[dict] = []
        self.loads: list[tuple] = []
        self.segments: list[dict] = []
        self._env = None
        self._last = (None, None)  # previous greedy (state, action)
        self._repeats = 0
        for sampler in self.samplers:
            sampler.restart()

    def _hook_episodes(self) -> None:
        recorder = self

        def on_reset(fn):
            def reset(self, *args, **kwargs):
                recorder._env = self
                recorder._repeats = 0
                return fn(self, *args, **kwargs)
            return reset

        def on_report(fn):
            def episode_report(outcomes, rewards, *args, **kwargs):
                report = fn(outcomes, rewards, *args, **kwargs)
                recorder.episodes.append(Episode(
                    jobs=[dataclasses.replace(j) for j in recorder._env.jobs],
                    steps=len(rewards),
                    total_reward=math.fsum(rewards),
                    repeats=recorder._repeats,
                ))
                return report
            return episode_report

        patch(env.ClusterEnv, "reset", on_reset)
        patch(metrics, "episode_report", on_report)

    def hook_acts(self, gap: int) -> None:
        """Greedy acts: counts repeats on an unchanged state and keeps a
        sample of (actor, state, action) for the reference forward check."""
        recorder = self
        sampler = Sampler(self.seed, 1, gap)
        self.samplers.append(sampler)

        def on_act(fn):
            def act(self, state, *args, **kwargs):
                action = fn(self, state, *args, **kwargs)
                last_state, last_action = recorder._last
                if action == last_action and np.array_equal(state, last_state):
                    recorder._repeats += 1
                else:
                    recorder._repeats = 0
                recorder._last = (state, action)
                if sampler.pick():
                    recorder.acts.append({"net": self.actor, "state": state,
                                          "action": action})
                return action
            return act

        patch(agent.ActorCriticAgent, "act", on_act)

    def hook_loads(self) -> None:
        recorder = self

        def on_load(fn):
            def load_params(net, path):
                fn(net, path)
                recorder.loads.append(
                    (Path(path).name, [a.copy() for a in net.parameter_arrays()]))
            return load_params

        patch(checkpoint, "load_params", on_load)

    def hook_n_step(self, gap: int) -> None:
        """Keeps a sample of n-step calls with every value they read."""
        recorder = self
        sampler = Sampler(self.seed, 2, gap)
        self.samplers.append(sampler)

        def on_n_step(fn):
            def n_step_returns(segment, gamma, value_fn, n):
                targets, advantages = fn(segment, gamma, value_fn, n)
                if sampler.pick():
                    last = segment[-1]
                    recorder.segments.append({
                        "rewards": [tr.reward for tr in segment],
                        "values": [float(value_fn(tr.state)) for tr in segment],
                        "bootstrap": 0.0 if last.done
                        else float(value_fn(last.next_state)),
                        "gamma": gamma, "n": n,
                        "targets": targets.copy(), "advantages": advantages.copy(),
                    })
                return targets, advantages
            return n_step_returns

        patch(agent, "n_step_returns", on_n_step)


@dataclasses.dataclass
class RoundResult:
    """One round: what it did, a cause for each failed episode, and the
    messages of the checks that failed."""

    costs: list  # -(total reward) / jobs, per episode that ran
    jobs_completed: int
    steps: int
    failures: list
    errors: list


def _unfinished(ep: Episode) -> bool:
    return any(j.finished_at is None for j in ep.jobs)


class Workload:
    """`prepare` runs once, `setup` is the timed set-up (repeated), `run`
    is one round of `planned` episodes and `finish` checks it."""

    planned: int

    def __init__(self, seed: int, small: bool, out_dir: Path, recorder: Recorder):
        self.seed, self.small, self.out_dir = seed, small, out_dir
        self.recorder = recorder

    def prepare(self) -> None:
        pass

    def result(self, failures: list, errors: list) -> RoundResult:
        """`failures` names the cause of each failed episode that ran; the
        planned episodes that never ran count as failed by `error`."""
        episodes = self.recorder.episodes
        return RoundResult(
            costs=[-ep.total_reward / len(ep.jobs) for ep in episodes],
            jobs_completed=sum(j.finished_at is not None
                               for ep in episodes for j in ep.jobs),
            steps=sum(ep.steps for ep in episodes),
            failures=failures + ["error"] * (self.planned - len(episodes)),
            errors=errors)


class SweepBaselines(Workload):
    """run_experiment over random, sjf and tetris x rates 0.6-0.9 x two
    seeds drawn from the workload seed, 20 episodes per cell."""

    name = "sweep-baselines"
    policies = ("random", "sjf", "tetris")

    def __init__(self, *args):
        super().__init__(*args)
        self.seeds = (2 * self.seed, 2 * self.seed + 1)
        self.rates = (0.6, 0.9) if self.small else (0.6, 0.7, 0.8, 0.9)
        self.episodes = 2 if self.small else 20
        self.planned = len(self.rates) * len(self.policies) * len(self.seeds) \
            * self.episodes

    def setup(self) -> None:
        """The spec, and the job sequences its cells will draw (the same seed
        derivation as run_experiment; every policy of a cell faces them)."""
        self.spec = experiment.ExperimentSpec(
            policies=self.policies, job_rates=self.rates, seeds=self.seeds,
            episodes=self.episodes, summary_window=self.episodes,
            env=env.EnvConfig())
        self.inputs = {}
        for rate_index, rate in enumerate(self.rates):
            for seed in self.seeds:
                for ep in range(self.episodes):
                    wseed = int(np.random.SeedSequence(
                        [seed, rate_index, ep]).generate_state(1)[0])
                    self.inputs[(rate, seed, ep)] = workload.generate(
                        dataclasses.replace(self.spec.workload, rate=rate,
                                            seed=wseed), self.spec.env)

    def run(self):
        with tempfile.TemporaryDirectory(dir=self.out_dir) as out:
            return experiment.run_experiment(self.spec, out)

    def finish(self, output) -> RoundResult:
        episodes = self.recorder.episodes
        errors = check_sweep(*output, episodes, self.inputs,
                             self.spec.env.capacities) if output else []
        return self.result(["truncated" for ep in episodes if _unfinished(ep)],
                           errors)


class TrainConv16(Workload):
    """train() with the default AgentConfig (conv16, n_steps 5) on the
    default workload (rate 0.7, seed 0), agent seed 0, two episodes: the
    first learns, the second shows policy collapse (F1)."""

    name = "train-conv16"
    planned = 2
    entropy_collapsed = 0.1  # F1: mean policy entropy of a truncated episode

    def __init__(self, *args):
        super().__init__(*args)
        self.recorder.hook_n_step(gap=40)

    def setup(self) -> None:
        """Config, the training sequence and an agent like the one train()
        builds from seed 0."""
        self.env_config = env.EnvConfig(
            episode_limit=300 if self.small else env.EnvConfig().episode_limit)
        self.agent_config = agent.AgentConfig()
        self.sequences = [workload.generate(workload.WorkloadSpec(rate=0.7, seed=0),
                                            self.env_config)]
        shape = env.ClusterEnv(self.env_config).observation_shape()
        agent.ActorCriticAgent(shape, self.env_config.queue_slots + 1,
                               config=self.agent_config, seed=0)

    def run(self):
        records, _ = agent.train(self.env_config, self.sequences,
                                 self.agent_config, episodes=self.planned, seed=0)
        return records

    def finish(self, records) -> RoundResult:
        records = records or []
        errors = check_training(records, self.recorder.episodes,
                                self.agent_config.n_steps,
                                self.env_config.queue_slots + 1,
                                self.env_config.capacities) if records else []
        errors += check_n_step(self.recorder.segments)
        return self.result(
            ["F1" if rec.entropy < self.entropy_collapsed else "truncated"
             for rec in records if rec.truncated], errors)


class EvalConv32Pool(Workload):
    """Greedy a2c cells of run_experiment (rates 0.6 and 0.9, seed 0, one
    episode each) from a conv32_pool checkpoint trained for one episode on
    the default workload with seed 0. Every episode livelocks today (F2)."""

    name = "eval-conv32pool"
    rates = (0.6, 0.9)
    planned = len(rates)
    livelock_repeats = 100  # F2: trailing acts on an unchanged state

    def __init__(self, *args):
        super().__init__(*args)
        self.recorder.hook_acts(gap=500)
        self.recorder.hook_loads()
        self.checkpoint_dir = self.out_dir / "checkpoint"

    def _configs(self):
        return (env.EnvConfig(episode_limit=300 if self.small
                              else env.EnvConfig().episode_limit),
                agent.AgentConfig(architecture="conv32_pool"))

    def prepare(self) -> None:
        """Trains the checkpoint's agent: one episode, seed 0."""
        env_config, agent_config = self._configs()
        jobs = workload.generate(workload.WorkloadSpec(rate=0.7, seed=0), env_config)
        _, self.trained = agent.train(env_config, [jobs], agent_config,
                                      episodes=1, seed=0)
        self.saved = {
            "actor.npz": [a.copy() for a in self.trained.actor.parameter_arrays()],
            "critic.npz": [a.copy() for a in self.trained.critic.parameter_arrays()],
        }

    def setup(self) -> None:
        """Config and spec, the checkpoint write, and an agent that loads it."""
        self.env_config, agent_config = self._configs()
        self.spec = experiment.ExperimentSpec(
            policies=("a2c",), job_rates=self.rates, seeds=(0,), episodes=1,
            env=self.env_config, agent=agent_config,
            checkpoint=str(self.checkpoint_dir))
        self.trained.save(self.checkpoint_dir)
        shape = env.ClusterEnv(self.env_config).observation_shape()
        agent.ActorCriticAgent(shape, self.env_config.queue_slots + 1,
                               config=agent_config, seed=0).load(self.checkpoint_dir)

    def run(self):
        with tempfile.TemporaryDirectory(dir=self.out_dir) as out:
            return experiment.run_experiment(self.spec, out)

    def finish(self, output) -> RoundResult:
        rec = self.recorder
        for sample in rec.acts:
            logits, _ = _forward(sample["net"], sample["state"][None, None])
            sample["logits"] = logits[0]
        errors = check_loaded(self.saved, rec.loads) + check_greedy(rec.acts)
        if output and len(output[0]) != len(rec.episodes):
            errors.append(f"{len(output[0])} rows but {len(rec.episodes)} "
                          f"episodes ran")
        for ep in rec.episodes:
            errors += check_jobs(ep.jobs, self.env_config.capacities)
        return self.result(
            ["F2" if ep.repeats >= self.livelock_repeats else "truncated"
             for ep in rec.episodes if _unfinished(ep)], errors)


WORKLOADS = {w.name: w for w in (SweepBaselines, TrainConv16, EvalConv32Pool)}
