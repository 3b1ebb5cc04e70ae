"""Tests of the benchmark itself: `python -m pytest perfbench`.

Small runs go through the same command the benchmark is run with; each
correctness check must reject a deliberately corrupted output.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from rlsched.env import Job  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_small_run_prints_every_metric(workload, trace):
    lines, result = run_command(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines), m["name"]
    assert f"episodes attempted {result['attempted']}  failed {result['failed']}" \
        in lines[0]


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-conv16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- each check rejects a corrupted output ---------------------------------------


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One small round of each workload, run in this process."""
    done = {}
    for name, cls in WORKLOADS.items():
        recorder = Recorder(seed=3)
        bench = cls(3, True, tmp_path_factory.mktemp(name), recorder)
        bench.prepare()
        bench.setup()
        recorder.start_round()
        output = bench.run()
        result = bench.finish(output)
        assert result.errors == []
        # a later workload's hooks also feed this recorder: keep a snapshot
        done[name] = (bench, output, SimpleNamespace(
            episodes=list(recorder.episodes), segments=list(recorder.segments),
            acts=list(recorder.acts), loads=list(recorder.loads)))
    return done


def test_jobs_check():
    jobs = [Job(0, 0, 3, (4, 1), started_at=1, finished_at=4),
            Job(1, 1, 2, (6, 2), started_at=2, finished_at=4)]
    assert checks.check_jobs(jobs, (10, 10)) == []
    shifted = copy.deepcopy(jobs)
    shifted[0].finished_at += 1
    assert checks.check_jobs(shifted, (10, 10))
    early = copy.deepcopy(jobs)
    early[1].started_at, early[1].finished_at = 0, 2
    assert checks.check_jobs(early, (10, 10))
    assert checks.check_jobs(jobs, (9, 10))  # 4 + 6 cpu at step 2


def corrupted_sweep(rounds, corrupt):
    bench, (rows, summaries), recorder = rounds["sweep-baselines"]
    rows, summaries, episodes = copy.deepcopy((rows, summaries, recorder.episodes))
    corrupt(rows, summaries, episodes)
    return checks.check_sweep(rows, summaries, episodes, bench.inputs,
                              bench.spec.env.capacities)


def _shift_finish(rows, summaries, episodes):
    episodes[5].jobs[3].finished_at += 1


def _alter_reward(rows, summaries, episodes):
    episodes[2].total_reward *= 1.0 + 1e-6


def _alter_waiting(rows, summaries, episodes):
    rows[7]["avg_waiting_time"] += 0.01


def _alter_summary(rows, summaries, episodes):
    summaries[1]["avg_completion_time_mean"] += 1e-6


def _drop_episode(rows, summaries, episodes):
    episodes.pop()


def _other_jobs(rows, summaries, episodes):
    job = episodes[0].jobs[0]
    episodes[0].jobs[0] = dataclasses.replace(job, duration=job.duration + 1,
                                              finished_at=job.finished_at + 1)


@pytest.mark.parametrize("corrupt", [_shift_finish, _alter_reward, _alter_waiting,
                                     _alter_summary, _drop_episode, _other_jobs])
def test_sweep_check_rejects(rounds, corrupt):
    assert corrupted_sweep(rounds, lambda *a: None) == []
    assert corrupted_sweep(rounds, corrupt)


def test_ordering_check_rejects():
    summary = lambda policy, value: {"job_rate": 0.7, "seed": 0, "policy": policy,
                                     "avg_slowdown_mean": value}
    good = [summary("random", 3.0), summary("tetris", 1.5), summary("sjf", 1.5)]
    assert checks.check_ordering(good) == []
    assert checks.check_ordering(good[:1] + [summary("tetris", 1.4)] + good[2:])
    assert checks.check_ordering([summary("random", 1.5)] + good[1:])


def corrupted_training(rounds, corrupt):
    bench, records, recorder = rounds["train-conv16"]
    records, episodes = copy.deepcopy((records, recorder.episodes))
    corrupt(records, episodes)
    return checks.check_training(records, episodes, bench.agent_config.n_steps,
                                  bench.env_config.queue_slots + 1,
                                  bench.env_config.capacities)


@pytest.mark.parametrize("field, value", [
    ("updates", lambda r: r.updates + 1),
    ("actor_loss", lambda r: math.nan),
    ("critic_loss", lambda r: math.inf),
    ("entropy", lambda r: math.log(6) + 1e-6),
    ("entropy", lambda r: -1e-9),
    ("total_reward", lambda r: -r.total_reward),
    ("total_reward", lambda r: r.total_reward * (1 + 1e-6)),
    ("steps", lambda r: r.steps - 1),
])
def test_training_check_rejects(rounds, field, value):
    assert corrupted_training(rounds, lambda records, episodes: None) == []

    def corrupt(records, episodes):
        first = records[0]  # the episode that finishes all its jobs
        setattr(first, field, value(first))

    assert corrupted_training(rounds, corrupt)


def test_n_step_check_rejects(rounds):
    _, _, recorder = rounds["train-conv16"]
    samples = copy.deepcopy(recorder.segments)
    assert samples and checks.check_n_step(samples) == []
    samples[0]["targets"][-1] += 1e-6
    assert checks.check_n_step(samples)
    samples = copy.deepcopy(recorder.segments)
    samples[0]["advantages"][0] -= 1e-6
    assert checks.check_n_step(samples)


def test_greedy_check_rejects(rounds):
    _, _, recorder = rounds["eval-conv32pool"]
    samples = [dict(s) for s in recorder.acts]
    assert samples and checks.check_greedy(samples) == []
    logits = samples[0]["logits"].copy()
    logits[1] += 0.01 * np.abs(logits).max()
    assert checks.check_greedy([{**samples[0], "logits": logits}])
    wrong = (samples[0]["action"] + 1) % len(logits)
    assert checks.check_greedy([{**samples[0], "action": wrong}])


def test_loaded_check_rejects(rounds):
    bench, _, recorder = rounds["eval-conv32pool"]
    loads = copy.deepcopy(recorder.loads)
    assert loads and checks.check_loaded(bench.saved, loads) == []
    loads[0][1][0].flat[7] += np.float32(1e-3)
    assert checks.check_loaded(bench.saved, loads)


def test_reference_forward_matches_program_on_random_input():
    """The reference pass agrees with Network.forward away from the states
    the benchmark happens to visit (random weights, random occupancy)."""
    from rlsched.agent import architecture_chain
    from rlsched.nn import Network, dense

    rng = np.random.default_rng(0)
    for arch in ("conv16", "conv32_pool", "fc"):
        net = Network(architecture_chain(arch) + [dense(6)], (1, 20, 33), seed=1,
                      init_scale=0.3)
        state = (rng.random((20, 33)) < 0.4).astype(np.float32)
        logits, _ = net.forward(state[None, None])
        ref = checks.reference_logits(net, state)
        assert np.abs(logits[0] - ref).max() <= checks.LOGIT_TOL * np.abs(ref).max()
