import csv
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from rlsched import experiment, workload
from rlsched.agent import (
    ARCHITECTURE_NAMES,
    ActorCriticAgent,
    AgentConfig,
    checkpoint_architecture,
)
from rlsched.config import EnvConfig
from rlsched.env import ClusterEnv
from rlsched.errors import ConfigError
from rlsched.experiment import (
    ExperimentSpec,
    cell_sequences,
    config_hash,
    emit_plot_series,
    run_cell,
    run_experiment,
)
from rlsched.workload import WorkloadSpec, draw_sequences, generate

SMALL_ENV = EnvConfig(horizon=8, capacities=(4, 4), queue_slots=3,
                      backlog_size=10, episode_limit=200)
SMALL_WL = WorkloadSpec(length=15, small_duration_range=(1, 2),
                        large_duration_range=(4, 6),
                        dominant_demand_range=(1, 2),
                        other_demand_range=(1, 1))


def small_spec(**overrides):
    kwargs = dict(
        policies=("random", "sjf"),
        job_rates=(0.7,),
        seeds=(0, 1),
        episodes=3,
        summary_window=2,
        env=SMALL_ENV,
        workload=SMALL_WL,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def read_bytes(path):
    return path.read_bytes()


def test_sweep_writes_expected_files(tmp_path):
    episode_rows, summary_rows = run_experiment(small_spec(), tmp_path / "r")
    assert (tmp_path / "r" / "episodes.csv").exists()
    assert (tmp_path / "r" / "summary.csv").exists()
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert len(manifest["cells"]) == 4  # 2 policies x 1 rate x 2 seeds
    assert all(c["status"] == "complete" for c in manifest["cells"])
    assert manifest["config_hash"] == config_hash(small_spec())
    assert len(episode_rows) == 4 * 3
    assert len(summary_rows) == 4


def test_sweep_rerun_is_byte_identical(tmp_path):
    spec = small_spec()
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    for name in ("episodes.csv", "summary.csv", "manifest.json"):
        assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)


@pytest.mark.parametrize("overrides", [
    {"seeds": (np.int64(0), np.int32(1))},
    {"episodes": np.int64(3)},
    {"env": replace(SMALL_ENV, horizon=np.int64(8))},
    {"workload": replace(SMALL_WL, large_duration_range=(np.int64(4), np.int16(6)))},
], ids=["numpy-seeds", "numpy-episodes", "numpy-horizon", "numpy-bounds"])
def test_numpy_integers_in_the_spec_write_the_plain_int_files(tmp_path, overrides):
    run_experiment(small_spec(), tmp_path / "plain")
    run_experiment(small_spec(**overrides), tmp_path / "numpy")
    for name in ("episodes.csv", "summary.csv", "manifest.json"):
        assert read_bytes(tmp_path / "numpy" / name) == \
            read_bytes(tmp_path / "plain" / name)


def test_sweep_zero_seeds_empty_results(tmp_path):
    run_experiment(small_spec(seeds=()), tmp_path / "r")
    with open(tmp_path / "r" / "episodes.csv") as fh:
        assert len(list(csv.reader(fh))) == 1  # header only
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["cells"] == []


@pytest.mark.parametrize("rate_index", [0, 1])
def test_cell_sequences_draws_by_the_one_seed_rule(rate_index):
    spec = small_spec(job_rates=(0.5, 0.7))
    assert cell_sequences(spec, rate_index, 1) == draw_sequences(
        replace(spec.workload, rate=spec.job_rates[rate_index]), spec.env,
        spec.episodes, 1, rate_index)


def test_sweep_policies_share_workloads(tmp_path, monkeypatch):
    """Each (rate, seed)'s sequences are drawn once, every policy of the
    cell runs the same jobs, and the shared lists are never written to."""
    spec = small_spec(policies=("random", "sjf", "tetris"), job_rates=(0.5, 0.7))
    drawn, ran = [], []
    reset = ClusterEnv.reset

    def counting_generate(*args):
        jobs = generate(*args)
        drawn.append(jobs)
        return jobs

    def recording_reset(self, jobs):
        reset(self, jobs)
        if jobs:  # not the empty reset of ClusterEnv()
            ran.append([(j.id, j.arrival, j.duration, j.demand) for j in self.jobs])
        return self

    monkeypatch.setattr(workload, "generate", counting_generate)
    monkeypatch.setattr(ClusterEnv, "reset", recording_reset)
    rows, _ = run_experiment(spec, tmp_path / "r")

    assert len(drawn) == len(spec.job_rates) * len(spec.seeds) * spec.episodes
    assert len(ran) == len(rows) == len(spec.policies) * len(drawn)
    by_episode = {}
    for row, jobs in zip(rows, ran):
        key = (row["job_rate"], row["seed"], row["episode"])
        by_episode.setdefault(key, {})[row["policy"]] = jobs
    assert len(by_episode) == len(drawn)
    for runs in by_episode.values():
        assert sorted(runs) == sorted(spec.policies)
        assert all(jobs == runs["random"] for jobs in runs.values())
    assert all(j.started_at is None and j.finished_at is None
               for jobs in drawn for j in jobs)


def test_sjf_beats_random_in_sweep(tmp_path):
    _, summaries = run_experiment(
        small_spec(episodes=6, summary_window=6), tmp_path / "r"
    )
    by_policy = {}
    for s in summaries:
        by_policy.setdefault(s["policy"], []).append(s["avg_slowdown_mean"])
    import numpy as np

    assert np.mean(by_policy["sjf"]) < np.mean(by_policy["random"])


def test_a2c_policy_requires_checkpoint():
    with pytest.raises(ConfigError):
        small_spec(policies=("a2c",))


@pytest.mark.parametrize("kind", ["a2c", "fifo"])
def test_run_cell_rejects_a_policy_the_spec_does_not_list(kind):
    # a2c without a checkpoint, or an unknown kind, cannot reach a cell
    spec = small_spec()
    with pytest.raises(ConfigError, match=kind):
        run_cell(spec, kind, 0, 0, cell_sequences(spec, 0, 0))


@pytest.mark.parametrize("arch", ARCHITECTURE_NAMES)
def test_every_architecture_round_trips_through_its_checkpoint(tmp_path, monkeypatch,
                                                               arch):
    """The a2c cell builds the network its checkpoint names, whatever
    spec.agent.architecture says, with the saved parameters bit for bit."""
    env = ClusterEnv(SMALL_ENV)
    shape, actions = env.observation_shape(), SMALL_ENV.num_actions
    saved = ActorCriticAgent(shape, actions, config=AgentConfig(
        architecture=arch, init_scale=0.5), seed=3)
    saved.save(tmp_path)
    assert checkpoint_architecture(tmp_path, shape, actions) == arch

    built = []

    class Recording(ActorCriticAgent):
        def load(self, directory):
            super().load(directory)
            built.append(self)

    monkeypatch.setattr(experiment, "ActorCriticAgent", Recording)
    other = "fc" if arch != "fc" else "conv16"
    spec = small_spec(policies=("a2c",), checkpoint=str(tmp_path),
                      agent=AgentConfig(architecture=other))
    policy = experiment._build_policy("a2c", spec, env, seed=0, rate_index=0)
    (agent,) = built
    assert agent.config.architecture == arch
    for net, want in ((agent.actor, saved.actor), (agent.critic, saved.critic)):
        assert net.fingerprint() == want.fingerprint()
        got, expected = net.parameter_arrays(), want.parameter_arrays()
        assert len(got) == len(expected)
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(got, expected))
    env.reset(cell_sequences(spec, 0, 0)[0])
    actions_taken = set()
    for _ in range(40):
        action = policy(env)
        assert action == saved.act(env.encode_state(), greedy=True)
        actions_taken.add(action)
        if env.step(action).done:
            break
    assert len(actions_taken) > 1  # the argmax moves, so the match is not trivial


def test_negative_episode_count_rejected():
    with pytest.raises(ConfigError, match="episodes must be >= 0, got -1"):
        small_spec(episodes=-1)


def test_plot_series_files_and_naming(tmp_path):
    run_experiment(small_spec(), tmp_path / "r")
    files = emit_plot_series(tmp_path / "r", tmp_path / "plots")
    # 4 metrics x 2 policies x 1 rate
    assert len(files) == 8
    names = {f.name for f in files}
    assert "series_avg_slowdown__sjf.csv" in names
    assert all(f.parent.name == "rate_0.7" for f in files)


def test_plot_series_single_episode_rows(tmp_path):
    run_experiment(small_spec(episodes=1), tmp_path / "r")
    files = emit_plot_series(tmp_path / "r", tmp_path / "plots")
    with open(sorted(files)[0]) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # header + one row


def test_plot_series_smoothing_window_one_is_identity(tmp_path):
    run_experiment(small_spec(), tmp_path / "r")
    emit_plot_series(tmp_path / "r", tmp_path / "p1", smooth=0)
    emit_plot_series(tmp_path / "r", tmp_path / "p2", smooth=1)
    a = (tmp_path / "p1" / "rate_0.7" / "series_avg_slowdown__sjf.csv").read_bytes()
    b = (tmp_path / "p2" / "rate_0.7" / "series_avg_slowdown__sjf.csv").read_bytes()
    assert a == b


def test_plot_series_smoothing_averages(tmp_path):
    run_experiment(small_spec(episodes=4, summary_window=4), tmp_path / "r")
    emit_plot_series(tmp_path / "r", tmp_path / "p1", smooth=0)
    emit_plot_series(tmp_path / "r", tmp_path / "p2", smooth=4)
    def col(path):
        with open(path) as fh:
            return [float(r["value"]) for r in csv.DictReader(fh)]
    raw = col(tmp_path / "p1" / "rate_0.7" / "series_avg_slowdown__sjf.csv")
    smoothed = col(tmp_path / "p2" / "rate_0.7" / "series_avg_slowdown__sjf.csv")
    assert smoothed[0] == pytest.approx(raw[0])
    assert smoothed[-1] == pytest.approx(sum(raw) / len(raw))


def test_failed_cell_flushes_partial_results_and_manifest(tmp_path):
    spec = small_spec(policies=("sjf", "a2c"), seeds=(0,),
                      checkpoint=str(tmp_path / "missing"))
    with pytest.raises(Exception):
        run_experiment(spec, tmp_path / "r")
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    statuses = {c["policy"]: c["status"] for c in manifest["cells"]}
    assert statuses["sjf"] == "complete"
    assert statuses["a2c"] == "incomplete"
    with open(tmp_path / "r" / "episodes.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["policy"] for r in rows} == {"sjf"}


# sha256 of the result files of the sweep below, recorded before the fit
# search and the Tetris score left numpy. Any change to the simulator or the
# heuristics that moves a single byte of their output fails here.
RECORDED_DIGESTS = {
    "episodes.csv": "473b385779620138b0fe077c8be8b89c84e2499a9191cb5f593e99cdcb4627fd",
    "summary.csv": "3af534460dcc92c9ade3015af3f8f8739a90c0e7be0311a7752871c47b37705e",
}
# one sha256 over the 24 plot series of that sweep (smooth=2), in sorted
# relative-path order, each fed as path + NUL + file bytes
RECORDED_SERIES_DIGEST = (
    "1a8ce82e47fc3d01539b2d296989a48ab51cd29fbddb02b6d32bc0805dc23b25"
)


def test_sweep_matches_recorded_digest(tmp_path):
    spec = ExperimentSpec(policies=("random", "sjf", "tetris"),
                          job_rates=(0.6, 0.9), seeds=(0,), episodes=3)
    run_experiment(spec, tmp_path / "r")
    digests = {name: hashlib.sha256((tmp_path / "r" / name).read_bytes()).hexdigest()
               for name in RECORDED_DIGESTS}
    assert digests == RECORDED_DIGESTS

    plots = tmp_path / "p"
    files = emit_plot_series(tmp_path / "r", plots, smooth=2)
    assert len(files) == 24
    series = hashlib.sha256()
    for rel in sorted(f.relative_to(plots).as_posix() for f in files):
        series.update(rel.encode() + b"\0" + (plots / rel).read_bytes())
    assert series.hexdigest() == RECORDED_SERIES_DIGEST
