import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from rlsched.agent import ActorCriticAgent
from rlsched.cli import main
from rlsched.config import EnvConfig
from rlsched.env import ClusterEnv

SMALL_CONFIG = {
    "env": {
        "horizon": 8,
        "capacities": [4, 4],
        "queue_slots": 3,
        "backlog_size": 10,
        "episode_limit": 200,
    },
    "workload": {
        "length": 12,
        "small_duration_range": [1, 2],
        "large_duration_range": [4, 6],
        "dominant_demand_range": [1, 2],
        "other_demand_range": [1, 1],
    },
    "agent": {"n_steps": 3},
    "train": {"episodes": 4, "sequences": 1},
    "experiment": {
        "policies": ["random", "sjf"],
        "job_rates": [0.7],
        "seeds": [0, 1],
        "episodes": 2,
        "summary_window": 2,
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG))
    return str(path)


def test_sweep_and_plot_data(tmp_path, config_path, capsys):
    out = tmp_path / "results"
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["out"] == str(out)
    assert (out / "episodes.csv").exists()

    plots = tmp_path / "plots"
    assert main(["plot-data", "--results", str(out), "--out", str(plots)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 8


def test_sweep_flag_overrides(tmp_path, config_path, capsys):
    out = tmp_path / "results"
    code = main([
        "sweep", "--config", config_path, "--out", str(out),
        "--policies", "sjf", "--seeds", "3", "--episodes", "1",
    ])
    assert code == 0
    capsys.readouterr()
    with open(out / "episodes.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["policy"] == "sjf"
    assert rows[0]["seed"] == "3"


def test_train_then_evaluate_checkpoint(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main([
        "train", "--config", config_path, "--out", str(out),
        "--episodes", "3", "--seed", "1",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trained_episodes"] == 3
    assert (out / "training_log.csv").exists()
    checkpoint = payload["checkpoint"]

    code = main([
        "evaluate", "--config", config_path, "--policy", "a2c",
        "--checkpoint", checkpoint, "--episodes", "2", "--seed", "0",
        "--out", str(tmp_path / "eval.csv"),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"] == "a2c"
    with open(tmp_path / "eval.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_training_log_columns(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", config_path, "--out", str(out),
          "--episodes", "2"])
    capsys.readouterr()
    with open(out / "training_log.csv") as fh:
        header = next(csv.reader(fh))
    for column in ("episode", "discounted_reward", "avg_slowdown",
                   "actor_loss", "critic_loss"):
        assert column in header


def test_evaluate_baseline_without_config(tmp_path, capsys):
    code = main([
        "evaluate", "--policy", "sjf", "--rate", "0.5", "--episodes", "1",
        "--seed", "0",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["avg_slowdown"] is not None


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_episodes_without_completions_write_blank_averages(tmp_path, capsys):
    """An episode cut at its first step with no job able to finish (every
    duration is at least 2) reports no averages: blank cells in every
    result file, null on stdout, and empty plot series."""
    path = tmp_path / "config.yaml"
    path.write_text("env: {episode_limit: 1}\n"
                    "workload: {small_duration_range: [2, 3]}\n"
                    "experiment: {policies: [sjf], seeds: [0, 1], episodes: 2}\n")
    averages = ("avg_slowdown", "avg_completion_time", "avg_waiting_time")

    results = tmp_path / "results"
    assert main(["sweep", "--config", str(path), "--out", str(results)]) == 0
    episodes = _csv_rows(results / "episodes.csv")
    assert len(episodes) == 4
    assert all(row[m] == "" for row in episodes for m in averages)
    assert all(row["completed"] == "0" and row["truncated"] == "1"
               for row in episodes)
    for row in _csv_rows(results / "summary.csv"):
        assert all(row[f"{m}_{s}"] == "" for m in averages for s in ("mean", "std"))
        assert row["discounted_reward_mean"] != ""

    out = tmp_path / "eval.csv"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(path), "--policy", "sjf",
                 "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["avg_slowdown"] is None
    evaluated = _csv_rows(out)
    assert len(evaluated) == 2
    assert all(row[m] == "" for row in evaluated for m in averages)

    plots = tmp_path / "plots"
    assert main(["plot-data", "--results", str(results), "--out", str(plots)]) == 0
    for metric in averages:
        series = plots / "rate_0.7" / f"series_{metric}__sjf.csv"
        assert series.read_text() == "episode,value\n"
    assert len(_csv_rows(plots / "rate_0.7" / "series_discounted_reward__sjf.csv")) == 2


def test_unknown_config_key_fails_with_json_error(tmp_path, capsys):
    bad = dict(SMALL_CONFIG)
    bad["env"] = {**SMALL_CONFIG["env"], "horizons": 8}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip())
    assert payload["error"] == "ConfigError"
    assert "horizons" in payload["message"]


def test_evaluate_matches_sweep_cell(tmp_path, config_path, capsys):
    sweep_out = tmp_path / "results"
    assert main(["sweep", "--config", config_path, "--out", str(sweep_out),
                 "--policies", "random", "--rates", "0.7", "--seeds", "1",
                 "--episodes", "3"]) == 0
    eval_out = tmp_path / "eval.csv"
    assert main(["evaluate", "--config", config_path, "--policy", "random",
                 "--rate", "0.7", "--seed", "1", "--episodes", "3",
                 "--out", str(eval_out)]) == 0
    capsys.readouterr()
    with open(sweep_out / "episodes.csv") as fh:
        swept = list(csv.DictReader(fh))
    with open(eval_out) as fh:
        evaluated = list(csv.DictReader(fh))
    assert len(evaluated) == 3
    assert evaluated == [{k: row[k] for k in evaluated[0]} for row in swept]


def test_evaluate_and_sweep_share_one_seed_rule(tmp_path, config_path, capsys):
    """evaluate's rows equal the sjf / 0.7 / seed 1 rows of a sweep with the
    same config, which also runs random and seed 0."""
    sweep_out = tmp_path / "results"
    assert main(["sweep", "--config", config_path, "--out", str(sweep_out),
                 "--episodes", "3"]) == 0
    eval_out = tmp_path / "eval.csv"
    assert main(["evaluate", "--config", config_path, "--policy", "sjf",
                 "--rate", "0.7", "--seed", "1", "--episodes", "3",
                 "--out", str(eval_out)]) == 0
    capsys.readouterr()
    swept = [row for row in _csv_rows(sweep_out / "episodes.csv")
             if (row["policy"], row["job_rate"], row["seed"]) == ("sjf", "0.7", "1")]
    evaluated = _csv_rows(eval_out)
    assert len(evaluated) == 3
    assert evaluated == [{k: row[k] for k in evaluated[0]} for row in swept]


@pytest.mark.parametrize(
    "command, text, error, fragment",
    [
        ("sweep", "env: {horizon: abc}\n", "ConfigError", "horizon"),
        ("sweep", "env: {horizon: [8\n", "ConfigError", "bad.yaml"),
        ("sweep", "workload: {small_duration_range: 5}\n", "ConfigError",
         "small_duration_range"),
        ("sweep", "agent: {n_steps: abc}\n", "ConfigError", "n_steps"),
        ("train", "train: {episodes: abc}\n", "ConfigError", "episodes"),
        ("sweep", "workload: {rate: abc}\n", "ConfigError", "rate"),
        ("sweep", "experiment: {summary_window: abc}\n", "ConfigError",
         "summary_window"),
        ("sweep", "agent: {gamma: [1, 2]}\n", "ConfigError", "gamma"),
        ("train", "train: {epochs: 3}\n", "ConfigError", "epochs"),
        ("sweep", "experiment: {policies: sjf}\n", "ConfigError", "policies"),
        ("sweep", "trace: {time_scale: -5}\n", "ConfigError", "trace"),
        ("sweep", "experiment: {env: {horizon: 8}}\n", "ConfigError", "env"),
        ("train", "train: {episodes: -3}\n", "ConfigError", "episodes"),
        ("sweep", "experiment: {seeds: [0, -1]}\n", "ConfigError", "seed"),
        ("train", "workload: {seed: -1}\n", "ConfigError", "seed"),
        ("evaluate", "workload: {seed: -1}\n", "ConfigError", "seed"),
        ("train", "agent: {lr_actor: .nan}\n", "ConfigError", "lr_actor"),
        ("train", "agent: {lr_actor: .inf}\n", "ConfigError", "lr_actor"),
        ("train", "agent: {lr_critic: .nan}\n", "ConfigError", "lr_critic"),
        ("train", "agent: {entropy_coeff: .nan}\n", "ConfigError",
         "entropy_coeff"),
        ("train", "agent: {entropy_coeff: .inf}\n", "ConfigError",
         "entropy_coeff"),
        ("train", "agent: {init_scale: -0.5}\n", "ConfigError", "init_scale"),
        ("train", "train: {sequences: 0}\n", "ConfigError", "sequence"),
        ("train", "workload: {seed: 3}\n", "ConfigError", "--seed"),
        ("evaluate", "workload: {seed: 3}\n", "ConfigError", "--seed"),
        ("sweep", "workload: {seed: 3}\n", "ConfigError", "experiment.seeds"),
        ("sweep", "experiment: {policies: [sjf, fifo]}\n", "ConfigError", "fifo"),
        ("sweep", "experiment: {job_rates: [0.6, 1.5]}\n", "SpecError", "rate"),
        ("train", "agent: {fc_hidden: 64}\n", "ConfigError", "fc_hidden"),
        ("sweep", "experiment: {lam_short: 0.1}\n", "ConfigError", "lam_short"),
        ("sweep", "agent: {architecture: resnet}\nexperiment: "
         "{policies: [sjf, a2c], checkpoint: X}\n", "ConfigError", "resnet"),
        ("train", "experiment: {polices: [sjf]}\n", "ConfigError", "polices"),
        ("evaluate", "train: {epochs: 3}\n", "ConfigError", "epochs"),
        ("sweep", "train: {epochs: 3}\n", "ConfigError", "epochs"),
        ("train", "experiment: {env: {horizon: 8}}\n", "ConfigError", "env"),
        ("train", "experiment: {episodes: abc}\n", "ConfigError", "episodes"),
        ("evaluate", "train: {episodes: abc}\n", "ConfigError", "episodes"),
        ("sweep", "train: {episodes: abc}\n", "ConfigError", "episodes"),
        ("train", "train: {checkpoint_every: 5}\n", "ConfigError",
         "checkpoint_every"),
        ("sweep", b"\xff\xfe\x00bad", "ConfigError", "bad.yaml"),
        ("sweep", b"env:\n  horizon: \xe9\x80\n", "ConfigError", "bad.yaml"),
        ("sweep", "experiment: {policies: [sjf, sjf]}\n", "ConfigError",
         "policies"),
        ("sweep", "experiment: {job_rates: [0.7, 0.7]}\n", "ConfigError",
         "job_rates"),
        ("sweep", "experiment: {seeds: [0, 0]}\n", "ConfigError", "seeds"),
        ("sweep", "experiment: {summary_window: -3}\n", "ConfigError",
         "summary_window"),
        ("sweep", "env: {resources: [cpu, memory]}\n", "ConfigError",
         "resources"),
    ],
    ids=["non-integer-env-value", "malformed-yaml", "non-pair-range",
         "non-integer-agent-value", "non-integer-train-value",
         "non-number-workload-value", "non-integer-experiment-value",
         "list-for-scalar", "unknown-train-key", "scalar-for-list",
         "trace-section", "experiment-sets-env", "negative-train-episodes",
         "negative-experiment-seed", "negative-workload-seed-train",
         "negative-workload-seed-evaluate", "nan-lr-actor", "inf-lr-actor",
         "nan-lr-critic", "nan-entropy-coeff", "inf-entropy-coeff",
         "negative-init-scale", "no-train-sequences", "workload-seed-train",
         "workload-seed-evaluate", "workload-seed-sweep", "unknown-policy",
         "out-of-range-job-rate", "removed-fc-hidden", "removed-lam-short",
         "unknown-architecture-sweep", "unread-experiment-key-train",
         "unread-train-key-evaluate", "unread-train-key-sweep",
         "experiment-sets-env-train", "unread-experiment-value-train",
         "unread-train-value-evaluate", "unread-train-value-sweep",
         "removed-checkpoint-every", "utf16-bom-bytes", "non-utf8-bytes",
         "repeated-policy", "repeated-job-rate", "repeated-seed",
         "negative-summary-window", "removed-resources"],
)
def test_malformed_config_value_fails_with_json_error(tmp_path, capsys, command,
                                                      text, error, fragment):
    path = tmp_path / "bad.yaml"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    if command == "evaluate":
        argv += ["--policy", "sjf"]
    code = main(argv)
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == error
    assert fragment in payload["message"]
    assert not (tmp_path / "o").exists()  # no result file or directory


def test_malformed_flag_fails_with_json_error(tmp_path, capsys):
    out = str(tmp_path / "o")
    for argv, fragment in [
        (["sweep", "--rates", "0.7,abc", "--out", out], "job_rates"),
        (["sweep", "--seeds", "-1", "--out", out], "seed"),
        (["train", "--seed", "-1", "--episodes", "1", "--out", out], "seed"),
        (["evaluate", "--policy", "sjf", "--seed", "-1", "--out", out], "seed"),
        (["evaluate", "--policy", "foo", "--out", out], "foo"),
        (["evaluate", "--policy", "sjf", "--rate", "abc", "--out", out], "rate"),
        (["train", "--episodes", "abc", "--out", out], "episodes"),
        (["sweep", "--episodes", "abc", "--out", out], "episodes"),
        (["sweep", "--policies", "sjf,foo", "--out", out], "foo"),
        (["sweep", "--policies", "sjf,sjf", "--out", out], "policies"),
        (["sweep", "--rates", "0.7,0.70", "--out", out], "job_rates"),
        (["sweep", "--seeds", "0,0", "--out", out], "seeds"),
        (["plot-data", "--results", out, "--smooth", "x", "--out", out],
         "smooth"),
        (["train"], "--out"),
    ]:
        assert main(argv) == 1, argv
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError", argv
        assert fragment in payload["message"], argv
    assert not (tmp_path / "o").exists()


def test_evaluate_reads_rate_and_episodes_from_config(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("experiment: {episodes: 3}\nworkload: {rate: 0.9}\n")
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--config", str(path), "--policy", "sjf",
                 "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["episodes"], payload["job_rate"]) == (3, 0.9)
    with open(out) as fh:
        assert len(list(csv.DictReader(fh))) == 3


# sha256 of the file and the exact stdout of `evaluate --policy tetris --out F`
RECORDED_EVALUATE = (
    "3cf215ca99b1ea16ef95c81955c78c81a1461d41e483b68e8293201242d2d69d",
    '{"avg_slowdown": 2.354005588549261, "episodes": 20, "job_rate": 0.7, '
    '"policy": "tetris"}\n',
)


@pytest.mark.parametrize("config", [None, "configs/default.yaml"],
                         ids=["no-config", "default-config"])
def test_evaluate_defaults_match_recorded_output(tmp_path, capsys, config):
    """With no flag but --policy, evaluate runs the defaults the config file
    documents: 20 episodes at rate 0.7, seed 0."""
    out = tmp_path / "eval.csv"
    argv = ["evaluate", "--policy", "tetris", "--out", str(out)]
    if config:
        argv += ["--config", str(Path(__file__).resolve().parents[1] / config)]
    assert main(argv) == 0
    digest, stdout = RECORDED_EVALUATE
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_evaluate_out_creates_missing_directories(tmp_path, capsys):
    """`evaluate --out` into directories that do not exist yet makes them
    and writes the bytes it writes into an existing directory."""
    argv = ["evaluate", "--policy", "sjf", "--episodes", "2", "--out"]
    assert main(argv + [str(tmp_path / "eval.csv")]) == 0
    nested = tmp_path / "missing" / "dir" / "eval.csv"
    assert main(argv + [str(nested)]) == 0
    capsys.readouterr()
    assert nested.read_bytes() == (tmp_path / "eval.csv").read_bytes()


def test_missing_results_dir_fails_cleanly(tmp_path, capsys):
    code = main(["plot-data", "--results", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "p")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert "error" in payload


def _json_error(capsys) -> dict:
    """The one JSON error line a failed command prints to stderr."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def _rewrite_csv(path, edit):
    """Rewrite the CSV file at `path` as `edit(rows)`, rows header first."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))


def _drop_job_rate(rows):
    col = rows[0].index("job_rate")
    return [row[:col] + row[col + 1:] for row in rows]


def _word_episode(rows):
    rows[2][rows[0].index("episode")] = "one"
    return rows


@pytest.mark.parametrize("edit, fragment", [
    (_drop_job_rate, "line 1: missing columns ['job_rate']"),
    (_word_episode, "line 3: invalid literal for int()"),
], ids=["missing-column", "non-integer-episode"])
def test_malformed_results_fail_plot_data_with_json_error(
        tmp_path, config_path, capsys, edit, fragment):
    results = tmp_path / "results"
    assert main(["sweep", "--config", config_path, "--out", str(results)]) == 0
    capsys.readouterr()
    _rewrite_csv(results / "episodes.csv", edit)
    code = main(["plot-data", "--results", str(results),
                 "--out", str(tmp_path / "p")])
    assert code == 1
    payload = _json_error(capsys)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(fragment)


@pytest.mark.parametrize("line", [1, 3], ids=["header", "row"])
def test_undecodable_results_fail_plot_data_with_json_error(
        tmp_path, config_path, capsys, line):
    results = tmp_path / "results"
    assert main(["sweep", "--config", config_path, "--out", str(results)]) == 0
    capsys.readouterr()
    path = results / "episodes.csv"
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))
    code = main(["plot-data", "--results", str(results),
                 "--out", str(tmp_path / "p")])
    assert code == 1
    payload = _json_error(capsys)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(f"line {line}: not ")


def _drop_first_weight(path):
    with np.load(path) as data:
        arrays = dict(data)
    del arrays[next(k for k in arrays if k.startswith("w"))]
    np.savez(path, **arrays)


def _replace_arrays(path, **changes):
    with np.load(path) as data:
        arrays = dict(data)
    np.savez(path, **{**arrays, **changes})


def _text_first_weight(path):
    with np.load(path) as data:
        name = next(k for k in data if k.startswith("w"))
        shape = data[name].shape
    _replace_arrays(path, **{name: np.full(shape, "x")})


def _single_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _edit_meta(path, edit):
    """Replace the meta entry of the archive at `path` by `edit(meta)`."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
    _replace_arrays(path, meta=np.array(json.dumps(edit(meta))))


def _flat_chain(meta):
    # the saved input shape with a chain no architecture has
    shape = meta["fingerprint"].split(";")[0]
    return {**meta, "fingerprint": f"{shape};flatten;dense4:none"}


def _other_horizon(path):
    """A conv16 checkpoint saved for a horizon of 9, not 8."""
    cfg = EnvConfig(**{**SMALL_CONFIG["env"], "horizon": 9})
    ActorCriticAgent(ClusterEnv(cfg).observation_shape(), cfg.num_actions,
                     seed=0).save(path.parent)


@pytest.mark.parametrize("corrupt", [
    lambda p: p.write_text("not a checkpoint\n"),
    lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    _drop_first_weight,
    lambda p: _replace_arrays(p, meta=np.array("[1, 2]")),
    lambda p: _replace_arrays(p, meta=np.array("5")),
    _text_first_weight,
    _single_array,
    lambda p: _edit_meta(p, lambda meta: {"format": meta["format"]}),
    lambda p: _edit_meta(p, lambda meta: {**meta, "fingerprint": 5}),
    lambda p: _edit_meta(p, _flat_chain),
    _other_horizon,
], ids=["text", "truncated", "missing-array", "meta-list", "meta-number",
        "non-numeric-array", "npy-not-npz", "no-fingerprint",
        "fingerprint-not-text", "unknown-chain", "other-horizon"])
def test_corrupt_checkpoint_fails_with_json_error(tmp_path, config_path, capsys,
                                                  corrupt):
    out = tmp_path / "run"
    assert main(["train", "--config", config_path, "--out", str(out),
                 "--episodes", "1"]) == 0
    checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
    actor = Path(checkpoint) / "actor.npz"
    corrupt(actor)
    code = main(["evaluate", "--config", config_path, "--policy", "a2c",
                 "--checkpoint", checkpoint, "--episodes", "1"])
    assert code == 1
    payload = _json_error(capsys)
    assert payload["error"] == "ConfigError"
    assert str(actor) in payload["message"]


def test_overflowing_weights_fail_with_json_error(tmp_path, capsys):
    """An actor step large enough to overflow the weights turns the next
    policy into NaN, and a critic step that large overflows the losses;
    either way training stops with TrainingDiverged, not a raw ValueError
    from sampling, and numpy warns of nothing on the way."""
    for name, lr in (("lr_actor", "1.0e+15"), ("lr_critic", "1.0e+30")):
        path = tmp_path / f"{name}.yaml"
        path.write_text(f"agent: {{{name}: {lr}, architecture: fc}}\n"
                        "train: {episodes: 5}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(path),
                         "--out", str(tmp_path / name)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        payload = _json_error(capsys)
        assert payload["error"] == "TrainingDiverged"
        assert payload["message"].startswith("episode ")


def test_diverged_train_keeps_log_of_finished_episodes(tmp_path, capsys):
    """Training that diverges part way leaves the log's header and one line
    for each episode that finished before it."""
    path = tmp_path / "diverge.yaml"
    path.write_text("agent: {lr_actor: 1.0e+15, architecture: fc}\n"
                    "train: {episodes: 5}\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 1
    payload = _json_error(capsys)
    assert payload["error"] == "TrainingDiverged"
    failed = int(payload["message"].split(":")[0].removeprefix("episode "))
    assert failed >= 1
    with open(out / "training_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["episode"] for row in rows] == [str(e) for e in range(failed)]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# arch: (episodes, sha256 of training_log.csv, greedy_avg_slowdown printed,
#        sha256 of the final checkpoint's arrays, as checkpoint_digest takes it)
RECORDED_TRAINING_DIGESTS = {
    "fc": ("3", "830b61420a0dde4619ca5bde34a08dc5254ae5fd67ed91e806e8e90e78c87118",
           5.011413780018431,
           "a999a9e1a4c18b8ef3ef06c312ed1c4f4fd0ed4bf7b3df14b78bdccdccf64ef7"),
    "conv16": ("2", "39dcfe216cff92191dbd66af84bcf2006d485ad4a74bcf40f594609461568c4c",
               5.011413780018431,
               "254b50a835509a7c4e79862d707ccf434d2ebf698418da64d2fc01518b864a4a"),
    "conv16_pool": ("2", "b4f9b5c0bee7e15de8c6fc5e3ac212db490e8c2078b1bed081c70959d4d684fe",
                    5.240317434503481,
                    "ae4e45dc52b10700ab63386cfd3a77228546af7e1b760ab77d139b77ff9a0ec9"),
    "conv32_pool": ("1", "cc0cb5f5aa4910c28d174cbb42a97448d03ef06935d80ca94eb04bba507c537b",
                    5.3216121088214114,
                    "a81f318d483dc553d347ed1d79a997a28a348df89ed23fb801e3ffeabb6d0192"),
}


def checkpoint_digest(checkpoint):
    """sha256 over actor.npz, then critic.npz: each array name but meta in
    sorted order, its bytes, then the array's tobytes()."""
    digest = hashlib.sha256()
    for net in ("actor", "critic"):
        with np.load(checkpoint / f"{net}.npz") as arrays:
            for name in sorted(set(arrays.files) - {"meta"}):
                digest.update(name.encode())
                digest.update(arrays[name].tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("arch", sorted(RECORDED_TRAINING_DIGESTS))
def test_training_log_matches_recorded_digest(tmp_path, arch):
    """`rlsched train --config configs/default.yaml` in a fresh process with
    one BLAS thread writes a training log byte-identical to the recorded one,
    a final checkpoint with the recorded parameters (the critic reaches the
    log only through its losses), and prints the recorded episode count and
    greedy mean slowdown.

    ROADMAP item 1 (invalid-action masking, the return scale) will change
    these digests and slowdowns; the change that does so records the old and
    new values in CHANGES.md.
    """
    root = Path(__file__).resolve().parents[1]
    episodes, digest, greedy, params = RECORDED_TRAINING_DIGESTS[arch]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(root / "src"), os.environ.get("PYTHONPATH")])))
    stdout = subprocess.run(
        [sys.executable, "-m", "rlsched.cli", "train", "--config",
         "configs/default.yaml", "--arch", arch, "--episodes", episodes,
         "--out", str(tmp_path)],
        cwd=root, env=env, check=True, capture_output=True, text=True,
    ).stdout
    log = (tmp_path / "training_log.csv").read_bytes()
    assert hashlib.sha256(log).hexdigest() == digest
    assert checkpoint_digest(tmp_path / "checkpoints" / "final") == params
    printed = json.loads(stdout)
    assert printed["trained_episodes"] == int(episodes)
    assert printed["greedy_avg_slowdown"] == greedy


def test_evaluate_and_sweep_build_the_network_the_checkpoint_names(tmp_path, capsys):
    """A conv16_pool checkpoint scores with no config, where
    agent.architecture is conv16, and with a config that names fc: the
    network comes from the checkpoint, so each writes the rows of a config
    that names conv16_pool."""
    assert main(["train", "--arch", "conv16_pool", "--episodes", "1",
                 "--out", str(tmp_path / "t")]) == 0
    checkpoint = json.loads(capsys.readouterr().out)["checkpoint"]
    written = {}
    for arch in (None, "fc", "conv16_pool"):
        argv = ["evaluate", "--policy", "a2c", "--checkpoint", checkpoint,
                "--episodes", "1", "--out", str(tmp_path / f"{arch}.csv")]
        if arch:
            config = tmp_path / f"{arch}.yaml"
            config.write_text(f"agent: {{architecture: {arch}}}\n")
            argv += ["--config", str(config)]
        assert main(argv) == 0
        written[arch] = (tmp_path / f"{arch}.csv").read_bytes()
    assert written[None] == written["fc"] == written["conv16_pool"]
    assert main(["sweep", "--policies", "a2c,sjf", "--rates", "0.7",
                 "--seeds", "0", "--episodes", "1", "--checkpoint", checkpoint,
                 "--out", str(tmp_path / "s")]) == 0


# sha256 of the file and the exact stdout of the a2c evaluate below
RECORDED_A2C_EVALUATE = (
    "454e98895bc5e2558bab8a80d91225c59a8166663f9754a7be255cb52576a837",
    '{"avg_slowdown": 2.728803851974584, "episodes": 2, "job_rate": 0.7, '
    '"policy": "a2c"}\n',
)


def test_a2c_evaluate_matches_recorded_output(tmp_path):
    """A one-episode conv32_pool checkpoint, trained and then evaluated
    greedily in fresh processes with one BLAS thread, writes the recorded
    result file and stdout.

    ROADMAP item 1 (the fits-now action mask, the batched update) will change
    both values; the change that does so records the old and new values in
    CHANGES.md.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(root / "src"), os.environ.get("PYTHONPATH")])))

    def rlsched(*argv):
        return subprocess.run([sys.executable, "-m", "rlsched.cli", *argv],
                              cwd=root, env=env, check=True,
                              capture_output=True, text=True).stdout

    rlsched("train", "--config", "configs/default.yaml", "--arch",
            "conv32_pool", "--episodes", "1", "--out", str(tmp_path / "t"))
    config = tmp_path / "agent.yaml"
    config.write_text("agent: {architecture: conv32_pool}\n")
    out = tmp_path / "eval.csv"
    stdout = rlsched("evaluate", "--config", str(config), "--policy", "a2c",
                     "--checkpoint", str(tmp_path / "t" / "checkpoints" / "final"),
                     "--episodes", "2", "--out", str(out))
    digest, expected = RECORDED_A2C_EVALUATE
    assert stdout == expected
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
