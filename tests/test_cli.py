import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from rlsched.cli import main

SMALL_CONFIG = {
    "env": {
        "horizon": 8,
        "capacities": [4, 4],
        "queue_slots": 3,
        "backlog_size": 10,
        "episode_limit": 200,
        "resources": ["cpu", "memory"],
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
         "removed-checkpoint-every"],
)
def test_malformed_config_value_fails_with_json_error(tmp_path, capsys, command,
                                                      text, error, fragment):
    path = tmp_path / "bad.yaml"
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


def test_missing_results_dir_fails_cleanly(tmp_path, capsys):
    code = main(["plot-data", "--results", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "p")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert "error" in payload


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# arch: (episodes, sha256 of training_log.csv, greedy_avg_slowdown printed)
RECORDED_TRAINING_DIGESTS = {
    "fc": ("3", "830b61420a0dde4619ca5bde34a08dc5254ae5fd67ed91e806e8e90e78c87118",
           5.011413780018431),
    "conv16": ("2", "39dcfe216cff92191dbd66af84bcf2006d485ad4a74bcf40f594609461568c4c",
               5.011413780018431),
    "conv16_pool": ("2", "b4f9b5c0bee7e15de8c6fc5e3ac212db490e8c2078b1bed081c70959d4d684fe",
                    5.240317434503481),
    "conv32_pool": ("1", "cc0cb5f5aa4910c28d174cbb42a97448d03ef06935d80ca94eb04bba507c537b",
                    5.3216121088214114),
}


@pytest.mark.parametrize("arch", sorted(RECORDED_TRAINING_DIGESTS))
def test_training_log_matches_recorded_digest(tmp_path, arch):
    """`rlsched train --config configs/default.yaml` in a fresh process with
    one BLAS thread writes a training log byte-identical to the recorded one
    and prints the recorded episode count and greedy mean slowdown.

    ROADMAP item 1 (invalid-action masking, the return scale) will change
    these digests and slowdowns; the change that does so records the old and
    new values in CHANGES.md.
    """
    root = Path(__file__).resolve().parents[1]
    episodes, digest, greedy = RECORDED_TRAINING_DIGESTS[arch]
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
    printed = json.loads(stdout)
    assert printed["trained_episodes"] == int(episodes)
    assert printed["greedy_avg_slowdown"] == greedy


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
