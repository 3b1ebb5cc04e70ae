"""Command-line interface: train, evaluate, sweep, plot-data.

All defaults live in one YAML config file (see configs/default.yaml); CLI
flags override config values. Failures exit nonzero after printing a single
machine-readable JSON error line to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .agent import AgentConfig, train
from .baselines import run_greedy
from .config import EnvConfig, env_config_from_dict, read_yaml
from .env import ClusterEnv
from .errors import ConfigError, RlschedError
from .experiment import (
    EPISODE_COLUMNS,
    ExperimentSpec,
    emit_plot_series,
    run_cell,
    run_experiment,
    write_csv,
)
from .workload import WorkloadSpec, generate

CONFIG_SECTIONS = ("env", "workload", "agent", "experiment", "train", "trace")

TRAIN_DEFAULTS = {"episodes": 500, "sequences": 1, "checkpoint_every": 0}
TRACE_DEFAULTS = {"time_scale": 1.0}
# `evaluate --out` writes the sweep's episode columns without the cell keys
EVALUATE_COLUMNS = EPISODE_COLUMNS[EPISODE_COLUMNS.index("episode"):]


def load_harness_config(path: str | None) -> dict:
    """Read the harness config file; sections and keys are strictly checked."""
    raw = {}
    if path:
        raw = read_yaml(path) or {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a mapping of sections")
        unknown = set(raw) - set(CONFIG_SECTIONS)
        if unknown:
            raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    return raw


def _dataclass_from_section(cls, section: dict | None, what: str):
    section = dict(section or {})
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - names
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in section.items():
        if isinstance(value, list):
            section[key] = tuple(value)
    return cls(**section)


def _env_config(raw: dict) -> EnvConfig:
    return env_config_from_dict(raw.get("env", {}))


def _workload_spec(raw: dict, rate=None) -> WorkloadSpec:
    spec = _dataclass_from_section(WorkloadSpec, raw.get("workload"), "workload")
    if rate is not None:
        spec = dataclasses.replace(spec, rate=rate)
    return spec


def _agent_config(raw: dict, arch=None) -> AgentConfig:
    cfg = _dataclass_from_section(AgentConfig, raw.get("agent"), "agent")
    if arch is not None:
        cfg = dataclasses.replace(cfg, architecture=arch)
    return cfg


def _experiment_spec(raw: dict, **overrides) -> ExperimentSpec:
    """The config's experiment section with `overrides` on top."""
    return _dataclass_from_section(
        ExperimentSpec,
        {
            **(raw.get("experiment") or {}),
            **overrides,
            "env": _env_config(raw),
            "workload": _workload_spec(raw),
            "agent": _agent_config(raw),
        },
        "experiment",
    )


def _sequence_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 7919, index]).generate_state(1)[0])


def _training_sequences(env_cfg, workload, count, seed):
    return [
        generate(
            dataclasses.replace(workload, seed=_sequence_seed(seed, k)), env_cfg
        )
        for k in range(count)
    ]


# -- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    raw = load_harness_config(args.config)
    env_cfg = _env_config(raw)
    train_cfg = {**TRAIN_DEFAULTS, **(raw.get("train") or {})}
    episodes = args.episodes if args.episodes is not None else train_cfg["episodes"]
    workload = _workload_spec(raw, rate=args.rate)
    agent_cfg = _agent_config(raw, arch=args.arch)
    sequences = _training_sequences(
        env_cfg, workload, int(train_cfg["sequences"]), args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records, agent = train(
        env_cfg,
        sequences,
        agent_cfg,
        episodes=episodes,
        seed=args.seed,
        checkpoint_dir=out / "checkpoints",
        checkpoint_every=int(train_cfg["checkpoint_every"]),
        log_path=out / "training_log.csv",
    )

    env = ClusterEnv(env_cfg)
    eval_rows = []
    for jobs in sequences:
        env.reset(jobs)
        report = run_greedy(
            lambda e: agent.act(e.encode_state(), mode="greedy"),
            env,
            gamma=agent_cfg.gamma,
        )
        eval_rows.append(report.avg_slowdown)
    greedy = [s for s in eval_rows if s is not None]
    print(
        json.dumps(
            {
                "trained_episodes": len(records),
                "checkpoint": str(out / "checkpoints" / "final"),
                "log": str(out / "training_log.csv"),
                "greedy_avg_slowdown": (
                    float(np.mean(greedy)) if greedy else None
                ),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_evaluate(args) -> int:
    raw = load_harness_config(args.config)
    spec = _experiment_spec(
        raw,
        policies=(args.policy,),
        job_rates=(args.rate,),
        seeds=(args.seed,),
        episodes=args.episodes,
        summary_window=args.episodes,
        **({"checkpoint": args.checkpoint} if args.checkpoint else {}),
    )
    rows = run_cell(spec, args.policy, 0, args.seed)
    if args.out:
        write_csv(Path(args.out), EVALUATE_COLUMNS, rows)
    slowdowns = [r["avg_slowdown"] for r in rows if r["avg_slowdown"] is not None]
    print(
        json.dumps(
            {
                "policy": args.policy,
                "job_rate": args.rate,
                "episodes": args.episodes,
                "avg_slowdown": float(np.mean(slowdowns)) if slowdowns else None,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_sweep(args) -> int:
    raw = load_harness_config(args.config)
    overrides = {}
    if args.policies:
        overrides["policies"] = args.policies.split(",")
    if args.rates:
        overrides["job_rates"] = [float(r) for r in args.rates.split(",")]
    if args.seeds:
        overrides["seeds"] = [int(s) for s in args.seeds.split(",")]
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if args.checkpoint:
        overrides["checkpoint"] = args.checkpoint
    run_experiment(_experiment_spec(raw, **overrides), args.out)
    print(json.dumps({"out": str(args.out)}, sort_keys=True))
    return 0


def cmd_plot_data(args) -> int:
    files = emit_plot_series(args.results, args.out, smooth=args.smooth)
    print(json.dumps({"out": str(args.out), "files": len(files)}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlsched",
        description="Cluster-scheduling simulator, learned scheduler, and "
        "experiment harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the scheduling agent")
    p.add_argument("--config", help="harness config file (YAML)")
    p.add_argument("--rate", type=float, default=None, help="job arrival rate")
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", default=None,
                   help="fc | conv16 | conv32 | conv16_pool | conv32_pool")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a policy")
    p.add_argument("--config", help="harness config file (YAML)")
    p.add_argument("--policy", required=True,
                   choices=("random", "sjf", "tetris", "a2c"))
    p.add_argument("--checkpoint", help="checkpoint directory for a2c")
    p.add_argument("--rate", type=float, default=0.7)
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write per-episode CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a (policy x rate x seed) experiment")
    p.add_argument("--config", help="harness config file (YAML)")
    p.add_argument("--policies", help="comma-separated policy kinds")
    p.add_argument("--rates", help="comma-separated job rates")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--checkpoint", help="checkpoint directory for a2c cells")
    p.add_argument("--out", required=True, help="results directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot-data", help="emit per-metric plot series")
    p.add_argument("--results", required=True, help="sweep results directory")
    p.add_argument("--out", required=True)
    p.add_argument("--smooth", type=int, default=0,
                   help="trailing moving-average window (<=1 disables)")
    p.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RlschedError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
