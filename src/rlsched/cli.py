"""Command-line interface: train, evaluate, sweep, plot-data.

The defaults live in the config dataclasses; a YAML config file
(configs/default.yaml lists every key) overrides them, and CLI flags
override config values and are checked as the file's values are. Any
failure, a malformed command line included, exits 1 after printing a single
machine-readable JSON error line to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .agent import ARCHITECTURE_NAMES, AgentConfig, train
from .baselines import POLICY_KINDS, make_policy, run_greedy
from .config import EnvConfig, check_seed, from_section, read_yaml, section_values
from .env import ClusterEnv
from .errors import ConfigError, RlschedError
from .experiment import (
    EPISODE_COLUMNS,
    ExperimentSpec,
    emit_plot_series,
    run_cell,
    run_experiment,
    summarize,
)
from .metrics import write_csv
from .workload import WorkloadSpec, derived_seed, generate

# `evaluate --out` writes the sweep's episode columns without the cell keys
EVALUATE_COLUMNS = EPISODE_COLUMNS[EPISODE_COLUMNS.index("episode"):]


@dataclass(frozen=True)
class TrainSpec:
    """The `train` section: episode count and number of fixed job sequences
    cycled during training."""

    episodes: int = 500
    sequences: int = 1


SECTIONS = {"env": EnvConfig, "workload": WorkloadSpec, "agent": AgentConfig,
            "experiment": ExperimentSpec, "train": TrainSpec}


def load_harness_config(path: str | None) -> dict:
    """Read the harness config file: each section's values, typed. Unknown
    sections, unknown keys and mistyped values in every section (whether or
    not the command reads it) and `workload.seed` are rejected here; range
    and cross-field checks run when `section` builds a section."""
    if not path:
        return {}
    raw = read_yaml(path) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping of sections")
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    values = {name: section_values(SECTIONS[name], raw[name], name)
              for name in raw}
    if "seed" in values.get("workload", {}):
        raise ConfigError(f"{path}: workload.seed is not a setting; seeds "
                          "come from --seed, --seeds or experiment.seeds")
    return values


def section(raw: dict, name: str, **flags):
    """Section `name` of the harness config `raw`, typed, `flags` on top."""
    return from_section(SECTIONS[name], raw.get(name), name, **flags)


def load_sections(path: str | None, rate=None, architecture=None):
    """The harness config file at `path` (all defaults when None), and its
    env, workload and agent sections with `--rate` and `--arch` on top."""
    raw = load_harness_config(path)
    flags = {"env": {}, "workload": {"rate": rate},
             "agent": {"architecture": architecture}}
    return raw, {name: section(raw, name, **flags[name]) for name in flags}


def _split(flag: str | None):
    """A comma-separated flag as a list, or None when it was not given."""
    return flag.split(",") if flag else None


def _training_sequences(env_cfg, workload, count, seed):
    check_seed(seed)
    return [
        generate(
            dataclasses.replace(workload, seed=derived_seed(seed, 7919, k)), env_cfg
        )
        for k in range(count)
    ]


# -- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    raw, sections = load_sections(args.config, rate=args.rate,
                                  architecture=args.arch)
    env_cfg, workload, agent_cfg = sections.values()
    spec = section(raw, "train", episodes=args.episodes)
    sequences = _training_sequences(env_cfg, workload, spec.sequences, args.seed)
    out = Path(args.out)
    checkpoint = out / "checkpoints" / "final"
    records, agent = train(
        env_cfg,
        sequences,
        agent_cfg,
        episodes=spec.episodes,
        seed=args.seed,
        checkpoint_dir=checkpoint,
        log_path=out / "training_log.csv",
    )

    env = ClusterEnv(env_cfg)
    policy = make_policy("a2c", agent=agent)
    greedy = summarize([
        dataclasses.asdict(run_greedy(policy, env, jobs, agent_cfg.gamma))
        for jobs in sequences
    ])
    print(
        json.dumps(
            {
                "trained_episodes": len(records),
                "checkpoint": str(checkpoint),
                "log": str(out / "training_log.csv"),
                "greedy_avg_slowdown": greedy["avg_slowdown_mean"],
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_evaluate(args) -> int:
    raw, sections = load_sections(args.config, rate=args.rate)
    spec = section(
        raw, "experiment", **sections,
        policies=[args.policy],
        job_rates=[sections["workload"].rate],
        seeds=[args.seed],
        episodes=args.episodes,
        checkpoint=args.checkpoint,
    )
    rows = run_cell(spec, args.policy, 0, spec.seeds[0])
    if args.out:
        write_csv(Path(args.out), EVALUATE_COLUMNS, rows)
    print(
        json.dumps(
            {
                "policy": args.policy,
                "job_rate": spec.job_rates[0],
                "episodes": spec.episodes,
                "avg_slowdown": summarize(rows)["avg_slowdown_mean"],
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_sweep(args) -> int:
    raw, sections = load_sections(args.config)
    spec = section(
        raw, "experiment", **sections,
        policies=_split(args.policies),
        job_rates=_split(args.rates),
        seeds=_split(args.seeds),
        episodes=args.episodes,
        checkpoint=args.checkpoint,
    )
    run_experiment(spec, args.out)
    print(json.dumps({"out": str(args.out)}, sort_keys=True))
    return 0


def cmd_plot_data(args) -> int:
    files = emit_plot_series(args.results, args.out, smooth=args.smooth)
    print(json.dumps({"out": str(args.out), "files": len(files)}, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """A malformed command line fails as a ConfigError; subparsers inherit this."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """Flags that set a config key carry no type: `section_values` converts
    them."""
    parser = _Parser(
        prog="rlsched",
        description="Cluster-scheduling simulator, learned scheduler, and "
        "experiment harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the scheduling agent")
    p.add_argument("--config", help="harness config file (YAML)")
    p.add_argument("--rate", help="job arrival rate")
    p.add_argument("--episodes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", help=" | ".join(ARCHITECTURE_NAMES))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a policy")
    p.add_argument("--config", help="harness config file (YAML)")
    p.add_argument("--policy", required=True, help=" | ".join(POLICY_KINDS))
    p.add_argument("--checkpoint", help="checkpoint directory for a2c")
    p.add_argument("--rate", help="job arrival rate (default workload.rate)")
    p.add_argument("--episodes", help="default experiment.episodes")
    p.add_argument("--seed", default=0)
    p.add_argument("--out", help="write per-episode CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a (policy x rate x seed) experiment")
    p.add_argument("--config", help="harness config file (YAML)")
    p.add_argument("--policies", help="comma-separated policy kinds")
    p.add_argument("--rates", help="comma-separated job rates")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.add_argument("--episodes")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (RlschedError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
