"""Experiment sweeps: (policy x job rate x seed) cells, CSV results, and
plot-ready series.

Every cell is a pure function of the spec and its seeds: `cell_sequences`
draws each episode's jobs by `workload.draw_sequences`, from a seed derived
from (seed, rate index, episode), so re-running a sweep reproduces the
result files byte for byte. A sweep draws each (rate, seed)'s sequences
once and every policy runs those same lists, which keeps cross-policy
comparisons paired.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .agent import ActorCriticAgent, AgentConfig, checkpoint_architecture
from .baselines import random_select, run_greedy, sjf_select, tetris_select
from .config import EnvConfig, check_int
from .env import ClusterEnv, JobList
from .errors import ConfigError
from .metrics import EpisodeReport, format_cell, read_csv, write_csv
from .workload import RawIntegers, WorkloadSpec, draw_sequences, validate_spec

POLICY_KINDS = ("random", "sjf", "tetris", "a2c")

EPISODE_COLUMNS = ("policy", "job_rate", "seed", "episode") + tuple(
    f.name for f in dataclasses.fields(EpisodeReport)
)

SUMMARY_METRICS = (
    "avg_slowdown",
    "avg_completion_time",
    "avg_waiting_time",
    "discounted_reward",
)


@dataclass(frozen=True)
class ExperimentSpec:
    policies: tuple[str, ...] = ("random", "sjf", "tetris")
    job_rates: tuple[float, ...] = (0.7,)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    episodes: int = 20
    summary_window: int = 50
    env: EnvConfig = field(default_factory=EnvConfig)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    agent: AgentConfig = field(default_factory=AgentConfig)
    checkpoint: str | None = None

    def __post_init__(self):
        # the whole spec is checked here, before the first cell runs
        unknown = [p for p in self.policies if p not in POLICY_KINDS]
        if unknown:
            raise ConfigError(f"unknown policies {unknown}; pick from {POLICY_KINDS}")
        if "a2c" in self.policies and not self.checkpoint:
            raise ConfigError("a2c policy requires a checkpoint path")
        for name in ("policies", "job_rates", "seeds"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a value: {list(values)}")
        check_int("episodes", self.episodes)
        check_int("summary_window", self.summary_window)  # 0: every episode
        for seed in self.seeds:
            check_int("seed", seed)
        for rate in self.job_rates:
            validate_spec(dataclasses.replace(self.workload, rate=rate), self.env)


def _json_value(value):
    """A numpy scalar, which the spec's checks accept, as its Python value;
    the `default` of every JSON dump of a spec."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def config_hash(spec: ExperimentSpec) -> str:
    canonical = json.dumps(dataclasses.asdict(spec), sort_keys=True,
                           default=_json_value)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _with_checkpoint_architecture(spec: ExperimentSpec) -> ExperimentSpec:
    """`spec` with `agent.architecture` the one its checkpoint names, the
    network its a2c cells build."""
    shape = ClusterEnv(spec.env).observation_shape()
    name = checkpoint_architecture(spec.checkpoint, shape, spec.env.num_actions)
    return dataclasses.replace(
        spec, agent=dataclasses.replace(spec.agent, architecture=name))


def _build_policy(kind: str, spec: ExperimentSpec, env: ClusterEnv,
                  seed: int, rate_index: int):
    """The cell's env -> action; heuristics are read as globals at each call."""
    if kind not in spec.policies:
        raise ConfigError(f"{kind!r} is not in spec.policies {list(spec.policies)}")
    if kind == "sjf":
        return sjf_select
    if kind == "tetris":
        return tetris_select
    if kind == "random":
        # the stream of default_rng(SeedSequence([seed, rate_index, 0xA5]))
        rng = RawIntegers(np.random.SeedSequence([seed, rate_index, 0xA5]))
        return lambda env: random_select(env, rng)
    # "a2c": __post_init__ admits only POLICY_KINDS and requires a checkpoint
    agent = ActorCriticAgent(env.observation_shape(), spec.env.num_actions,
                             seed=seed,
                             config=_with_checkpoint_architecture(spec).agent)
    agent.load(spec.checkpoint)
    return lambda env: agent.act(env.encode_state(), greedy=True)


def cell_sequences(spec: ExperimentSpec, rate_index: int,
                   seed: int) -> list[JobList]:
    """One job list per episode for the cells at (rate, seed); every policy
    of those cells runs the same lists. The rate is
    spec.job_rates[rate_index] and the `draw_sequences` key (seed,
    rate_index)."""
    return draw_sequences(
        dataclasses.replace(spec.workload, rate=spec.job_rates[rate_index]),
        spec.env, spec.episodes, seed, rate_index)


def run_cell(spec: ExperimentSpec, policy_kind: str, rate_index: int,
             seed: int, sequences: list[JobList]) -> list[dict]:
    """One (policy, rate, seed) cell: one row per sequence, with the columns
    of EPISODE_COLUMNS. The rate is spec.job_rates[rate_index]. The
    sequences are only read, so every policy of a cell can run the same
    lists."""
    rate = spec.job_rates[rate_index]
    env = ClusterEnv(spec.env)
    policy = _build_policy(policy_kind, spec, env, seed, rate_index)
    rows = []
    for episode, jobs in enumerate(sequences):
        report = run_greedy(policy, env, jobs, spec.agent.gamma)
        # vars() holds the report's fields in their order, with no deep copy
        rows.append({"policy": policy_kind, "job_rate": rate, "seed": seed,
                     "episode": episode, **vars(report)})
    return rows


def summarize(rows: list[dict]) -> dict:
    """`<metric>_mean` and `<metric>_std` of each SUMMARY_METRICS entry over
    the rows that report it, None when no row does. Every mean the harness
    reports comes from here."""
    summary = {}
    for metric in SUMMARY_METRICS:
        values = [r[metric] for r in rows if r[metric] is not None]
        summary[f"{metric}_mean"] = float(np.mean(values)) if values else None
        summary[f"{metric}_std"] = float(np.std(values)) if values else None
    return summary


def _summarize(rows: list[dict], window: int) -> dict:
    tail = rows[-window:] if window > 0 else rows
    return {
        "policy": tail[0]["policy"],
        "job_rate": tail[0]["job_rate"],
        "seed": tail[0]["seed"],
        "episodes": len(rows),
        "window": len(tail),
        **summarize(tail),
    }


def run_experiment(spec: ExperimentSpec, out_dir: str | Path):
    """Run every (policy x rate x seed) cell and write episodes.csv,
    summary.csv, and manifest.json under out_dir. Each (rate, seed)'s
    sequences are drawn once, at its first cell, and kept until the rate
    changes. On failure the completed cells are still flushed and the
    manifest marks the incomplete ones."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    episode_rows: list[dict] = []
    summary_rows: list[dict] = []
    cells = []
    error: Exception | None = None
    drawn_rate, drawn = None, {}  # seed -> the sequences at rate drawn_rate
    ran = spec  # the manifest's spec: a2c cells run the checkpoint's network

    for (rate_index, rate), policy_kind, seed in itertools.product(
            enumerate(spec.job_rates), spec.policies, spec.seeds):
        cell = {"policy": policy_kind, "job_rate": rate, "seed": seed}
        try:
            if policy_kind == "a2c" and ran is spec:
                ran = _with_checkpoint_architecture(spec)
            if rate_index != drawn_rate:
                drawn_rate, drawn = rate_index, {}
            if seed not in drawn:
                drawn[seed] = cell_sequences(spec, rate_index, seed)
            rows = run_cell(spec, policy_kind, rate_index, seed, drawn[seed])
        except Exception as exc:  # flush partial results before raising
            cells.append({**cell, "status": "incomplete"})
            error = exc
            break
        episode_rows.extend(rows)
        if rows:
            summary_rows.append(_summarize(rows, spec.summary_window))
        cells.append({**cell, "status": "complete"})

    write_csv(out_dir / "episodes.csv", EPISODE_COLUMNS, episode_rows)
    summary_columns = ["policy", "job_rate", "seed", "episodes", "window",
                       *summarize([])]
    write_csv(out_dir / "summary.csv", summary_columns, summary_rows)
    manifest = {
        "version": __version__,
        "config_hash": config_hash(ran),
        "spec": dataclasses.asdict(ran),
        "cells": cells,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_value)
        fh.write("\n")
    if error is not None:
        raise error
    return episode_rows, summary_rows


# -- plot-ready series ----------------------------------------------------------


def _episode_point(record: dict) -> dict:
    """The columns of one episodes.csv record that the plot series read,
    typed; a blank metric cell is None."""
    return {
        "policy": record["policy"],
        "job_rate": float(record["job_rate"]),
        "episode": int(record["episode"]),
        **{m: None if record[m] == "" else float(record[m])
           for m in SUMMARY_METRICS},
    }


def emit_plot_series(results_dir: str | Path, out_dir: str | Path,
                     smooth: int = 0) -> list[Path]:
    """One series file per (metric, policy, job rate): episode index vs the
    seed-averaged metric, optionally smoothed with a trailing window. A
    malformed episodes.csv is a ParseError."""
    rows = read_csv(Path(results_dir) / "episodes.csv",
                    ("policy", "job_rate", "episode", *SUMMARY_METRICS),
                    _episode_point)
    out_dir = Path(out_dir)
    written = []
    for rate, policy in sorted({(r["job_rate"], r["policy"]) for r in rows}):
        subset = [r for r in rows if (r["job_rate"], r["policy"]) == (rate, policy)]
        rate_dir = out_dir / f"rate_{format_cell(rate)}"
        rate_dir.mkdir(parents=True, exist_ok=True)
        for metric in SUMMARY_METRICS:
            by_episode: dict[int, list[float]] = {}
            for r in subset:
                if r[metric] is not None:
                    by_episode.setdefault(r["episode"], []).append(r[metric])
            episodes = sorted(by_episode)
            values = [float(np.mean(by_episode[e])) for e in episodes]
            values = _smooth(values, smooth)
            path = rate_dir / f"series_{metric}__{policy}.csv"
            write_csv(path, ("episode", "value"),
                      [{"episode": e, "value": v}
                       for e, v in zip(episodes, values)])
            written.append(path)
    return written


def _smooth(values: list[float], window: int) -> list[float]:
    if window <= 1:
        return values
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out.append(float(np.mean(values[lo : i + 1])))
    return out
