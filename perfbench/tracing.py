"""Wrappers installed from outside rlsched around calls into its public
functions: thin capture hooks for the correctness checks, and spans for the
per-layer metrics of a traced run.

A span covers one call of a wrapped function and names the span that was open
when it started (its parent). A span's self time is its duration minus the
time its child spans cover.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from rlsched import agent, baselines, env, experiment, metrics, workload
from rlsched.nn import checkpoint, network


def patch(owner, attr: str, make_wrapper) -> None:
    """Replace `owner.attr` by `make_wrapper(original)`.

    For a class the attribute is replaced on the class. For a module function
    every rlsched module that holds the same function object is patched too,
    since `from .x import f` copies the reference at import time.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rlsched" or name.startswith("rlsched.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def wrapped_functions():
    """(span name, owner, attribute) of every function the traced run times."""
    return [
        ("env.step", env.ClusterEnv, "step"),
        ("env.encode_state", env.ClusterEnv, "encode_state"),
        ("env.reset", env.ClusterEnv, "reset"),
        ("env.free_counts", env.ClusterImage, "free_counts"),
        ("env.fits_at", env.ClusterImage, "fits_at"),
        ("env.earliest_offset", env.ClusterImage, "earliest_offset"),
        ("env.place", env.ClusterImage, "place"),
        ("baselines.sjf_select", baselines, "sjf_select"),
        ("baselines.tetris_select", baselines, "tetris_select"),
        ("baselines.random_select", baselines, "random_select"),
        ("baselines.run_greedy", baselines, "run_greedy"),
        ("workload.generate", workload, "generate"),
        ("metrics.episode_report", metrics, "episode_report"),
        ("experiment.run_experiment", experiment, "run_experiment"),
        ("nn.forward", network.Network, "forward"),
        ("nn.backward", network.Network, "backward"),
        ("nn.sgd_step", network.Network, "sgd_step"),
        ("nn.save_params", checkpoint, "save_params"),
        ("nn.load_params", checkpoint, "load_params"),
        ("agent.act", agent.ActorCriticAgent, "act"),
        ("agent.update", agent.ActorCriticAgent, "update"),
        ("agent.n_step_returns", agent, "n_step_returns"),
    ]


class Tracer:
    """Spans in memory: per-round counts and self times, pooled durations.

    `nn.forward` is split by batch size into `nn.forward.b1` (one state, the
    acting path) and `nn.forward.batch` (several, the update path).
    """

    def __init__(self):
        self.durations = defaultdict(lambda: array("d"))  # pooled over rounds
        self._open: list[list] = []  # [span id, child seconds] of open spans
        self._next_id = 0
        self.start_round()

    def start_round(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # step.invalid, forward.rows
        self.names: dict[str, int] = {}
        self.spans = {key: array(code) for key, code in
                      (("id", "q"), ("parent", "q"), ("name", "H"),
                       ("start", "d"), ("end", "d"))}

    def install(self) -> None:
        for name, owner, attr in wrapped_functions():
            patch(owner, attr, lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stat = name
            if name == "nn.forward":
                rows = len(args[1])
                tracer.counts["nn.forward.rows"] += rows
                stat = "nn.forward.b1" if rows == 1 else "nn.forward.batch"
            open_spans = tracer._open
            parent = open_spans[-1] if open_spans else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            open_spans.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.calls[stat] += 1
                tracer.self_s[stat] += duration - frame[1]
                tracer.durations[stat].append(duration)
                spans = tracer.spans
                spans["id"].append(frame[0])
                spans["parent"].append(-1 if parent is None else parent[0])
                spans["name"].append(
                    tracer.names.setdefault(stat, len(tracer.names)))
                spans["start"].append(start)
                spans["end"].append(end)
            if name == "env.step" and result.info["invalid_action"]:
                tracer.counts["env.step.invalid"] += 1
            return result

        return traced

    def round_stats(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        """The current round's spans as columns, with the name table."""
        np.savez_compressed(
            path, names=np.array(list(self.names)),
            **{key: np.frombuffer(col, dtype=col.typecode) if len(col)
               else np.array([]) for key, col in self.spans.items()})

    def quantile_us(self, stat: str, q: float) -> float:
        values = self.durations.get(stat)
        if not values:
            return 0.0
        return float(np.quantile(np.frombuffer(values), q)) * 1e6


def per_layer_metrics(tracer: Tracer, rounds: list[dict],
                      overhead_share: float) -> dict:
    """Per-layer metrics from the traced rounds. Counts are per round (every
    round runs the same operations); self times are medians over rounds;
    percentiles pool every traced call, set-up included."""
    last = rounds[-1]
    calls, counts = last["calls"], last["counts"]
    steps = calls.get("env.step", 0)

    def self_s(*stats):
        return float(np.median([sum(r["self_s"].get(s, 0.0) for s in stats)
                                for r in rounds]))

    def per_step(value):
        return value / steps if steps else 0.0

    p50 = lambda stat: tracer.quantile_us(stat, 0.5)
    forward_calls = calls.get("nn.forward.b1", 0) + calls.get("nn.forward.batch", 0)
    values = {
        "env.step.calls": (steps, "count"),
        "env.step.self_s": (self_s("env.step"), "s"),
        "env.step.us_p50": (p50("env.step"), "us"),
        "env.step.invalid_share": (per_step(counts.get("env.step.invalid", 0)), "ratio"),
        "env.encode_state.calls": (calls.get("env.encode_state", 0), "count"),
        "env.encode_state.us_p50": (p50("env.encode_state"), "us"),
        "env.free_counts.calls_per_step": (per_step(calls.get("env.free_counts", 0)), "calls/step"),
        "env.fits_at.us_p50": (p50("env.fits_at"), "us"),
        "env.earliest_offset.us_p50": (p50("env.earliest_offset"), "us"),
        "env.place.us_p50": (p50("env.place"), "us"),
        "env.reset.us_p50": (p50("env.reset"), "us"),
        "baselines.sjf_select.us_p50": (p50("baselines.sjf_select"), "us"),
        "baselines.tetris_select.us_p50": (p50("baselines.tetris_select"), "us"),
        "baselines.random_select.us_p50": (p50("baselines.random_select"), "us"),
        "baselines.run_greedy.self_s": (self_s("baselines.run_greedy"), "s"),
        "workload.generate.calls": (calls.get("workload.generate", 0), "count"),
        "workload.generate.us_p50": (p50("workload.generate"), "us"),
        "metrics.episode_report.us_p50": (p50("metrics.episode_report"), "us"),
        "experiment.run_experiment.self_s": (self_s("experiment.run_experiment"), "s"),
        "nn.forward.calls": (forward_calls, "count"),
        "nn.forward.rows_per_step": (per_step(counts.get("nn.forward.rows", 0)), "rows/step"),
        "nn.forward.b1_us_p50": (p50("nn.forward.b1"), "us"),
        "nn.forward.batch_us_p50": (p50("nn.forward.batch"), "us"),
        "nn.backward.us_p50": (p50("nn.backward"), "us"),
        "nn.sgd_step.us_p50": (p50("nn.sgd_step"), "us"),
        "nn.self_s": (self_s("nn.forward.b1", "nn.forward.batch", "nn.backward",
                             "nn.sgd_step"), "s"),
        "nn.save_params.ms": (p50("nn.save_params") / 1e3, "ms"),
        "nn.load_params.ms": (p50("nn.load_params") / 1e3, "ms"),
        "agent.act.us_p50": (p50("agent.act"), "us"),
        "agent.act.us_p90": (tracer.quantile_us("agent.act", 0.9), "us"),
        "agent.update.us_p50": (p50("agent.update"), "us"),
        "agent.update.self_s": (self_s("agent.update"), "s"),
        "agent.n_step_returns.us_p50": (p50("agent.n_step_returns"), "us"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
