"""Cluster-scheduling simulator, actor-critic scheduler, baselines, and
metrics harness."""

__version__ = "0.1.0"

from .config import EnvConfig
from .env import ClusterEnv, Job, JobList, JobRequest, StepOutcome
from .workload import WorkloadSpec, TraceMapping, generate, load_trace, save_trace
from .metrics import EpisodeReport, episode_report, slowdown, waiting_time
from .agent import (
    ActorCriticAgent,
    AgentConfig,
    Transition,
    n_step_returns,
    train,
)
from .baselines import random_select, run_greedy, sjf_select, tetris_select
from .experiment import ExperimentSpec, emit_plot_series, run_experiment

__all__ = [
    "__version__",
    "EnvConfig",
    "ClusterEnv",
    "Job",
    "JobList",
    "JobRequest",
    "StepOutcome",
    "WorkloadSpec",
    "TraceMapping",
    "generate",
    "load_trace",
    "save_trace",
    "EpisodeReport",
    "episode_report",
    "slowdown",
    "waiting_time",
    "ActorCriticAgent",
    "AgentConfig",
    "Transition",
    "n_step_returns",
    "train",
    "random_select",
    "run_greedy",
    "sjf_select",
    "tetris_select",
    "ExperimentSpec",
    "emit_plot_series",
    "run_experiment",
]
