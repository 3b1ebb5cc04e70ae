"""Per-job and per-episode scheduling metrics.

Slowdown is completion time over execution time (1.0 = the job never
waited); averages are taken over completed jobs only, and an empty set
reports absent values rather than faking zeros.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IncompleteJob, NotStarted


def slowdown(job) -> float:
    """(finish - arrival) / duration for a completed job."""
    if job.finished_at is None:
        raise IncompleteJob(f"job {job.id} has not finished")
    return (job.finished_at - job.arrival) / job.duration


def completion_time(job) -> float:
    if job.finished_at is None:
        raise IncompleteJob(f"job {job.id} has not finished")
    return float(job.finished_at - job.arrival)


def waiting_time(job) -> float:
    """Steps between arrival and start of execution."""
    if job.started_at is None:
        raise NotStarted(f"job {job.id} has not started")
    return float(job.started_at - job.arrival)


@dataclass
class EpisodeReport:
    """One episode's outcome; the fields are the result-file columns, in
    their order."""

    completed: int
    truncated: bool
    avg_slowdown: float | None
    avg_completion_time: float | None
    avg_waiting_time: float | None
    discounted_reward: float


def format_cell(value) -> str:
    """One CSV cell of a result file: blank for None, 0/1 for a bool, ten
    significant digits for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def discounted_total(rewards, gamma: float) -> float:
    total = 0.0
    factor = 1.0
    for r in rewards:
        total += factor * r
        factor *= gamma
    return total


def episode_report(outcomes, rewards, gamma: float, total_jobs: int | None = None):
    """Aggregate one episode. `outcomes` are completed jobs; `rewards` is the
    per-step reward sequence in step order."""
    completed = list(outcomes)
    n = len(completed)
    truncated = total_jobs is not None and n < total_jobs
    if n == 0:
        return EpisodeReport(0, truncated, None, None, None,
                             discounted_total(rewards, gamma))
    # fsum keeps the averages exactly permutation-invariant
    return EpisodeReport(
        completed=n,
        truncated=truncated,
        avg_slowdown=math.fsum(slowdown(j) for j in completed) / n,
        avg_completion_time=math.fsum(completion_time(j) for j in completed) / n,
        avg_waiting_time=math.fsum(waiting_time(j) for j in completed) / n,
        discounted_reward=discounted_total(rewards, gamma),
    )
