"""Synthetic workload generation and job-trace ingestion.

Synthetic jobs arrive as a Bernoulli process: at each step, one job appears
with probability `rate`. Job sizes follow a bimodal short/long mix with one
randomly chosen dominant resource, which is the standard way to provoke
queueing contention at desk scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import EnvConfig, check_seed
from .env import Job, validate_jobs
from .errors import ConfigError, ParseError, SpecError, ValidationError
from .metrics import read_csv, write_csv


@dataclass(frozen=True)
class WorkloadSpec:
    rate: float = 0.7
    length: int = 60
    small_job_fraction: float = 0.8
    small_duration_range: tuple[int, int] = (1, 3)
    large_duration_range: tuple[int, int] = (10, 15)
    dominant_demand_range: tuple[int, int] = (3, 5)
    other_demand_range: tuple[int, int] = (1, 2)
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)


def derived_seed(*key: int) -> int:
    """A workload seed drawn by numpy's SeedSequence from `key`'s ints."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _check_range(name: str, rng: tuple[int, int], low: int) -> None:
    try:
        lo, hi = rng
        if lo > hi:
            raise SpecError(f"{name} is empty: {rng}")
        if lo < low:
            raise SpecError(f"{name} must start at >= {low}, got {rng}")
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a [low, high] pair, got {rng!r}") from None


def validate_spec(spec: WorkloadSpec, config: EnvConfig) -> None:
    if not 0.0 <= spec.rate <= 1.0:
        raise SpecError(f"rate must be in [0, 1], got {spec.rate}")
    if spec.length < 0:
        raise SpecError(f"length must be >= 0, got {spec.length}")
    if not 0.0 <= spec.small_job_fraction <= 1.0:
        raise SpecError(f"small_job_fraction must be in [0, 1]")
    _check_range("small_duration_range", spec.small_duration_range, 1)
    _check_range("large_duration_range", spec.large_duration_range, 1)
    _check_range("dominant_demand_range", spec.dominant_demand_range, 1)
    _check_range("other_demand_range", spec.other_demand_range, 0)
    max_dur = max(spec.small_duration_range[1], spec.large_duration_range[1])
    if max_dur > config.horizon:
        raise SpecError(f"max duration {max_dur} exceeds horizon {config.horizon}")
    max_dem = max(spec.dominant_demand_range[1], spec.other_demand_range[1])
    if max_dem > min(config.capacities):
        raise SpecError(
            f"max demand {max_dem} exceeds capacity {min(config.capacities)}"
        )


def generate(spec: WorkloadSpec, config: EnvConfig) -> list[Job]:
    """Sample a job sequence with one demand per resource of `config`, after
    checking the spec against the cluster dimensions. Pure in (spec, config):
    the same pair always yields the identical sequence."""
    validate_spec(spec, config)
    rng = np.random.default_rng(spec.seed)
    jobs = []
    for t in range(spec.length):
        if rng.random() >= spec.rate:
            continue
        if rng.random() < spec.small_job_fraction:
            lo, hi = spec.small_duration_range
        else:
            lo, hi = spec.large_duration_range
        duration = int(rng.integers(lo, hi + 1))
        dominant = int(rng.integers(config.num_resources))
        demand = []
        for r in range(config.num_resources):
            lo, hi = (
                spec.dominant_demand_range
                if r == dominant
                else spec.other_demand_range
            )
            demand.append(int(rng.integers(lo, hi + 1)))
        jobs.append(
            Job(id=len(jobs), arrival=t, duration=duration, demand=tuple(demand))
        )
    return jobs


# -- trace files ---------------------------------------------------------------

CANONICAL_COLUMNS = ("job_id", "arrival_time", "duration", "cpu_req", "mem_req")


@dataclass(frozen=True)
class TraceMapping:
    """Names the source columns of a trace file; defaults match the canonical
    layout. `demand_columns` follows the config's resource order."""

    job_id: str = "job_id"
    arrival: str = "arrival_time"
    duration: str = "duration"
    demand_columns: tuple[str, ...] = ("cpu_req", "mem_req")


def load_trace(
    path: str | Path,
    config: EnvConfig,
    mapping: TraceMapping | None = None,
    time_scale: float = 1.0,
) -> list[Job]:
    """Ingest a comma-separated job trace.

    Times are divided by `time_scale` and quantized: arrivals floor, durations
    ceiling (a job never rounds down to zero steps). The jobs then pass the
    simulator's own `validate_jobs`, in file order, so a bad row fails here
    with a ValidationError that carries its job id. Arrivals are rebased so
    the earliest is step 0 and the result is sorted by arrival.
    """
    mapping = mapping or TraceMapping()
    if not 0.0 < time_scale < math.inf:  # False for NaN too
        raise ConfigError(f"time_scale must be finite and > 0, got {time_scale}")
    if len(mapping.demand_columns) != config.num_resources:
        raise ParseError(
            f"mapping names {len(mapping.demand_columns)} demand columns, "
            f"config has {config.num_resources} resources"
        )

    def parse(record) -> Job:
        job_id = int(record[mapping.job_id])
        arrival = float(record[mapping.arrival]) / time_scale
        duration = float(record[mapping.duration]) / time_scale
        demand = tuple(int(record[c]) for c in mapping.demand_columns)
        if not (math.isfinite(arrival) and math.isfinite(duration)):
            raise ValueError("times must be finite numbers of steps")
        return Job(id=job_id, arrival=math.floor(arrival),
                   duration=math.ceil(duration), demand=demand)

    needed = (mapping.job_id, mapping.arrival, mapping.duration,
              *mapping.demand_columns)
    jobs = read_csv(path, needed, parse)
    validate_jobs(jobs, config)

    if jobs:
        base = min(j.arrival for j in jobs)
        for j in jobs:
            j.arrival -= base
    jobs.sort(key=lambda j: j.arrival)
    return jobs


def save_trace(jobs, path: str | Path) -> None:
    """Write jobs in the canonical trace layout (step units, two resources).
    A job with another number of demands fails before the file is opened."""
    jobs = list(jobs)
    width = len(TraceMapping.demand_columns)
    for job in jobs:
        if len(job.demand) != width:
            raise ValidationError(
                f"{len(job.demand)} demands; the canonical layout has {width}",
                job_id=job.id,
            )
    write_csv(path, CANONICAL_COLUMNS, (
        dict(zip(CANONICAL_COLUMNS,
                 (job.id, job.arrival, job.duration, *job.demand)))
        for job in jobs
    ))
