"""Synthetic workload generation and job-trace ingestion.

Synthetic jobs arrive as a Bernoulli process: at each step, one job appears
with probability `rate`. Job sizes follow a bimodal short/long mix with one
randomly chosen dominant resource, which is the standard way to provoke
queueing contention at desk scale.

A job list is decoded in plain Python from the raw 64-bit output of one
`np.random.PCG64(seed)`, fetched in blocks, by the rules numpy's `Generator`
applies to the same stream, so a list is the one `default_rng(seed)`'s
`random()` and `integers()` calls would draw. NumPy's NEP 19 keeps a bit
generator's stream stable across releases but lets `Generator`'s methods
change their algorithms; reading the stream directly keeps every list fixed,
and skips about five numpy calls per job.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import EnvConfig, check_int, check_real, is_int
from .env import Job, validate_jobs
from .errors import ConfigError, SpecError, ValidationError
from .metrics import read_csv, write_csv

_TWO32 = 1 << 32  # values in a 32-bit word
_LOW32 = _TWO32 - 1
_TWO53 = 2.0 ** 53  # random() is a multiple of 2**-53
_BLOCK = 256  # raw words fetched at a time


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
        # the spec's own rules; `validate_spec` adds the cluster's
        check_real("rate", self.rate, 0, 1, error=SpecError)
        check_int("length", self.length, error=SpecError)
        check_real("small_job_fraction", self.small_job_fraction, 0, 1,
                   error=SpecError)
        _check_range(self, "small_duration_range", 1)
        _check_range(self, "large_duration_range", 1)
        _check_range(self, "dominant_demand_range", 1)
        _check_range(self, "other_demand_range", 0)
        check_int("seed", self.seed)


def derived_seed(*key: int) -> int:
    """A workload seed drawn by numpy's SeedSequence from `key`'s ints."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _check_range(spec: WorkloadSpec, name: str, low: int) -> None:
    """Check the [low, high] field `name` of `spec`. A bound that is not a
    plain int is stored as one, so no draw multiplies in a numpy integer."""
    rng = getattr(spec, name)
    try:
        lo, hi = rng
    except (TypeError, ValueError):
        raise SpecError(f"{name} must be a [low, high] pair, got {rng!r}") from None
    if type(lo) is not int or type(hi) is not int:
        if not (is_int(lo) and is_int(hi)):
            raise SpecError(f"{name} bounds must be ints, got {rng!r}")
        lo, hi = rng = (int(lo), int(hi))
        object.__setattr__(spec, name, rng)
    if lo > hi:
        raise SpecError(f"{name} is empty: {rng}")
    if lo < low:
        raise SpecError(f"{name} must start at >= {low}, got {rng}")
    # numpy draws a wider range from 64-bit words, a rule generate lacks
    if hi - lo >= _TWO32:
        raise SpecError(f"{name} spans more than 2**32 values, got {rng}")


def validate_spec(spec: WorkloadSpec, config: EnvConfig) -> None:
    """The rules that need the cluster: every job fits its horizon and its
    smallest capacity. The spec checked its own fields when it was built."""
    max_dur = max(spec.small_duration_range[1], spec.large_duration_range[1])
    if max_dur > config.horizon:
        raise SpecError(f"max duration {max_dur} exceeds horizon {config.horizon}")
    max_dem = max(spec.dominant_demand_range[1], spec.other_demand_range[1])
    if max_dem > min(config.capacities):
        raise SpecError(
            f"max demand {max_dem} exceeds capacity {min(config.capacities)}"
        )


def _raw_words(seed: int):
    """The raw 64-bit outputs of `np.random.PCG64(seed)`, in order."""
    bitgen = np.random.PCG64(seed)
    while True:
        yield from bitgen.random_raw(_BLOCK).tolist()


def _halves(words):
    """32-bit words as numpy's `next_uint32` takes them from PCG64: the low
    half of a raw word, then its high half on the next call. The next raw
    word is pulled only when both halves are spent, and a double drawn from
    `words` in between leaves a kept high half in place."""
    for word in words:
        yield word & _LOW32
        yield word >> 32


def _integer(halves, lo: int, hi: int) -> int:
    """`Generator.integers(lo, hi + 1)` for a span of at most 2**32 values:
    Lemire's multiply-and-reject on 32-bit words. A one-value range draws
    nothing."""
    n = hi - lo + 1
    if n == 1:
        return lo
    m = next(halves) * n
    if m & _LOW32 < n:  # rejection is possible only below n
        threshold = (_TWO32 - n) % n
        while m & _LOW32 < threshold:
            m = next(halves) * n
    return lo + (m >> 32)


def generate(spec: WorkloadSpec, config: EnvConfig) -> list[Job]:
    """Sample a job sequence with one demand per resource of `config`, after
    checking the spec against the cluster dimensions. Pure in (spec, config):
    the same pair always yields the identical sequence.

    The list is decoded from the raw stream of `np.random.PCG64(spec.seed)`,
    which NEP 19 keeps stable across numpy releases, by numpy's own rules, so
    it equals the list drawn through `default_rng(spec.seed)`. Each step
    draws `random() < rate`, a job then `random() < small_job_fraction`, its
    duration, its dominant resource and one demand per resource, the last
    three with `integers()`. `random()` is the top 53 bits of a raw word over
    2**53; `integers()` takes 32-bit words (see `_halves` and `_integer`)."""
    validate_spec(spec, config)
    words = _raw_words(spec.seed)
    halves = _halves(words)
    rate = spec.rate * _TWO53
    small = spec.small_job_fraction * _TWO53
    dom_lo, dom_hi = spec.dominant_demand_range
    other_lo, other_hi = spec.other_demand_range
    resources = range(config.num_resources)
    jobs = []
    for t in range(spec.length):
        if next(words) >> 11 >= rate:
            continue
        if next(words) >> 11 < small:
            lo, hi = spec.small_duration_range
        else:
            lo, hi = spec.large_duration_range
        duration = _integer(halves, lo, hi)
        dominant = _integer(halves, 0, config.num_resources - 1)
        demand = tuple([_integer(halves, dom_lo, dom_hi) if r == dominant
                        else _integer(halves, other_lo, other_hi)
                        for r in resources])
        jobs.append(Job(len(jobs), t, duration, demand))
    return jobs


def draw_sequences(spec: WorkloadSpec, config: EnvConfig, count: int,
                   *key: int) -> list[list[Job]]:
    """`count` job lists from `spec`, list k seeded by `derived_seed(*key, k)`:
    the one seed rule. A sweep cell's key is (seed, rate index) and a
    training run's is (seed, `cli.TRAINING_KEY`). `count` and every key
    int are checked with `check_int`, even when `count` is 0."""
    check_int("count", count)
    for part in key:
        check_int("seed", part)
    return [generate(replace(spec, seed=derived_seed(*key, k)), config)
            for k in range(count)]


# -- trace files ---------------------------------------------------------------

@dataclass(frozen=True)
class TraceMapping:
    """Names the source columns of a trace file; the defaults are the
    canonical layout. `demand_columns` follows the config's resource order."""

    job_id: str = "job_id"
    arrival: str = "arrival_time"
    duration: str = "duration"
    demand_columns: tuple[str, ...] = ("cpu_req", "mem_req")

    @property
    def columns(self) -> tuple[str, ...]:
        """Every column the layout names, in the canonical file order."""
        return (self.job_id, self.arrival, self.duration, *self.demand_columns)


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
    check_real("time_scale", time_scale, 0, open_low=True)
    if len(mapping.demand_columns) != config.num_resources:
        raise ConfigError(
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

    jobs = read_csv(path, mapping.columns, parse)
    validate_jobs(jobs, config)

    if jobs:
        base = min(j.arrival for j in jobs)
        for j in jobs:
            j.arrival -= base
    jobs.sort(key=lambda j: j.arrival)
    return jobs


def save_trace(jobs, path: str | Path) -> None:
    """Write jobs in the canonical trace layout, `TraceMapping()`, in steps.
    A job with another number of demands fails before the file is opened."""
    jobs = list(jobs)
    layout = TraceMapping()
    width = len(layout.demand_columns)
    for job in jobs:
        if len(job.demand) != width:
            raise ValidationError(
                f"{len(job.demand)} demands; the canonical layout has {width}",
                job_id=job.id,
            )
    write_csv(path, layout.columns, (
        dict(zip(layout.columns, (job.id, job.arrival, job.duration, *job.demand)))
        for job in jobs
    ))
