"""Discrete-time cluster simulator.

The cluster is an occupancy image: per resource, `horizon` rows (time steps
into the future, row 0 = now) by `capacity` unit-cell columns. Scheduling a
job reserves `demand[r]` units per row over `duration` consecutive rows
starting at the earliest feasible offset. Time advances one row at a time,
only on void or no-op actions, so several jobs can be packed within a single
step.

Placement always takes a row's lowest free cells, and a row is freed only
when it scrolls off the top of the image, so every row is a filled prefix.
The image is therefore stored as one Python list of per-row used counts per
resource, and drawn as cells only when the observation is encoded. The fit
search reads these lists with plain integer arithmetic; a (horizon, resource)
array of the same counts is built from them, read-only, for the encoder and
for inspection.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from collections import deque

import numpy as np

from .config import EnvConfig
from .errors import EpisodeFinished, InvalidActionError, ValidationError


@dataclass
class Job:
    """A work request and its lifecycle timestamps."""

    id: int
    arrival: int
    duration: int
    demand: tuple[int, ...]
    started_at: int | None = None
    finished_at: int | None = None

    def fresh_copy(self) -> "Job":
        return dataclasses.replace(self, started_at=None, finished_at=None)


@dataclass
class StepOutcome:
    reward: float
    done: bool
    info: dict


def validate_jobs(jobs, config: EnvConfig) -> None:
    """The one rule for a valid job, whatever its source: checks `jobs` in
    order and raises ValidationError with the id of the first bad one."""
    seen = set()
    for job in jobs:
        fault = _job_fault(job, config, seen)
        if fault:
            raise ValidationError(fault, job_id=job.id)
        seen.add(job.id)


def _job_fault(job: Job, config: EnvConfig, seen_ids) -> str | None:
    if job.id in seen_ids:
        return "duplicate job id"
    if job.id < 0:
        return "id must be >= 0"
    if job.arrival < 0:
        return "arrival must be >= 0"
    if job.duration < 1:
        return "duration must be >= 1"
    if job.duration > config.horizon:
        return f"duration {job.duration} exceeds horizon {config.horizon}"
    if len(job.demand) != config.num_resources:
        return (f"demand has {len(job.demand)} components, "
                f"expected {config.num_resources}")
    for d, cap, name in zip(job.demand, config.capacities, config.resources):
        if d < 0:
            return f"negative {name} demand"
        if d > cap:
            return f"{name} demand {d} exceeds capacity {cap}"
    if not any(job.demand):
        return "demand must be positive somewhere"


class ClusterImage:
    """Used units per row of the look-ahead horizon, one list per resource.

    `columns[r][k]` is the count of resource r used in row k. Each count
    stands for a filled prefix of the row's cells (see the module docstring),
    so the counts alone determine the drawn image. The lists are the only
    store: the fit test and placement work on them directly, and `used` is a
    read-only array built from them on request.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self.columns = [[0] * config.horizon for _ in config.capacities]

    @property
    def used(self) -> np.ndarray:
        """(horizon, num_resources) read-only array of used units per row."""
        used = np.array(self.columns, dtype=np.int64).T
        used.flags.writeable = False
        return used

    def free_counts(self) -> np.ndarray:
        """(horizon, num_resources) array of free cells per row."""
        return np.subtract(self.config.capacities, self.used)

    def _window_fits(self, job: Job, offset: int) -> bool:
        """Whether the job's rows from `offset` on lie within the horizon and
        have room for its demand; callers keep `offset` non-negative."""
        end = offset + job.duration
        if end > self.config.horizon:
            return False
        for col, d, cap in zip(self.columns, job.demand, self.config.capacities):
            if max(col[offset:end]) + d > cap:
                return False
        return True

    def fits_at(self, job: Job, offset: int) -> bool:
        return offset >= 0 and self._window_fits(job, offset)

    def earliest_offset(self, job: Job) -> int | None:
        starts = range(self.config.horizon - job.duration + 1)
        return next((o for o in starts if self._window_fits(job, o)), None)

    def place(self, job: Job, offset: int) -> None:
        assert offset >= 0 and self._window_fits(job, offset), (
            "placement exceeds capacity"
        )
        end = offset + job.duration
        for col, d in zip(self.columns, job.demand):
            col[offset:end] = [u + d for u in col[offset:end]]

    def shift_up(self) -> None:
        for col in self.columns:
            del col[0]
            col.append(0)


class ClusterEnv:
    """Single-cluster scheduling environment.

    Arrived jobs that hold no queue slot wait in one FIFO, `waiting`; each
    empty slot takes the head of it. Its first `backlog_size` jobs are the
    backlog, which the reward charges and the observation counts; the rest
    are arrivals deferred while the backlog is full, invisible to both.

    Reachable job states: not yet arrived, deferred, backlog, queue slot,
    running (allocated, possibly at a future start row), completed. Exactly
    one holds at any time.
    """

    def __init__(self, config: EnvConfig | None = None):
        self.config = config or EnvConfig()
        self.jobs: list[Job] = []
        self.reset([])

    # -- episode lifecycle ---------------------------------------------------

    def reset(self, jobs) -> "ClusterEnv":
        """Start an episode over `jobs` (sorted by arrival; copied, so the
        caller's list is never mutated). Deterministic in (config, jobs)."""
        config = self.config
        incoming = [j.fresh_copy() for j in jobs]
        validate_jobs(incoming, config)
        incoming.sort(key=lambda j: j.arrival)  # stable: ties keep input order

        self.jobs = incoming
        self.clock = 0
        self.image = ClusterImage(config)
        self.queue: list[Job | None] = [None] * config.queue_slots
        self.waiting: deque[Job] = deque()
        self.running: list[Job] = []
        self.completed: list[Job] = []
        self._next_arrival = 0
        self._admit_arrivals()
        self._rebalance()
        return self

    # -- admission / queue bookkeeping ----------------------------------------

    def _admit_arrivals(self) -> None:
        while (
            self._next_arrival < len(self.jobs)
            and self.jobs[self._next_arrival].arrival <= self.clock
        ):
            self.waiting.append(self.jobs[self._next_arrival])
            self._next_arrival += 1

    def _rebalance(self) -> None:
        """Fill each empty slot, lowest first, from the head of `waiting`."""
        for i, job in enumerate(self.queue):
            if job is None and self.waiting:
                self.queue[i] = self.waiting.popleft()

    # -- scheduling -----------------------------------------------------------

    def _allocate(self, slot_index: int, offset: int) -> Job:
        job = self.queue[slot_index]
        self.image.place(job, offset)
        job.started_at = self.clock + offset
        self.queue[slot_index] = None
        self.running.append(job)
        self._rebalance()
        return job

    def advance_time(self) -> tuple[float, list[Job]]:
        """One simulated step: reward for the elapsed step (computed before
        any mutation), then image shift, completions, arrivals, promotion."""
        reward = self._step_reward()
        self.clock += 1
        self.image.shift_up()

        completions = [
            job for job in self.running
            if job.started_at + job.duration == self.clock
        ]
        for job in completions:
            job.finished_at = self.clock
            self.running.remove(job)
            self.completed.append(job)

        self._admit_arrivals()
        self._rebalance()
        return reward, completions

    def _step_reward(self) -> float:
        in_system = (
            self.running
            + [j for j in self.queue if j is not None]
            + list(itertools.islice(self.waiting, self.config.backlog_size))
        )
        return -sum(1.0 / j.duration for j in in_system)

    def step(self, action: int) -> StepOutcome:
        """Apply one action. Valid allocations do not advance time; the void
        action, an empty slot, or an unfittable job advance time by one step."""
        n = self.config.num_actions
        if not isinstance(action, (int, np.integer)) or action < 0 or action >= n:
            raise InvalidActionError(f"action must be in [0, {n - 1}], got {action!r}")
        if self.is_done():
            raise EpisodeFinished("step() called on a finished episode")

        reward = 0.0
        invalid = False
        if action == 0:
            reward, _ = self.advance_time()
        else:
            slot = action - 1
            job = self.queue[slot]
            offset = self.image.earliest_offset(job) if job is not None else None
            if job is not None and offset is not None:
                self._allocate(slot, offset)
            else:
                invalid = True
                reward, _ = self.advance_time()

        return StepOutcome(
            reward=reward, done=self.is_done(), info={"invalid_action": invalid}
        )

    def is_done(self) -> bool:
        return len(self.completed) == len(self.jobs) or (
            self.clock >= self.config.episode_limit
        )

    # -- observation ----------------------------------------------------------

    def backlog_block_width(self) -> int:
        h = self.config.horizon
        return math.ceil(self.config.backlog_size / h)

    def observation_shape(self) -> tuple[int, int]:
        cfg = self.config
        width = sum(cap * (1 + cfg.queue_slots) for cap in cfg.capacities)
        return cfg.horizon, width + self.backlog_block_width()

    def encode_state(self) -> np.ndarray:
        """Fixed-shape 2-D image: per resource, the cluster occupancy block
        followed by one block per queue slot (job footprint drawn top-left),
        then a unary column-major backlog counter."""
        h = self.config.horizon
        image = np.zeros(self.observation_shape(), dtype=np.float32)
        used = self.image.used
        col = 0
        for r, cap in enumerate(self.config.capacities):
            image[:, col : col + cap] = np.arange(cap) < used[:, r, None]
            col += cap
            for job in self.queue:
                if job is not None:
                    image[: job.duration, col : col + job.demand[r]] = 1.0
                col += cap
        full, rem = divmod(min(len(self.waiting), self.config.backlog_size), h)
        image[:, col : col + full] = 1.0
        if rem:
            image[:rem, col + full] = 1.0
        return image

    # -- candidates ------------------------------------------------------------

    def fitting_jobs(self) -> list[tuple[int, Job]]:
        """The one fits-now rule: (action, job), lowest action first, for
        each queued job that fits at offset 0; `step(action)` starts it now."""
        return [(a, j) for a, j in enumerate(self.queue, start=1)
                if j is not None and self.image.fits_at(j, 0)]
