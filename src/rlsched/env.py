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
resource, and drawn as cells only when the observation is encoded. The one
fit rule, `ClusterImage.fits_at`, reads these lists with plain integer
arithmetic: the candidate list, the earliest-offset search and the placement
check each call it once per window they test. It rejects a window on its
first row before it scans the rest, which gives the same answer, since a
window's highest count is at least its first. Under the heuristics every
job starts at row 0, so no column rises with depth and every failing test
fails on the first row. The encoder takes each drawn
row from a per-capacity table of row patterns, indexed by the count; a
(horizon, resource) array of the same counts is built from them, read-only,
for `free_counts` and for inspection.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from collections import deque
from collections.abc import Sequence

import numpy as np

from .config import EnvConfig
from .errors import EpisodeFinished, InvalidActionError, ValidationError


@dataclass(slots=True)
class Job:
    """A work request and its lifecycle timestamps."""

    id: int
    arrival: int
    duration: int
    demand: tuple[int, ...]
    started_at: int | None = None
    finished_at: int | None = None

    def fresh_copy(self) -> "Job":
        return Job(id=self.id, arrival=self.arrival, duration=self.duration,
                   demand=self.demand)


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


_INTS = (int, np.integer)


def _job_fault(job: Job, config: EnvConfig, seen_ids) -> str | None:
    # reset runs this on every episode, so exact ints pass one type test;
    # numpy integers, which `config.check_int` accepts too, take the slow path
    if not type(job.id) is type(job.arrival) is type(job.duration) is int:
        for name in ("id", "arrival", "duration"):
            value = getattr(job, name)
            if isinstance(value, bool) or not isinstance(value, _INTS):
                return f"{name} must be an int, got {value!r}"
    if type(job.demand) is not tuple and not isinstance(job.demand, Sequence):
        return f"demand must be a sequence, got {job.demand!r}"
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
    for r, (d, cap) in enumerate(zip(job.demand, config.capacities)):
        if type(d) is not int and (isinstance(d, bool) or not isinstance(d, _INTS)):
            return f"resource {r} demand must be an int, got {d!r}"
        if d < 0:
            return f"resource {r} demand {d} is negative"
        if d > cap:
            return f"resource {r} demand {d} exceeds capacity {cap}"
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

    def fits_at(self, job: Job, offset: int) -> bool:
        """The one fit rule: whether the job's rows from `offset` on lie
        within the horizon and have room for its demand. A negative offset
        never fits.

        Each resource's window is first tested on its first row alone, and
        scanned whole only if that row has room; a window's maximum is at
        least its first row, so the answer is the full scan's, and the test
        is still one call per window."""
        end = offset + job.duration
        if offset < 0 or end > self.config.horizon:
            return False
        for col, d, cap in zip(self.columns, job.demand, self.config.capacities):
            if col[offset] + d > cap or max(col[offset:end]) + d > cap:
                return False
        return True

    def earliest_offset(self, job: Job) -> int | None:
        fits_at = self.fits_at
        for offset in range(self.config.horizon - job.duration + 1):
            if fits_at(job, offset):
                return offset
        return None

    def place(self, job: Job, offset: int) -> None:
        assert self.fits_at(job, offset), "placement exceeds capacity"
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
        # row u of a capacity's table draws a row with u used cells: u ones,
        # then zeros; the encoder indexes it with the used counts
        self._row_patterns = {
            cap: (np.arange(cap + 1)[:, None] > np.arange(cap)).astype(np.float32)
            for cap in self.config.capacities}
        self.reset([])

    # -- episode lifecycle ---------------------------------------------------

    def reset(self, jobs) -> "ClusterEnv":
        """Start an episode over `jobs` (sorted by arrival; copied, so the
        caller's list is never mutated). Deterministic in (config, jobs)."""
        config = self.config
        try:
            incoming = [j.fresh_copy() for j in jobs]
        except AttributeError as exc:  # an entry that is not a Job
            raise ValidationError(
                f"each job must be a Job, got {type(exc.obj).__name__}") from None
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
        waiting = self.waiting
        if not waiting:
            return
        for i, job in enumerate(self.queue):
            if job is None and waiting:
                self.queue[i] = waiting.popleft()

    # -- scheduling -----------------------------------------------------------

    def advance_time(self) -> tuple[float, list[Job]]:
        """One simulated step: reward for the elapsed step (computed before
        any mutation), then image shift, completions, arrivals, promotion."""
        reward = self._step_reward()
        clock = self.clock = self.clock + 1
        self.image.shift_up()

        completions = [
            job for job in self.running
            if job.started_at + job.duration == clock
        ]
        for job in completions:
            job.finished_at = clock
            self.running.remove(job)
            self.completed.append(job)

        self._admit_arrivals()
        self._rebalance()
        return reward, completions

    def _step_reward(self) -> float:
        """Minus the sum of 1 / duration over the running, queued and backlog
        jobs. Subtracting left to right from 0.0 gives the bits of minus a
        left-to-right sum, which sum() adds only before Python 3.12: from
        3.12 it compensates, and can differ in the last bit."""
        reward = 0.0
        for job in self.running:
            reward -= 1.0 / job.duration
        for job in self.queue:
            if job is not None:
                reward -= 1.0 / job.duration
        for job in itertools.islice(self.waiting, self.config.backlog_size):
            reward -= 1.0 / job.duration
        return reward

    def step(self, action: int) -> StepOutcome:
        """Apply one action. Valid allocations do not advance time; the void
        action, an empty slot, or an unfittable job advance time by one step."""
        n = self.config.num_actions
        if (not isinstance(action, (int, np.integer)) or isinstance(action, bool)
                or action < 0 or action >= n):
            raise InvalidActionError(f"action must be in [0, {n - 1}], got {action!r}")
        if self.is_done():
            raise EpisodeFinished("step() called on a finished episode")

        job = self.queue[action - 1] if action else None
        offset = None if job is None else self.image.earliest_offset(job)
        if offset is None:  # void, an empty slot, or a job that fits nowhere
            reward, _ = self.advance_time()
            return StepOutcome(reward, self.is_done(),
                               {"invalid_action": bool(action)})
        self.image.place(job, offset)
        job.started_at = self.clock + offset
        self.queue[action - 1] = None
        self.running.append(job)
        self._rebalance()
        return StepOutcome(0.0, self.is_done(), {"invalid_action": False})

    def is_done(self) -> bool:
        return len(self.completed) == len(self.jobs) or (
            self.clock >= self.config.episode_limit
        )

    # -- observation ----------------------------------------------------------

    def observation_shape(self) -> tuple[int, int]:
        cfg = self.config
        width = sum(cap * (1 + cfg.queue_slots) for cap in cfg.capacities)
        return cfg.horizon, width + math.ceil(cfg.backlog_size / cfg.horizon)

    def encode_state(self) -> np.ndarray:
        """Fixed-shape 2-D image: per resource, the cluster occupancy block
        followed by one block per queue slot (job footprint drawn top-left),
        then a unary column-major backlog counter."""
        h = self.config.horizon
        image = np.zeros(self.observation_shape(), dtype=np.float32)
        col = 0
        for r, cap in enumerate(self.config.capacities):
            image[:, col : col + cap] = self._row_patterns[cap].take(
                self.image.columns[r], axis=0)
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
        fits_at = self.image.fits_at
        return [(a, j) for a, j in enumerate(self.queue, start=1)
                if j is not None and fits_at(j, 0)]
