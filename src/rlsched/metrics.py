"""Per-job and per-episode scheduling metrics, and the one CSV format that
rlsched writes and reads.

Slowdown is completion time over execution time (1.0 = the job never
waited); averages are taken over completed jobs only, and an empty set
reports absent values rather than faking zeros.

The training log, the sweep results, the plot series and job traces are
all written by `write_csv` (cells through `format_cell`) and read by
`read_csv`, which reports a malformed file as a ParseError with its line.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import IncompleteJob, NotStarted, ParseError


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


def write_csv(path, columns, rows) -> None:
    """Write a new CSV file at `path`: the header `columns`, then one line
    per mapping in `rows`, each cell `format_cell(row[column])`. Each line
    is flushed once written, and `rows` may be a generator, so a run that
    stops part way keeps the lines it wrote."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(row[c]) for c in columns])
            fh.flush()


def read_csv(path, columns, parse) -> list:
    """`parse(record)` of each record of the CSV file at `path`, where a
    record maps the header's column names to the cells of one line. A file
    without a header, or whose header lacks one of `columns`, is a
    ParseError at line 1; a ValueError or TypeError from `parse` is a
    ParseError at the record's line, and a byte the file's encoding cannot
    decode is one at the line that holds it."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise ParseError("empty file, expected a header row", line=1)
            missing = [c for c in columns if c not in reader.fieldnames]
            if missing:
                raise ParseError(f"missing columns {missing}", line=1)
            parsed = []
            for record in reader:
                try:
                    parsed.append(parse(record))
                except (TypeError, ValueError) as exc:
                    raise ParseError(str(exc), line=reader.line_num) from exc
        except UnicodeDecodeError:
            # the file decodes in chunks ahead of the reader's line: decode it
            # whole to find the line of the first bad byte
            raw = Path(path).read_bytes()
            try:
                raw.decode(fh.encoding)
            except UnicodeDecodeError as exc:
                raise ParseError(f"not {fh.encoding} text: {exc.reason}",
                                 line=raw.count(b"\n", 0, exc.start) + 1) from None
            raise
        return parsed


def discounted_total(rewards, gamma: float) -> float:
    total = 0.0
    factor = 1.0
    for r in rewards:
        total += factor * r
        factor *= gamma
    return total


def episode_report(outcomes, rewards, gamma: float, total_jobs: int):
    """Aggregate one episode. `outcomes` are completed jobs; `rewards` is the
    per-step reward sequence in step order; `total_jobs` is the episode's job
    count, so the report is truncated when fewer completed."""
    completed = list(outcomes)
    n = len(completed)
    truncated = n < total_jobs
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
