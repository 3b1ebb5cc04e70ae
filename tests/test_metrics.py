import itertools

import pytest
from hypothesis import given, strategies as st

from rlsched.env import Job
from rlsched.errors import IncompleteJob, NotStarted, ParseError
from rlsched.metrics import (
    completion_time,
    discounted_total,
    episode_report,
    read_csv,
    slowdown,
    waiting_time,
)


def outcome(arrival, start, duration):
    return Job(
        id=0,
        arrival=arrival,
        duration=duration,
        demand=(1, 1),
        started_at=start,
        finished_at=start + duration,
    )


def test_slowdown_basic_cases():
    assert slowdown(outcome(0, 0, 5)) == 1.0
    assert slowdown(outcome(0, 3, 2)) == 2.5
    assert slowdown(outcome(4, 4, 1)) == 1.0


def test_waiting_time_basic_cases():
    assert waiting_time(outcome(0, 0, 5)) == 0.0
    assert waiting_time(outcome(2, 7, 1)) == 5.0


def test_incomplete_and_unstarted_raise():
    j = Job(id=1, arrival=0, duration=2, demand=(1, 0))
    with pytest.raises(IncompleteJob):
        slowdown(j)
    with pytest.raises(NotStarted):
        waiting_time(j)
    with pytest.raises(IncompleteJob, match="job 1 has not finished"):
        completion_time(j)


def test_read_csv_without_header_fails_at_line_one(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError) as err:
        read_csv(path, ("episode",), dict)
    assert str(err.value) == "line 1: empty file, expected a header row"
    assert err.value.line == 1


def test_zero_wait_batch_cross_metric_consistency():
    batch = [outcome(t, t, d) for t, d in [(0, 3), (2, 1), (5, 4)]]
    report = episode_report(batch, [], gamma=1.0, total_jobs=len(batch))
    assert report.avg_waiting_time == 0.0
    assert report.avg_slowdown == 1.0


def test_report_empty_outcomes_absent_values():
    report = episode_report([], [-1.0, -1.0], gamma=0.5, total_jobs=3)
    assert report.avg_slowdown is None
    assert report.avg_completion_time is None
    assert report.truncated
    assert report.discounted_reward == pytest.approx(-1.5)


def test_report_single_job():
    report = episode_report([outcome(0, 3, 2)], [], gamma=1.0, total_jobs=1)
    assert report.avg_slowdown == 2.5
    assert not report.truncated


def test_discounted_total_geometric():
    assert discounted_total([-1.0, -1.0], 0.5) == pytest.approx(-1.5)
    assert discounted_total([], 0.9) == 0.0


@st.composite
def outcomes(draw):
    arrival = draw(st.integers(0, 50))
    wait = draw(st.integers(0, 20))
    duration = draw(st.integers(1, 30))
    return outcome(arrival, arrival + wait, duration)


@given(st.lists(outcomes(), min_size=1, max_size=12))
def test_slowdown_at_least_one_and_identity(batch):
    report = episode_report(batch, [], gamma=1.0, total_jobs=len(batch))
    assert report.avg_slowdown >= 1.0
    durations = sum(j.duration for j in batch) / len(batch)
    assert report.avg_completion_time == pytest.approx(
        report.avg_waiting_time + durations
    )


@given(st.lists(outcomes(), min_size=2, max_size=8), st.randoms())
def test_report_permutation_invariant(batch, rnd):
    shuffled = list(batch)
    rnd.shuffle(shuffled)
    a = episode_report(batch, [-1.0], gamma=0.9, total_jobs=len(batch))
    b = episode_report(shuffled, [-1.0], gamma=0.9, total_jobs=len(batch))
    assert a == b


def test_permutation_exhaustive_small():
    batch = [outcome(0, 1, 2), outcome(1, 4, 1), outcome(2, 2, 3)]
    reports = {
        (
            episode_report(list(p), [], gamma=1.0, total_jobs=3).avg_slowdown,
            episode_report(list(p), [], gamma=1.0, total_jobs=3).avg_waiting_time,
        )
        for p in itertools.permutations(batch)
    }
    assert len(reports) == 1
