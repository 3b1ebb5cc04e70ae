import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlsched.config import EnvConfig
from rlsched.env import ClusterEnv, ClusterImage, Job
from rlsched.errors import (
    ConfigError, EpisodeFinished, InvalidActionError, ValidationError,
)

from invariants import backlog, deferred


def make_env(**overrides):
    return ClusterEnv(EnvConfig(**overrides))


def job(jid, arrival=0, duration=1, demand=(1, 1)):
    return Job(id=jid, arrival=arrival, duration=duration, demand=demand)


# -- reset ----------------------------------------------------------------------


def test_reset_empty_sequence():
    env = make_env().reset([])
    assert all(j is None for j in env.queue)
    assert not backlog(env)
    assert not env.image.used.any()
    assert env.is_done()  # vacuously: zero jobs, all completed


def test_reset_overflow_to_backlog():
    jobs = [job(i) for i in range(7)]
    env = make_env(queue_slots=5).reset(jobs)
    assert sum(j is not None for j in env.queue) == 5
    assert [j.id for j in backlog(env)] == [5, 6]


def test_reset_deterministic():
    jobs = [job(i, arrival=i % 3, duration=2 + i % 4, demand=(2, 1)) for i in range(9)]
    a = make_env().reset(jobs)
    b = make_env().reset(jobs)
    assert np.array_equal(a.encode_state(), b.encode_state())
    assert [j.id for j in backlog(a)] == [j.id for j in backlog(b)]


def test_reset_does_not_mutate_caller_jobs():
    jobs = [job(0, duration=2)]
    env = make_env().reset(jobs)
    env.step(1)
    assert jobs[0].started_at is None


def test_reset_rejects_oversized_demand():
    with pytest.raises(ConfigError):
        make_env(capacities=(4, 4)).reset([job(0, demand=(5, 1))])


def test_reset_rejects_duration_beyond_horizon():
    with pytest.raises(ConfigError):
        make_env(horizon=10).reset([job(0, duration=11)])


def test_reset_rejects_duplicate_ids():
    with pytest.raises(ConfigError):
        make_env().reset([job(3), job(3)])


@pytest.mark.parametrize(
    "jobs, bad_id, fault",
    [
        ([job(0), job(7, demand=(11, 1))], 7,
         "resource 0 demand 11 exceeds capacity 10"),
        ([job(3), job(5), job(3)], 3, "duplicate job id"),
        ([job(-1)], -1, "id must be >= 0"),
        ([job(2), job(4, duration=21)], 4, "duration 21 exceeds horizon 20"),
        ([job(0), job(6, arrival=-2)], 6, "arrival must be >= 0"),
        ([job(8, demand=(1, 1, 1))], 8, "demand has 3 components, expected 2"),
        ([job(9, demand=(1, -1))], 9, "resource 1 demand -1 is negative"),
        ([job(1), job(10, demand=(0, 0))], 10, "demand must be positive somewhere"),
        ([job(0), job(1, duration=2.5)], 1, "duration must be an int, got 2.5"),
        ([job(2, arrival=0.5, duration=2)], 2, "arrival must be an int, got 0.5"),
        ([job(3, duration=True)], 3, "duration must be an int, got True"),
        ([job(True)], True, "id must be an int, got True"),
        ([job("4")], "4", "id must be an int, got '4'"),
        ([job(5, arrival=np.float64(1.0))], 5,
         "arrival must be an int, got np.float64(1.0)"),
        ([job(6, demand=(1.5, 1))], 6, "resource 0 demand must be an int, got 1.5"),
        ([job(7, demand=(1, True))], 7, "resource 1 demand must be an int, got True"),
        ([job(8, demand=(1, "1"))], 8, "resource 1 demand must be an int, got '1'"),
        ([job(9, demand=None)], 9, "demand must be a sequence, got None"),
        ([job(10, demand=2)], 10, "demand must be a sequence, got 2"),
    ],
    ids=["oversized-demand", "duplicate-id", "negative-id", "beyond-horizon",
         "negative-arrival", "wrong-demand-length", "negative-demand",
         "all-zero-demand", "float-duration", "float-arrival", "bool-duration",
         "bool-id", "str-id", "numpy-float-arrival", "float-demand",
         "bool-demand", "str-demand", "none-demand", "int-demand"],
)
def test_reset_rejection_carries_the_job_id(jobs, bad_id, fault):
    assert issubclass(ValidationError, ConfigError)
    with pytest.raises(ValidationError) as err:
        make_env().reset(jobs)
    assert err.value.job_id == bad_id
    assert str(err.value) == f"job {bad_id}: {fault}"


@pytest.mark.parametrize("entry", [(0, 0, 1, (1, 1)), {"id": 0}, None],
                         ids=["tuple", "dict", "none"])
def test_reset_rejects_an_entry_that_is_not_a_job(entry):
    with pytest.raises(ValidationError) as err:
        make_env().reset([job(0), entry])
    assert err.value.job_id is None
    assert str(err.value) == f"each job must be a Job, got {type(entry).__name__}"


def test_reset_takes_numpy_integer_fields():
    plain = [job(0, duration=3, demand=(2, 1)), job(1, arrival=2, demand=(1, 4))]
    numpy_ints = [Job(np.int64(j.id), np.int32(j.arrival), np.int64(j.duration),
                      tuple(np.int64(d) for d in j.demand)) for j in plain]
    a, b = make_env().reset(plain), make_env().reset(numpy_ints)
    while not a.is_done():
        fitting = a.fitting_jobs()
        action = fitting[0][0] if fitting else 0
        assert a.step(action).reward == b.step(action).reward
        assert np.array_equal(a.encode_state(), b.encode_state())
    assert b.is_done()
    assert [(j.started_at, j.finished_at) for j in a.completed] == \
        [(j.started_at, j.finished_at) for j in b.completed]


# -- earliest_offset ------------------------------------------------------------


def test_allocate_empty_image_offset_zero():
    env = make_env().reset([job(0, duration=4, demand=(3, 2))])
    assert env.image.earliest_offset(env.queue[0]) == 0


def test_allocate_scans_to_first_free_row():
    # rows 0-2 hold 8 occupied cpu cells; a demand-4 job must wait until row 3
    env = make_env(capacities=(10, 10))
    filler = job(0, duration=3, demand=(8, 1))
    target = job(1, duration=1, demand=(4, 1))
    env.reset([filler, target])
    assert env.step(1).reward == 0.0  # filler placed at offset 0
    assert env.image.earliest_offset(env.queue[1]) == 3


def test_allocate_infeasible_within_horizon():
    env = make_env(horizon=6)
    blocker = job(0, duration=6, demand=(10, 10))
    wide = job(1, duration=1, demand=(1, 1))
    env.reset([blocker, wide])
    env.step(1)
    assert env.image.earliest_offset(env.queue[1]) is None


@pytest.mark.parametrize("r", [0, 1])
def test_window_blocked_below_its_first_row(r):
    # a reservation on rows 2-3 leaves rows 0-1 free: the target's window
    # from row 0 has room on its first row and none on row 2
    env = make_env(capacities=(4, 4)).reset([job(0, duration=4, demand=(2, 2))])
    target = env.queue[0]
    reserved = [1, 1]
    reserved[r] = 3
    env.image.place(job(9, duration=2, demand=tuple(reserved)), 2)
    assert env.image.columns[r][:5] == [0, 0, 3, 3, 0]
    assert [env.image.fits_at(target, o) for o in range(6)] == [
        False, False, False, False, True, True]
    assert env.fitting_jobs() == []
    assert env.image.earliest_offset(target) == 4


# -- fitting_jobs ---------------------------------------------------------------


def test_fitting_jobs_returns_only_jobs_that_fit_now():
    # the filler leaves slot 0 empty and blocks the wide job until row 3
    env = make_env(capacities=(10, 10))
    filler = job(0, duration=3, demand=(8, 1))
    wide = job(1, duration=1, demand=(4, 1))
    narrow = job(2, duration=1, demand=(2, 1))
    env.reset([filler, wide, narrow])
    env.step(1)
    assert env.queue[0] is None
    assert env.image.earliest_offset(env.queue[1]) == 3
    assert [(a, j.id) for a, j in env.fitting_jobs()] == [(3, 2)]


# -- step -----------------------------------------------------------------------


def test_void_action_advances_time_with_summed_reward():
    env = make_env()
    running = job(0, duration=4, demand=(2, 2))
    queued = job(1, duration=2, demand=(10, 10))  # cannot run beside the first
    env.reset([running, queued])
    env.step(1)  # allocate the duration-4 job
    out = env.step(0)
    assert out.reward == pytest.approx(-(1 / 4 + 1 / 2))
    assert env.clock == 1


def test_action_on_empty_slot_is_timing_noop():
    env = make_env().reset([job(0, duration=3)])
    out = env.step(2)  # slot 2 empty
    assert out.info["invalid_action"]
    assert env.clock == 1


def test_allocation_does_not_advance_clock():
    env = make_env().reset([job(0, duration=2), job(1, duration=2)])
    out = env.step(1)
    assert env.clock == 0
    assert out.reward == 0.0
    # the vacated slot is now empty, so acting on it advances time instead
    out = env.step(1)
    assert out.info["invalid_action"]
    assert env.clock == 1


def test_multiple_allocations_within_one_step():
    env = make_env().reset([job(i, duration=2, demand=(2, 1)) for i in range(3)])
    for slot in (1, 2, 3):
        out = env.step(slot)
        assert out.reward == 0.0
    assert env.clock == 0
    assert len(env.running) == 3


def test_out_of_range_action_raises():
    env = make_env().reset([job(0)])
    with pytest.raises(InvalidActionError):
        env.step(6)
    with pytest.raises(InvalidActionError):
        env.step(-1)
    for flag in (True, False, np.True_):  # bool subclasses int; not an action
        with pytest.raises(InvalidActionError):
            env.step(flag)
    assert env.clock == 0 and env.queue[0].id == 0 and not env.running


def test_step_on_finished_episode_raises():
    env = make_env().reset([])
    with pytest.raises(EpisodeFinished):
        env.step(0)


def test_unfittable_slot_action_advances_time():
    env = make_env(capacities=(4, 4))
    big = job(0, duration=2, demand=(4, 4))
    also_big = job(1, duration=2, demand=(4, 4))
    env.reset([big, also_big])
    env.step(1)
    out = env.step(2)  # fits only at offset 2 via reservation
    assert not out.info["invalid_action"]
    # fill the whole horizon so nothing can be reserved
    env = make_env(capacities=(4, 4), horizon=2)
    env.reset([job(0, duration=2, demand=(4, 4)), job(1, duration=2, demand=(4, 4))])
    env.step(1)
    out = env.step(2)
    assert out.info["invalid_action"]
    assert env.clock == 1


@pytest.mark.parametrize("to_action", [int, np.int64], ids=["int", "np.int64"])
def test_invalid_action_flag_is_a_python_bool_on_every_outcome(to_action):
    env = make_env(capacities=(4, 4), horizon=2)
    env.reset([job(0, duration=2, demand=(4, 4)), job(1, duration=2, demand=(4, 4))])
    outcomes = {}
    outcomes["placement"] = env.step(to_action(1))
    outcomes["unfittable"] = env.step(to_action(2))  # the horizon is full
    outcomes["void"] = env.step(to_action(0))
    outcomes["empty-slot"] = env.step(to_action(3))
    flags = {name: out.info["invalid_action"] for name, out in outcomes.items()}
    assert flags == {"placement": False, "unfittable": True, "void": False,
                     "empty-slot": True}
    assert all(type(flag) is bool for flag in flags.values())
    assert env.clock == 3


# -- advance_time ----------------------------------------------------------------


def test_reward_zero_when_system_empty():
    env = make_env().reset([job(0, arrival=5)])
    reward, completions = env.advance_time()
    assert reward == 0.0
    assert completions == []


def test_reward_uses_total_duration_not_remaining():
    env = make_env().reset([job(0, duration=5, demand=(2, 1))])
    env.step(1)
    env.step(0)
    env.step(0)  # two of five rows elapsed, three remaining
    reward, _ = env.advance_time()
    assert reward == pytest.approx(-0.2)


def test_reward_adds_left_to_right_whatever_the_python_version():
    """Running, queued and backlog durations 1, 3 and 1: added left to right
    the reward is -2.333333333333333. The correctly rounded sum, which
    Python 3.12's compensated sum() returns, ends in 5; a pinned digest must
    not depend on the interpreter."""
    env = make_env(queue_slots=1).reset(
        [job(0, duration=1), job(1, duration=3), job(2, duration=1)])
    env.step(1)
    assert ([j.duration for j in env.running], env.queue[0].duration,
            [j.duration for j in backlog(env)]) == ([1], 3, [1])
    reward, _ = env.advance_time()
    assert reward == -2.333333333333333
    assert -math.fsum([1.0, 1 / 3, 1.0]) == -2.3333333333333335


def test_completion_lifecycle():
    env = make_env().reset([job(0, duration=3, demand=(2, 2))])
    env.step(1)
    for _ in range(2):
        reward, completions = env.advance_time()
        assert completions == []
    reward, completions = env.advance_time()
    assert [j.id for j in completions] == [0]
    done = completions[0]
    assert done.finished_at - done.started_at == done.duration
    assert env.is_done()


def test_arrivals_admitted_on_their_step():
    env = make_env().reset([job(0, arrival=2)])
    for _ in range(2):
        assert all(j is None for j in env.queue)
        assert not backlog(env) and not env.running
        env.advance_time()
    assert env.queue[0] is not None


def test_backlog_promotion_fifo_on_allocation():
    jobs = [job(i, duration=2) for i in range(8)]
    env = make_env(queue_slots=5).reset(jobs)
    assert [j.id for j in backlog(env)] == [5, 6, 7]
    env.step(3)  # vacate slot 3
    assert env.queue[2].id == 5
    assert [j.id for j in backlog(env)] == [6, 7]


def test_deferred_arrivals_add_nothing_to_reward_or_counter():
    # one slot, a backlog of two, three arrivals deferred behind it
    jobs = [job(i, duration=d) for i, d in enumerate((2, 3, 4, 5, 6, 7))]
    env = make_env(queue_slots=1, backlog_size=2).reset(jobs)
    assert env.queue[0].id == 0
    assert [j.id for j in backlog(env)] == [1, 2]
    assert [j.id for j in deferred(env)] == [3, 4, 5]
    counter = env.encode_state()[:, 40]  # 2 resources x 2 blocks x 10 cells
    assert list(counter) == [1.0, 1.0] + [0.0] * 18
    assert env.step(0).reward == -(1 / 2 + 1 / 3 + 1 / 4)


def test_deferred_admission_when_backlog_full():
    jobs = [job(i, duration=2) for i in range(8)]
    env = make_env(queue_slots=2, backlog_size=3).reset(jobs)
    # 2 in queue, 3 in backlog, 3 deferred but conserved
    assert sum(j is not None for j in env.queue) == 2
    assert len(backlog(env)) == 3
    assert len(deferred(env)) == 3
    env.step(1)
    assert len(backlog(env)) == 3
    assert len(deferred(env)) == 2


def test_started_at_includes_reservation_offset():
    env = make_env(capacities=(4, 4))
    env.reset([job(0, duration=3, demand=(4, 4)), job(1, duration=2, demand=(4, 4))])
    env.step(1)
    env.step(2)  # reserved at offset 3
    reserved = next(j for j in env.running if j.id == 1)
    assert reserved.started_at == 3


# -- is_done ----------------------------------------------------------------------


def test_done_on_episode_limit():
    env = make_env(episode_limit=3).reset([job(0, arrival=0, duration=5, demand=(2, 1))])
    for _ in range(3):
        env.advance_time()
    assert env.is_done()


def test_fresh_reset_with_jobs_not_done():
    assert not make_env().reset([job(0)]).is_done()


# -- encode_state -----------------------------------------------------------------


def test_encoding_shape_and_empty_state():
    env = make_env().reset([])
    obs = env.encode_state()
    assert obs.shape == (20, (10 + 5 * 10) * 2 + 3)
    assert not obs.any()


def test_encoding_queued_job_blocks():
    env = make_env().reset([job(0, duration=2, demand=(3, 1))])
    obs = env.encode_state()
    assert obs.shape == (20, 123)
    cpu_slot1 = obs[:, 10:20]
    expected = np.zeros((20, 10), dtype=np.float32)
    expected[:2, :3] = 1.0
    assert np.array_equal(cpu_slot1, expected)
    mem_slot1 = obs[:, 60 + 10 : 60 + 20]
    assert mem_slot1[:2, :1].all() and mem_slot1.sum() == 2
    # all other queue-slot blocks empty
    assert not obs[:, 20:60].any() and not obs[:, 80:120].any()


def test_encoding_cluster_block_matches_occupancy():
    env = make_env().reset([job(0, duration=4, demand=(3, 2))])
    env.step(1)
    obs = env.encode_state()
    assert obs[:, :10].sum() == 4 * 3  # cpu block
    assert obs[:, 60:70].sum() == 4 * 2  # memory block


def test_encoding_backlog_unary_column_major():
    jobs = [job(i, duration=1) for i in range(5 + 25)]
    env = make_env(queue_slots=5, backlog_size=60).reset(jobs)
    obs = env.encode_state()
    backlog = obs[:, 120:]
    assert backlog.shape == (20, 3)
    assert backlog[:, 0].all()
    assert backlog[:5, 1].all() and backlog[5:, 1].sum() == 0
    assert not backlog[:, 2].any()


def test_encoding_decodes_to_free_counts():
    # occupancy block inverts to the free counts the fit search sees
    rng = np.random.default_rng(0)
    cfg = EnvConfig()
    env = ClusterEnv(cfg)
    jobs = [
        job(i, arrival=int(rng.integers(0, 5)), duration=int(rng.integers(1, 6)),
            demand=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        for i in range(12)
    ]
    env.reset(jobs)
    for _ in range(30):
        if env.is_done():
            break
        env.step(int(rng.integers(cfg.num_actions)))
        obs = env.encode_state()
        free = env.image.free_counts()
        for r in range(2):
            start = r * 60
            block = obs[:, start : start + 10]
            assert np.array_equal(10 - block.sum(axis=1), free[:, r])


@st.composite
def scenarios(draw):
    capacities = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    cfg = EnvConfig(
        horizon=draw(st.integers(2, 7)),
        capacities=capacities,
        queue_slots=draw(st.integers(1, 3)),
        backlog_size=draw(st.integers(0, 4)),
    )
    jobs = []
    for i in range(draw(st.integers(1, 10))):
        demand = tuple(draw(st.integers(0, cap)) for cap in cfg.capacities)
        if not any(demand):
            demand = (1,) + demand[1:]
        jobs.append(job(i, arrival=draw(st.integers(0, 6)),
                        duration=draw(st.integers(1, cfg.horizon)), demand=demand))
    actions = draw(st.lists(st.integers(0, cfg.queue_slots), max_size=40))
    return cfg, jobs, actions


def reference_use(env):
    """Used units per (row, resource), rebuilt from the running jobs' records."""
    used = np.zeros((env.config.horizon, env.config.num_resources), dtype=int)
    for j in env.running:
        lo = j.started_at - env.clock
        used[max(lo, 0) : max(lo + j.duration, 0)] += j.demand
    return used


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_fit_search_and_encoding_match_job_records(scenario):
    cfg, jobs, actions = scenario
    env = ClusterEnv(cfg).reset(jobs)
    h = cfg.horizon
    offsets = range(-1, h + 1)

    def check():
        used = reference_use(env)
        for queued in [j for j in env.queue if j is not None]:
            fits = [
                0 <= o <= h - queued.duration and all(
                    used[o + k, r] + d <= cap
                    for k in range(queued.duration)
                    for r, (d, cap) in enumerate(zip(queued.demand, cfg.capacities))
                )
                for o in offsets
            ]
            assert [env.image.fits_at(queued, o) for o in offsets] == fits
            first = offsets[fits.index(True)] if True in fits else None
            assert env.image.earliest_offset(queued) == first
        assert env.fitting_jobs() == [
            (a, j) for a, j in enumerate(env.queue, start=1)
            if j is not None and all(
                used[k, r] + d <= cap
                for k in range(j.duration)
                for r, (d, cap) in enumerate(zip(j.demand, cfg.capacities)))
        ]
        obs = env.encode_state()
        col = 0
        for r, cap in enumerate(cfg.capacities):
            for row in range(h):
                for cell in range(cap):
                    assert obs[row, col + cell] == (cell < used[row, r])
            col += cap * (1 + cfg.queue_slots)

    check()
    for action in actions:
        if env.is_done():
            break
        env.step(action)
        check()


def test_used_is_a_read_only_derived_array():
    env = make_env().reset([job(0, duration=3, demand=(2, 1))])
    env.step(1)
    used = env.image.used
    assert used.shape == (20, 2) and used.dtype == np.int64
    assert used[:4].tolist() == [[2, 1], [2, 1], [2, 1], [0, 0]]
    with pytest.raises(ValueError):
        used[0, 0] = 0
    with pytest.raises(ValueError):
        env.image.used[3] += 1
    assert env.image.columns == [[2, 2, 2] + [0] * 17, [1, 1, 1] + [0] * 17]


def test_place_refuses_a_window_without_room():
    env = make_env(capacities=(4, 4)).reset([job(0, duration=2, demand=(3, 1))])
    env.step(1)
    with pytest.raises(AssertionError, match="placement exceeds capacity"):
        env.image.place(job(1, duration=1, demand=(2, 1)), 1)
    with pytest.raises(AssertionError, match="placement exceeds capacity"):
        env.image.place(job(1, duration=2, demand=(1, 1)), 19)
    assert env.image.columns[0][:3] == [3, 3, 0]


def test_every_fit_test_is_one_fits_at_call(monkeypatch):
    """`fits_at` is the one fit rule: `fitting_jobs()` calls it once per
    queued job, and a step that starts a job calls it twice, for the offset-0
    search and for the placement check. A wrapper around it (as a traced run
    installs) therefore sees every fit test."""
    assert not hasattr(ClusterImage, "_window_fits")
    calls = []
    fits_at = ClusterImage.fits_at

    def counted(self, queued, offset):
        calls.append((queued.id, offset))
        return fits_at(self, queued, offset)

    monkeypatch.setattr(ClusterImage, "fits_at", counted)
    env = make_env(capacities=(4, 4), queue_slots=3).reset([
        job(0, duration=2, demand=(3, 1)), job(1, demand=(2, 2)), job(2)])
    a, b, c = env.queue
    assert env.fitting_jobs() == [(1, a), (2, b), (3, c)]
    assert calls == [(0, 0), (1, 0), (2, 0)]

    calls.clear()
    env.step(1)
    assert a.started_at == 0 and calls == [(0, 0), (0, 0)]

    calls.clear()
    assert env.fitting_jobs() == [(3, c)]  # job 1 no longer fits; slot 1 is empty
    assert calls == [(1, 0), (2, 0)]


def test_job_is_slotted_and_copies_are_independent():
    original = Job(id=3, arrival=2, duration=4, demand=(1, 2), started_at=5,
                   finished_at=9)
    assert not hasattr(original, "__dict__")
    with pytest.raises(AttributeError):
        original.priority = 1
    for copy, equal in [(dataclasses.replace(original), original),
                        (original.fresh_copy(), job(3, 2, 4, (1, 2)))]:
        assert copy == equal and copy is not original
        copy.started_at, copy.finished_at = 0, 1
        assert (original.started_at, original.finished_at) == (5, 9)


# -- reset returns the environment ------------------------------------------------


def test_reset_function_returns_initialized_env():
    env = ClusterEnv(EnvConfig()).reset([job(0)])
    assert env.queue[0].id == 0


# -- randomized invariant stress (small; the acceptance suite runs the full one) --


def test_invariants_under_random_actions():
    import dataclasses
    from invariants import random_stress
    from rlsched.workload import WorkloadSpec

    env = ClusterEnv(EnvConfig(episode_limit=300))
    spec = WorkloadSpec(rate=0.7, length=40)
    executed = random_stress(
        env, lambda s: dataclasses.replace(spec, seed=s), steps=3000, seed=123
    )
    assert executed == 3000


def test_invariants_under_random_actions_through_truncation():
    """Episodes cut at a small episode_limit: each truncating step reports
    done, as is_done() does, while jobs are still unfinished."""
    import dataclasses
    from invariants import random_stress
    from rlsched.workload import WorkloadSpec

    env = ClusterEnv(EnvConfig(episode_limit=15))
    step = env.step
    truncated = []

    def recording_step(action):
        outcome = step(action)
        if outcome.done and len(env.completed) < len(env.jobs):
            truncated.append(env.clock)
        return outcome

    env.step = recording_step
    # arrivals run to step 40, past the limit, so episodes end truncated
    spec = WorkloadSpec(rate=0.7, length=40)
    random_stress(env, lambda s: dataclasses.replace(spec, seed=s),
                  steps=600, seed=7)
    assert set(truncated) == {15}


def test_fitting_jobs_actions_start_their_jobs_now():
    """Stepping an action that fitting_jobs() lists starts its job at the
    current clock, as a valid action that lets no time pass."""
    import dataclasses
    from invariants import random_stress
    from rlsched.workload import WorkloadSpec

    taken = []

    def take_a_fitting_action(env, rng):
        fitting = env.fitting_jobs()
        if not fitting:
            return
        action, job = fitting[int(rng.integers(len(fitting)))]
        clock = env.clock
        outcome = env.step(action)
        assert job.started_at == clock
        assert env.clock == clock
        assert outcome.info["invalid_action"] is False
        assert job in env.running
        taken.append(action)

    spec = WorkloadSpec(rate=0.7, length=40)
    random_stress(ClusterEnv(EnvConfig(episode_limit=300)),
                  lambda s: dataclasses.replace(spec, seed=s), steps=2000,
                  seed=321, visit=take_a_fitting_action)
    # every slot's action is exercised, not only the first
    assert set(taken) == set(range(1, EnvConfig().num_actions))


def test_trajectory_determinism_bit_exact():
    import dataclasses
    from rlsched.workload import WorkloadSpec, generate

    cfg = EnvConfig()
    jobs = generate(WorkloadSpec(rate=0.8, length=30, seed=5), cfg)
    rng = np.random.default_rng(9)
    actions = [int(rng.integers(0, 6)) for _ in range(200)]

    def rollout():
        env = ClusterEnv(cfg).reset(jobs)
        trace = []
        for a in actions:
            if env.is_done():
                break
            out = env.step(a)
            trace.append((out.reward, out.done, env.encode_state().tobytes()))
        return trace

    assert rollout() == rollout()
