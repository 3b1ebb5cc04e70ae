import itertools

import numpy as np

from rlsched import baselines
from rlsched.baselines import (
    random_select,
    run_greedy,
    sjf_select,
    tetris_select,
)
from rlsched.config import EnvConfig
from rlsched.env import ClusterEnv, ClusterImage, Job
from rlsched.workload import WorkloadSpec, generate


def queue_env(durations_demands, **overrides):
    cfg = EnvConfig(**overrides)
    jobs = [
        Job(id=i, arrival=0, duration=d, demand=dem)
        for i, (d, dem) in enumerate(durations_demands)
    ]
    return ClusterEnv(cfg).reset(jobs)


# -- sjf ---------------------------------------------------------------------------


def test_sjf_picks_shortest_fitting():
    env = queue_env([(5, (2, 1)), (2, (2, 1)), (9, (2, 1))])
    assert sjf_select(env) == 2


def test_sjf_tie_breaks_to_lowest_slot():
    env = queue_env([(2, (2, 1)), (2, (2, 1))])
    assert sjf_select(env) == 1


def test_sjf_void_when_nothing_fits():
    env = queue_env([(3, (4, 4))], capacities=(4, 4))
    env.step(1)  # the job occupies the whole machine
    env.reset([Job(0, 0, 3, (4, 4)), Job(1, 0, 2, (4, 4))])
    env.step(1)
    assert sjf_select(env) == 0  # remaining job cannot start now


def test_sjf_void_on_empty_queue():
    env = queue_env([])
    assert sjf_select(env) == 0


# -- tetris ------------------------------------------------------------------------


def test_tetris_prefers_aligned_demand():
    # free row0 = (10, 4): cosine picks (8,1) over (1,8); durations equal
    env = ClusterEnv(EnvConfig())
    filler = Job(0, 0, 3, (0, 6))
    a = Job(1, 0, 5, (8, 1))
    b = Job(2, 0, 5, (1, 8))
    env.reset([filler, a, b])
    env.step(1)
    assert np.array_equal(env.image.free_counts()[0], [10, 4])
    assert dict(env.fitting_jobs())[tetris_select(env)].id == 1


def test_tetris_literal_skewed_row():
    # free row0 = (10, 2): only the aligned job fits; score agrees anyway
    env = ClusterEnv(EnvConfig())
    filler = Job(0, 0, 3, (0, 8))
    a = Job(1, 0, 5, (8, 1))
    b = Job(2, 0, 5, (1, 8))
    env.reset([filler, a, b])
    env.step(1)
    assert np.array_equal(env.image.free_counts()[0], [10, 2])
    assert dict(env.fitting_jobs())[tetris_select(env)].id == 1


def test_tetris_short_job_term_decides_equal_demands():
    env = queue_env([(10, (3, 2)), (2, (3, 2))])
    assert dict(env.fitting_jobs())[tetris_select(env)].duration == 2


def test_tetris_void_on_empty_queue():
    assert tetris_select(queue_env([])) == 0


def tetris_oracle(env, lam_short):
    """The float64 numpy scoring `tetris_select` replaced, kept as its oracle."""
    free = env.image.free_counts()[0].astype(np.float64)
    free_norm = float(np.linalg.norm(free))
    best = None
    best_score = None
    for i, job in enumerate(env.queue):
        if job is None or not env.image.fits_at(job, 0):
            continue
        demand = np.asarray(job.demand, dtype=np.float64)
        norm = free_norm * float(np.linalg.norm(demand))
        alignment = float(free @ demand) / norm if norm > 0 else 0.0
        score = alignment + lam_short / job.duration
        if best_score is None or score > best_score:
            best, best_score = i, score
    return 0 if best is None else best + 1


def test_tetris_matches_numpy_score_oracle(monkeypatch):
    """Same action as the float64 oracle on seeded random states with 1-3
    resources, capacities up to 64, and slots holding equal jobs, so that
    scores tie exactly and the lowest-slot rule decides."""
    rng = np.random.default_rng(11)
    checked = ties = 0
    for _ in range(60):
        num_resources = int(rng.integers(1, 4))
        caps = tuple(int(c) for c in rng.integers(1, 65, size=num_resources))
        cfg = EnvConfig(horizon=int(rng.integers(4, 16)), capacities=caps,
                        queue_slots=int(rng.integers(2, 7)), backlog_size=10,
                        episode_limit=200)
        jobs = []
        for i in range(int(rng.integers(5, 25))):
            if jobs and rng.random() < 0.5:
                template = jobs[int(rng.integers(len(jobs)))]
                duration, demand = template.duration, template.demand
            else:
                duration = int(rng.integers(1, cfg.horizon + 1))
                demand = tuple(int(rng.integers(0, c + 1)) for c in caps)
                if not any(demand):
                    demand = (1,) + demand[1:]
            jobs.append(Job(i, int(rng.integers(0, 6)), duration, demand))
        env = ClusterEnv(cfg)
        for lam_short in (0.05, 0.0):
            monkeypatch.setattr(baselines, "LAM_SHORT", lam_short)
            env.reset(jobs)
            while not env.is_done():
                expected = tetris_oracle(env, lam_short)
                assert tetris_select(env) == expected
                checked += 1
                fitting = [(j.duration, j.demand) for j in env.queue
                           if j is not None and env.image.fits_at(j, 0)]
                ties += len(set(fitting)) < len(fitting)
                # random moves reach more varied rows than the policy alone
                env.step(expected if rng.random() < 0.5
                         else int(rng.integers(cfg.num_actions)))
    assert checked > 1000 and ties > 100


# -- random ------------------------------------------------------------------------


def test_random_void_when_nothing_fits():
    env = queue_env([(3, (4, 4)), (2, (4, 4))], capacities=(4, 4))
    env.step(1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert all(random_select(env, rng) == 0 for _ in range(50))
    assert rng.bit_generator.state == state  # no draw: the stream is untouched


def test_random_uniform_over_fit_and_void():
    env = queue_env([(3, (2, 1))])
    rng = np.random.default_rng(1)
    draws = 10_000
    counts = np.bincount([random_select(env, rng) for _ in range(draws)],
                         minlength=2)
    sigma = np.sqrt(draws * 0.25)
    assert abs(counts[0] - draws / 2) <= 3 * sigma
    assert abs(counts[1] - draws / 2) <= 3 * sigma


def test_random_deterministic_under_seed():
    env = queue_env([(3, (2, 1)), (1, (1, 1)), (4, (2, 2))])
    a = [random_select(env, np.random.default_rng(7)) for _ in range(20)]
    b = [random_select(env, np.random.default_rng(7)) for _ in range(20)]
    assert a == b


def test_zero_range_draw_leaves_the_generator_alone():
    # random_select skips its draw when void is the only choice; that keeps
    # the random policy's stream only because this draw takes no bits
    for seed in range(5):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == state


def test_random_picks_what_a_twin_generator_draws():
    # row 0 holds (1, 1), so the (4, 1) job in slot 1 does not fit now and
    # the fitting actions are 2 and 3
    env = queue_env([(1, (4, 1)), (1, (1, 1)), (2, (2, 2))], capacities=(4, 4))
    env.image.place(Job(9, 0, 1, (1, 1)), 0)
    choices = [0] + [a for a, _ in env.fitting_jobs()]
    assert choices == [0, 2, 3]
    for seed in range(6):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert random_select(env, rng) == choices[twin.integers(len(choices))]
        assert rng.bit_generator.state == twin.bit_generator.state


def test_forced_void_costs_one_fit_test_per_queued_job(monkeypatch):
    """With nothing fitting, each heuristic's decision is one `fits_at` call
    per queued job and nothing more: no other window, and no draw."""
    calls = []
    fits_at = ClusterImage.fits_at

    def counted(self, queued, offset):
        calls.append((queued.id, offset))
        return fits_at(self, queued, offset)

    class CountingRng:
        def __init__(self):
            self.draws = 0

        def integers(self, *args):
            self.draws += 1
            return 0

    env = queue_env([(3, (4, 4)), (2, (4, 4)), (1, (3, 1)), (2, (1, 4))],
                    capacities=(4, 4))
    env.step(1)
    monkeypatch.setattr(ClusterImage, "fits_at", counted)
    rng = CountingRng()
    for policy in (sjf_select, tetris_select, lambda e: random_select(e, rng)):
        calls.clear()
        assert policy(env) == 0
        assert calls == [(1, 0), (2, 0), (3, 0)]
    assert rng.draws == 0


# -- work conservation / interchangeability ------------------------------------------


def test_deterministic_baselines_work_conserving():
    rng = np.random.default_rng(3)
    cfg = EnvConfig()
    env = ClusterEnv(cfg)
    for policy in (sjf_select, tetris_select):
        jobs = [
            Job(i, int(rng.integers(0, 20)), int(rng.integers(1, 8)),
                (int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            for i in range(25)
        ]
        env.reset(jobs)
        while not env.is_done():
            action = policy(env)
            if action == 0:
                fitting = [i for i, j in enumerate(env.queue)
                           if j is not None and env.image.fits_at(j, 0)]
                assert fitting == []
            env.step(action)


def test_policies_always_emit_valid_actions():
    cfg = EnvConfig(queue_slots=3)
    env = ClusterEnv(cfg)
    rng = np.random.default_rng(5)
    random_rng = np.random.default_rng(0)
    policies = [
        sjf_select,
        tetris_select,
        lambda env: random_select(env, random_rng),
    ]
    jobs = [
        Job(i, int(rng.integers(0, 15)), int(rng.integers(1, 6)),
            (int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        for i in range(20)
    ]
    for policy in policies:
        env.reset(jobs)
        while not env.is_done():
            action = policy(env)
            assert 0 <= action <= cfg.queue_slots
            env.step(action)


# -- run_greedy ----------------------------------------------------------------------


def test_run_greedy_empty_workload():
    env = ClusterEnv(EnvConfig())
    report = run_greedy(sjf_select, env, [], 0.99)
    assert report.completed == 0
    assert report.discounted_reward == 0.0


def test_run_greedy_single_job_slowdown_one():
    env = ClusterEnv(EnvConfig())
    report = run_greedy(sjf_select, env, [Job(0, 0, 4, (3, 2))], 0.99)
    assert report.avg_slowdown == 1.0
    assert report.avg_waiting_time == 0.0


def test_run_greedy_resets_its_env():
    # a second run on the same env replays the episode, reward included
    jobs = generate(WorkloadSpec(rate=0.7, seed=0), EnvConfig())
    env = ClusterEnv(EnvConfig())
    first = run_greedy(sjf_select, env, jobs, 0.99)
    assert first.completed == len(jobs) and first.discounted_reward < 0
    assert run_greedy(sjf_select, env, jobs, 0.99) == first


def test_run_greedy_forced_serialization():
    env = ClusterEnv(EnvConfig(capacities=(4, 4)))
    jobs = [Job(0, 0, 1, (4, 4)), Job(1, 0, 1, (4, 4))]
    run_greedy(sjf_select, env, jobs, 0.99)
    finishes = sorted(j.finished_at for j in env.completed)
    assert finishes == [1, 2]


# -- sjf optimality oracle -------------------------------------------------------------


def brute_force_min_avg_waiting(durations):
    best = None
    for order in itertools.permutations(durations):
        waiting = 0
        clock = 0
        for d in order:
            waiting += clock
            clock += d
        best = waiting if best is None else min(best, waiting)
    return best / len(durations)


def test_sjf_matches_brute_force_on_serial_instances():
    rng = np.random.default_rng(9)
    cfg = EnvConfig(horizon=10, capacities=(1, 1), queue_slots=7,
                    backlog_size=10, episode_limit=200)
    env = ClusterEnv(cfg)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        durations = [int(rng.integers(1, 6)) for _ in range(n)]
        jobs = [Job(i, 0, d, (1, 1)) for i, d in enumerate(durations)]
        report = run_greedy(sjf_select, env, jobs, 0.99)
        assert report.completed == n
        assert report.avg_waiting_time == brute_force_min_avg_waiting(durations)
