"""Shared invariant checker for environment stress tests."""
import numpy as np


def backlog(env):
    """The backlog: the first `backlog_size` jobs of the waiting line."""
    return list(env.waiting)[: env.config.backlog_size]


def deferred(env):
    """Arrivals deferred while the backlog is full: the rest of the line."""
    return list(env.waiting)[env.config.backlog_size :]


def check_invariants(env):
    """Raise AssertionError if any structural invariant is violated."""
    cfg = env.config
    h = cfg.horizon

    # job conservation: every job in exactly one bucket
    queued = [j for j in env.queue if j is not None]
    not_arrived = len(env.jobs) - env._next_arrival
    total = (
        not_arrived
        + len(deferred(env))
        + len(queued)
        + len(backlog(env))
        + len(env.running)
        + len(env.completed)
    )
    assert total == len(env.jobs), "job conservation violated"

    buckets = [
        {j.id for j in deferred(env)},
        {j.id for j in queued},
        {j.id for j in backlog(env)},
        {j.id for j in env.running},
        {j.id for j in env.completed},
    ]
    seen = set()
    for bucket in buckets:
        assert not (bucket & seen), "job present in two buckets"
        seen |= bucket

    # resource conservation: used units per row equal the summed demands of
    # jobs overlapping that row, and never exceed capacity
    expected = np.zeros((h, cfg.num_resources), dtype=np.int64)
    for job in env.running:
        lo = job.started_at - env.clock
        hi = lo + job.duration
        lo, hi = max(lo, 0), min(hi, h)
        for r, d in enumerate(job.demand):
            expected[lo:hi, r] += d
    assert (env.image.used == expected).all(), "occupancy mismatch"
    assert (env.image.used <= np.asarray(cfg.capacities)).all(), "capacity exceeded"

    # backlog and deferred arrivals stay in admission (arrival-stable) order
    order = {j.id: i for i, j in enumerate(env.jobs)}
    for queue in (backlog(env), deferred(env)):
        positions = [order[j.id] for j in queue]
        assert positions == sorted(positions), "FIFO order violated"

    # a slot is empty only when no job waits for it
    assert not (env.waiting and None in env.queue), "slot left empty"

    # queue slots only hold jobs that have arrived
    for j in queued:
        assert j.arrival <= env.clock

    # reward is never positive
    assert env._step_reward() <= 0.0


def random_stress(env, spec_factory, steps, seed, visit=None):
    """Drive `env` with uniform random actions over random workloads for
    `steps` total steps, checking invariants after every step. `visit(env,
    rng)`, when given, runs at each state before its random action and may
    step `env` itself, as long as it does not end the episode. Returns the
    number of executed random steps."""
    from rlsched.workload import generate

    rng = np.random.default_rng(seed)
    executed = 0
    while executed < steps:
        jobs = generate(spec_factory(int(rng.integers(2**31))), env.config)
        env.reset(jobs)
        check_invariants(env)
        while not env.is_done() and executed < steps:
            if visit:
                visit(env, rng)
                check_invariants(env)
            action = int(rng.integers(env.config.num_actions))
            outcome = env.step(action)
            assert outcome.done == env.is_done(), "outcome.done disagrees"
            check_invariants(env)
            executed += 1
    return executed
