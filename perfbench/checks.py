"""Correctness checks on what rlsched produced during a benchmark round.

Every expected value here is computed apart from the program: from the job
start and finish records, from the generated inputs, or by a reference
implementation written in this file (n-step targets, the network forward
pass). Each check returns a list of messages; an empty list means it passed.
"""
from __future__ import annotations

import math

import numpy as np

REL = 1e-9  # the reward-slowdown identity holds to ~5e-13 today


def _close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def check_jobs(jobs, capacities) -> list[str]:
    """Job records of one episode: start >= arrival, finish - start ==
    duration, and at every step the summed demands of the jobs holding
    resources (each from its start for its duration) fit the capacities."""
    errors = []
    started = []
    for job in jobs:
        if job.started_at is None:
            if job.finished_at is not None:
                errors.append(f"job {job.id} finished without starting")
            continue
        started.append(job)
        if job.started_at < job.arrival:
            errors.append(f"job {job.id} started at {job.started_at} before "
                          f"its arrival {job.arrival}")
        if job.finished_at is not None and (
            job.finished_at - job.started_at != job.duration
        ):
            errors.append(f"job {job.id} ran {job.finished_at - job.started_at} "
                          f"steps, its duration is {job.duration}")
    if started:
        end = max(j.started_at + j.duration for j in started)
        usage = np.zeros((end + 1, len(capacities)), dtype=np.int64)
        for job in started:
            usage[job.started_at] += job.demand
            usage[job.started_at + job.duration] -= job.demand
        over = np.flatnonzero(
            (usage.cumsum(axis=0) > np.asarray(capacities)).any(axis=1))
        if over.size:
            errors.append(f"running jobs exceed capacity at step {over[0]}")
    return errors


def reward_identity(total_reward: float, avg_slowdown: float | None,
                    completed: int) -> list[str]:
    """With every job finished, -(total reward) is the summed slowdown."""
    expected = 0.0 if avg_slowdown is None else avg_slowdown * completed
    if not _close(-total_reward, expected):
        return [f"-(total reward) {-total_reward!r} != avg_slowdown x completed "
                f"{expected!r}"]
    return []


def check_sweep(rows, summaries, episodes, inputs, capacities) -> list[str]:
    """`rows`/`summaries` are run_experiment's outputs; `episodes` the
    recorded episodes in run order; `inputs[(rate, seed, episode)]` the job
    sequence generate produced for that cell episode."""
    if len(episodes) != len(rows):
        return [f"{len(rows)} episode rows but {len(episodes)} episodes ran"]
    errors = []
    for row, ep in zip(rows, episodes):
        where = f"{row['policy']} rate {row['job_rate']} seed {row['seed']} " \
                f"episode {row['episode']}"
        expected = inputs[(row["job_rate"], row["seed"], row["episode"])]
        errors += [f"{where}: {e}" for e in check_jobs(ep.jobs, capacities)]
        if [(j.id, j.arrival, j.duration, j.demand) for j in ep.jobs] != [
            (j.id, j.arrival, j.duration, j.demand) for j in expected
        ]:
            errors.append(f"{where}: ran other jobs than generate produced")
        unfinished = sum(j.finished_at is None for j in ep.jobs)
        if unfinished or row["truncated"] or row["completed"] != len(expected):
            errors.append(f"{where}: {unfinished} jobs unfinished")
            continue
        errors += [f"{where}: {e}" for e in reward_identity(
            ep.total_reward, row["avg_slowdown"], row["completed"])]
        mean_duration = math.fsum(j.duration for j in expected) / len(expected)
        gap = row["avg_completion_time"] - row["avg_waiting_time"]
        if not _close(gap, mean_duration):
            errors.append(f"{where}: completion - waiting {gap!r} != mean "
                          f"duration {mean_duration!r}")
    errors += check_summaries(rows, summaries)
    errors += check_ordering(summaries)
    return errors


def check_summaries(rows, summaries) -> list[str]:
    errors = []
    for s in summaries:
        cell = [r for r in rows if (r["policy"], r["job_rate"], r["seed"]) ==
                (s["policy"], s["job_rate"], s["seed"])][-s["window"]:]
        for key, value in s.items():
            if not key.endswith("_mean"):
                continue
            metric = key[: -len("_mean")]
            values = [r[metric] for r in cell if r[metric] is not None]
            expected = math.fsum(values) / len(values) if values else None
            if (value is None) != (expected is None) or (
                value is not None and not _close(value, expected, 1e-12)
            ):
                errors.append(f"summary {s['policy']} rate {s['job_rate']} seed "
                              f"{s['seed']}: {key} {value!r} != {expected!r}")
    return errors


def check_ordering(summaries) -> list[str]:
    """random > tetris >= sjf on mean slowdown in every (rate, seed) cell."""
    table = {(s["job_rate"], s["seed"], s["policy"]): s["avg_slowdown_mean"]
             for s in summaries}
    errors = []
    for rate, seed in sorted({(r, s) for r, s, _ in table}):
        rnd, tet, sjf = (table[(rate, seed, p)] for p in ("random", "tetris", "sjf"))
        if not rnd > tet >= sjf:
            errors.append(f"rate {rate} seed {seed}: not random {rnd!r} > "
                          f"tetris {tet!r} >= sjf {sjf!r}")
    return errors


def check_training(records, episodes, n_steps: int, num_actions: int,
                   capacities) -> list[str]:
    """`records` are train()'s EpisodeRecords, `episodes` the recorded runs."""
    if len(episodes) != len(records):
        return [f"{len(records)} training records but {len(episodes)} episodes ran"]
    errors = []
    for rec, ep in zip(records, episodes):
        where = f"training episode {rec.episode}"
        errors += [f"{where}: {e}" for e in check_jobs(ep.jobs, capacities)]
        if rec.steps != ep.steps:
            errors.append(f"{where}: logged {rec.steps} steps, ran {ep.steps}")
        if rec.updates != math.ceil(rec.steps / n_steps):
            errors.append(f"{where}: {rec.updates} updates for {rec.steps} "
                          f"steps at n_steps {n_steps}")
        if not all(math.isfinite(v) for v in
                   (rec.actor_loss, rec.critic_loss, rec.mean_advantage)):
            errors.append(f"{where}: non-finite loss")
        if not 0.0 <= rec.entropy <= math.log(num_actions) + 1e-12:
            errors.append(f"{where}: entropy {rec.entropy!r} outside "
                          f"[0, ln {num_actions}]")
        if rec.total_reward > 0.0:
            errors.append(f"{where}: positive total reward {rec.total_reward!r}")
        if not rec.truncated:
            errors += [f"{where}: {e}" for e in reward_identity(
                rec.total_reward, rec.avg_slowdown, rec.completed)]
    return errors


def reference_n_step(rewards, values, bootstrap, gamma: float, n: int):
    """n-step targets and advantages over one segment, written out directly:
    values[t] is v(S_t), bootstrap is v of the final successor (0 if terminal)."""
    length = len(rewards)
    targets = []
    for t in range(length):
        m = min(n, length - t)
        acc = sum(gamma ** k * rewards[t + k] for k in range(m))
        tail = bootstrap if t + m == length else values[t + m]
        targets.append(acc + gamma ** m * tail)
    return targets, [g - v for g, v in zip(targets, values)]


def check_n_step(samples) -> list[str]:
    errors = []
    for s in samples:
        targets, advantages = reference_n_step(
            s["rewards"], s["values"], s["bootstrap"], s["gamma"], s["n"])
        for got, want, what in ((s["targets"], targets, "target"),
                                (s["advantages"], advantages, "advantage")):
            bad = [t for t, (a, b) in enumerate(zip(got, want))
                   if not _close(float(a), b)]
            if bad:
                errors.append(f"n-step {what} {bad[0]}: {float(got[bad[0]])!r} "
                              f"!= reference {want[bad[0]]!r}")
    return errors


def reference_logits(net, state) -> np.ndarray:
    """Forward pass of one state in float64: direct 3x3 sums over a zero
    border, an explicit max over each 2x2 window, then the dense layers."""
    x = np.asarray(state, dtype=np.float64)[None]  # (channels, H, W)
    for spec, params in zip(net.layers, net.params):
        if spec.kind == "conv3":
            w, b = (np.asarray(p, dtype=np.float64) for p in params)
            _, h, wd = x.shape
            padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
            out = np.broadcast_to(b[:, None, None], (len(b), h, wd)).copy()
            for di in range(3):
                for dj in range(3):
                    out += np.einsum("fc,chw->fhw", w[:, :, di, dj],
                                     padded[:, di : di + h, dj : dj + wd])
            x = out
        elif spec.kind == "maxpool2":
            h2, w2 = x.shape[1] // 2, x.shape[2] // 2
            corners = [x[:, i : 2 * h2 : 2, j : 2 * w2 : 2]
                       for i in (0, 1) for j in (0, 1)]
            x = np.maximum(np.maximum(corners[0], corners[1]),
                           np.maximum(corners[2], corners[3]))
        elif spec.kind == "flatten":
            x = x.reshape(-1)
        elif spec.kind == "dense":
            w, b = (np.asarray(p, dtype=np.float64) for p in params)
            x = w @ x + b
        if spec.activation == "relu":
            x = np.maximum(x, 0.0)
    return x


# float32 sums over ~2e4 terms: the measured error is below 1e-6 of the
# largest logit; 1e-4 leaves room without hiding a real disagreement
LOGIT_TOL = 1e-4


def check_greedy(samples) -> list[str]:
    """Each sample holds the actor net, the state it acted on, the program's
    logits for that state and the greedy action it took."""
    errors = []
    for i, s in enumerate(samples):
        ref = reference_logits(s["net"], s["state"])
        got = np.asarray(s["logits"], dtype=np.float64)
        tol = LOGIT_TOL * max(np.abs(ref).max(), 1e-6)
        if got.shape != ref.shape or np.abs(got - ref).max() > tol:
            errors.append(f"state sample {i}: logits {got} != reference {ref}")
            continue
        near_best = np.flatnonzero(ref >= ref.max() - tol)
        if s["action"] not in near_best:
            errors.append(f"state sample {i}: greedy action {s['action']} is not "
                          f"the reference argmax {int(ref.argmax())}")
    return errors


def check_loaded(saved, loaded) -> list[str]:
    """`saved` maps a checkpoint file name to its parameter arrays; `loaded`
    lists (file name, arrays read back into a network)."""
    errors = []
    for name, arrays in loaded:
        want = saved[name]
        if len(arrays) != len(want) or not all(
            a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(arrays, want)
        ):
            errors.append(f"{name}: loaded parameters differ from the saved ones")
    return errors
