import sys

import numpy as np
import pytest

from rlsched.agent import (
    ActorCriticAgent,
    AgentConfig,
    Transition,
    architecture_chain,
    n_step_returns,
    train,
)
from rlsched.baselines import make_policy, run_greedy
from rlsched.config import EnvConfig
from rlsched.env import ClusterEnv, Job
from rlsched.errors import ConfigError, TrainingDiverged
from rlsched.nn import flatten, softmax
from rlsched.workload import WorkloadSpec, generate

TINY = AgentConfig(gamma=0.9, lr_actor=0.1, lr_critic=0.1, n_steps=1,
                   entropy_coeff=0.0, init_scale=0.1)


def tiny_agent(num_actions=2, seed=0, config=TINY):
    # flatten-only feature chain: one dense layer per head, hand-checkable
    return ActorCriticAgent((1, 2), num_actions, config=config, seed=seed,
                            chain=[flatten()])


def grid(*values):
    return np.array([list(values)], dtype=np.float32)


# -- policy / value ---------------------------------------------------------------


def test_policy_is_probability_vector():
    env = ClusterEnv(EnvConfig())
    agent = ActorCriticAgent(env.observation_shape(), 6, seed=1)
    obs = env.reset([Job(0, 0, 3, (2, 1))]).encode_state()
    probs = agent.policy(obs)
    assert probs.shape == (6,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_policy_depends_only_on_encoding():
    cfg = EnvConfig()
    env = ClusterEnv(cfg)
    a = env.reset([Job(id=1, arrival=0, duration=3, demand=(2, 1))]).encode_state()
    b = env.reset([Job(id=99, arrival=0, duration=3, demand=(2, 1))]).encode_state()
    assert np.array_equal(a, b)
    agent = ActorCriticAgent(env.observation_shape(), 6, seed=2)
    assert np.array_equal(agent.policy(a), agent.policy(b))


def test_fresh_policy_near_uniform():
    env = ClusterEnv(EnvConfig())
    jobs = [Job(i, 0, 2 + i, (3, 1)) for i in range(4)]
    obs = env.reset(jobs).encode_state()
    for arch in ("fc", "conv16", "conv32", "conv16_pool", "conv32_pool"):
        agent = ActorCriticAgent(
            env.observation_shape(), 6,
            config=AgentConfig(architecture=arch), seed=3,
        )
        probs = agent.policy(obs)
        assert probs.max() / probs.min() < 1.5


def test_fresh_value_small():
    env = ClusterEnv(EnvConfig())
    obs = env.reset([Job(0, 0, 5, (4, 2))]).encode_state()
    for seed in range(5):
        agent = ActorCriticAgent(env.observation_shape(), 6, seed=seed)
        assert abs(agent.value(obs)) < 0.1


def test_value_deterministic():
    agent = tiny_agent()
    s = grid(0.5, -1.0)
    assert agent.value(s) == agent.value(s)


def direct_logits(net, state):
    """One state's network output in float64, each layer from its definition:
    3x3 sums over a zero border, the max of each 2x2 window, dense."""
    x = np.asarray(state, dtype=np.float64)[None]  # (channels, H, W)
    for spec, params in zip(net.layers, net.params):
        if spec.kind == "conv3":
            w, b = (p.astype(np.float64) for p in params)
            _, h, wd = x.shape
            padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
            y = np.empty((len(b), h, wd))
            for r in range(h):
                for c in range(wd):
                    patch = padded[None, :, r : r + 3, c : c + 3]
                    y[:, r, c] = (w * patch).sum(axis=(1, 2, 3)) + b
            x = y
        elif spec.kind == "maxpool2":
            y = np.empty((x.shape[0], x.shape[1] // 2, x.shape[2] // 2))
            for r in range(y.shape[1]):
                for c in range(y.shape[2]):
                    y[:, r, c] = x[:, 2 * r : 2 * r + 2, 2 * c : 2 * c + 2].max(axis=(1, 2))
            x = y
        elif spec.kind == "flatten":
            x = x.reshape(-1)
        elif spec.kind == "dense":
            w, b = (p.astype(np.float64) for p in params)
            x = w @ x + b
        if spec.activation == "relu":
            x = np.maximum(x, 0.0)
    return x


@pytest.mark.parametrize("arch", ["conv16_pool", "conv32_pool"])
def test_pooled_actor_matches_direct_forward(arch):
    cfg = EnvConfig()
    env = ClusterEnv(cfg)
    env.reset(generate(WorkloadSpec(rate=0.9, seed=4), cfg))
    states = []
    for t in range(40):
        if t % 10 == 9:
            states.append(env.encode_state())
        env.step(t % 3)
    # a wide init spreads the logits, so the greedy action is well defined
    agent = ActorCriticAgent(env.observation_shape(), cfg.num_actions,
                             config=AgentConfig(architecture=arch, init_scale=0.1),
                             seed=7)
    for state in states:
        logits, _ = agent.actor.forward(state[None, None])
        want = direct_logits(agent.actor, state)
        tol = 1e-4 * np.abs(want).max()
        assert np.abs(logits[0] - want).max() <= tol
        action = agent.act(state, mode="greedy")
        assert want[action] >= want.max() - tol


def test_unknown_architecture_rejected():
    with pytest.raises(ConfigError):
        architecture_chain("resnet")
    with pytest.raises(ConfigError, match="resnet"):
        AgentConfig(architecture="resnet")


# -- select_action ----------------------------------------------------------------


def test_select_action_degenerate_distribution():
    agent = tiny_agent(num_actions=4)
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    assert all(agent.select_action(probs) == 0 for _ in range(20))


def test_select_action_greedy_argmax():
    agent = tiny_agent(num_actions=3)
    assert agent.select_action(np.array([0.2, 0.5, 0.3]), mode="greedy") == 1
    # first index wins ties
    assert agent.select_action(np.array([0.4, 0.4, 0.2]), mode="greedy") == 0


@pytest.mark.parametrize("mode", ["greedy", "sample"])
def test_act_on_overflowed_weights_raises_training_diverged(mode):
    """Weights pushed to inf give NaN probabilities; acting on them is an
    error in both modes, not an argmax over NaN or a raw sampling error."""
    agent = tiny_agent(num_actions=3)
    w, b = agent.actor.params[-1]
    agent.actor.params[-1] = (np.full_like(w, np.inf), b)
    with pytest.raises(TrainingDiverged), np.errstate(invalid="ignore"):
        agent.act(grid(1.0, 1.0), mode=mode)


def test_select_action_sampling_frequencies():
    agent = tiny_agent(num_actions=4, seed=11)
    probs = np.full(4, 0.25)
    draws = 100_000
    counts = np.bincount(
        [agent.select_action(probs, mode="sample") for _ in range(draws)],
        minlength=4,
    )
    sigma = np.sqrt(draws * 0.25 * 0.75)
    assert (np.abs(counts - draws / 4) <= 3 * sigma).all()


# -- one-step TD error: the advantage of n_step_returns with n=1 -------------------


def value_table(mapping):
    return lambda s: mapping[s.tobytes()]


def td_error(transition, gamma, value_fn):
    """delta = R + gamma * v(S') - v(S), through n_step_returns with n=1."""
    _, advantages = n_step_returns([transition], gamma, value_fn, 1)
    return advantages[0]


def test_td_error_formula():
    s, s2 = grid(1.0, 0.0), grid(0.0, 1.0)
    vf = value_table({s.tobytes(): 2.0, s2.tobytes(): 2.0})
    tr = Transition(s, 0, 1.0, s2, done=False)
    assert td_error(tr, 0.9, vf) == pytest.approx(0.8)


def test_td_error_terminal_ignores_next_value():
    s, s2 = grid(1.0, 0.0), grid(0.0, 1.0)
    tr = Transition(s, 0, -0.5, s2, done=True)
    for huge in (0.0, 1e9, -1e9):
        vf = value_table({s.tobytes(): 0.3, s2.tobytes(): huge})
        assert td_error(tr, 0.9, vf) == pytest.approx(-0.8)


def test_td_error_gamma_zero_is_myopic():
    s, s2 = grid(1.0, 0.0), grid(0.0, 1.0)
    vf = value_table({s.tobytes(): 0.7, s2.tobytes(): 123.0})
    tr = Transition(s, 0, 2.0, s2, done=False)
    assert td_error(tr, 0.0, vf) == pytest.approx(1.3)


# -- n_step_returns ----------------------------------------------------------------


def chain_segment(rewards, done_last, n_states=None):
    states = [grid(float(i), 0.0) for i in range(len(rewards) + 1)]
    return [
        Transition(states[i], 0, rewards[i], states[i + 1],
                   done=done_last and i == len(rewards) - 1)
        for i in range(len(rewards))
    ]


def test_n_step_terminal_hand_sum():
    segment = chain_segment([-1.0, -1.0, -1.0], done_last=True)
    targets, advantages = n_step_returns(segment, 1.0, lambda s: 99.0, 3)
    assert np.allclose(targets, [-3.0, -2.0, -1.0])
    assert np.allclose(advantages, targets - 99.0)


def test_n_step_one_equals_td_error():
    rng = np.random.default_rng(5)
    segment = chain_segment(list(rng.uniform(-2, 2, size=6)), done_last=True)
    values = {tr.state.tobytes(): float(rng.uniform(-1, 1)) for tr in segment}
    values[segment[-1].next_state.tobytes()] = float(rng.uniform(-1, 1))
    vf = value_table(values)
    targets, _ = n_step_returns(segment, 0.9, vf, 1)
    for t, tr in enumerate(segment):
        bootstrap = 0.0 if tr.done else vf(tr.next_state)
        assert targets[t] == pytest.approx(tr.reward + 0.9 * bootstrap)


def test_n_step_gamma_zero_targets_are_rewards():
    segment = chain_segment([0.5, -0.25, 2.0], done_last=False)
    targets, _ = n_step_returns(segment, 0.0, lambda s: 7.0, 3)
    assert np.allclose(targets, [0.5, -0.25, 2.0])


def test_n_step_window_shorter_than_segment():
    segment = chain_segment([1.0, 1.0, 1.0, 1.0], done_last=True)
    vf = value_table(
        {tr.state.tobytes(): 10.0 * (i + 1) for i, tr in enumerate(segment)}
        | {segment[-1].next_state.tobytes(): 0.0}
    )
    targets, _ = n_step_returns(segment, 1.0, vf, 2)
    # t=0 bootstraps from state 2 (value 30), t=1 from state 3 (value 40)
    assert targets[0] == pytest.approx(1.0 + 1.0 + 30.0)
    assert targets[1] == pytest.approx(1.0 + 1.0 + 40.0)
    assert targets[2] == pytest.approx(1.0 + 1.0)
    assert targets[3] == pytest.approx(1.0)


def test_n_step_terminal_bootstrap_invariance():
    segment = chain_segment([-0.5, -0.5], done_last=True)
    base = {tr.state.tobytes(): 0.25 for tr in segment}
    for next_value in (0.0, 5.0, -5.0):
        vf = value_table(base | {segment[-1].next_state.tobytes(): next_value})
        targets, _ = n_step_returns(segment, 0.9, vf, 2)
        assert targets[0] == pytest.approx(-0.5 - 0.45)
        assert targets[1] == pytest.approx(-0.5)


# -- update -----------------------------------------------------------------------


def test_update_zero_advantage_is_noop_on_both_nets():
    agent = tiny_agent(config=AgentConfig(
        gamma=1.0, lr_actor=0.1, lr_critic=0.1, n_steps=1, entropy_coeff=0.0))
    # constant critic makes the advantage of a zero-reward transition zero
    agent.critic.params[-1] = (
        np.zeros_like(agent.critic.params[-1][0]),
        np.array([0.37], dtype=np.float32),
    )
    before_actor = [a.copy() for a in agent.actor.parameter_arrays()]
    before_critic = [a.copy() for a in agent.critic.parameter_arrays()]
    tr = Transition(grid(1.0, 2.0), 1, 0.0, grid(2.0, 1.0), done=False)
    agent.update([tr])
    for a, b in zip(before_actor, agent.actor.parameter_arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(before_critic, agent.critic.parameter_arrays()):
        assert np.array_equal(a, b)


def test_update_matches_hand_computed_gradient_step():
    agent = tiny_agent(seed=4)
    wa, ba = (a.copy().astype(np.float64) for a in agent.actor.params[-1])
    wc, bc = (a.copy().astype(np.float64) for a in agent.critic.params[-1])
    x = np.array([1.0, 2.0])
    s, s2 = grid(*x), grid(0.5, -1.0)
    reward = 0.5
    tr = Transition(s, 0, reward, s2, done=True)
    diag = agent.update([tr])

    v = wc @ x + bc  # critic forward
    target = reward  # terminal bootstrap
    adv = target - v[0]
    dv = 2.0 * (v[0] - target)
    wc_expect = wc - 0.1 * dv * x[None, :]
    bc_expect = bc - 0.1 * dv
    logits = wa @ x + ba
    p = softmax(logits)
    dlogits = adv * (p - np.array([1.0, 0.0]))
    wa_expect = wa - 0.1 * np.outer(dlogits, x)
    ba_expect = ba - 0.1 * dlogits

    assert np.allclose(agent.critic.params[-1][0], wc_expect, atol=1e-6)
    assert np.allclose(agent.critic.params[-1][1], bc_expect, atol=1e-6)
    assert np.allclose(agent.actor.params[-1][0], wa_expect, atol=1e-6)
    assert np.allclose(agent.actor.params[-1][1], ba_expect, atol=1e-6)
    assert diag["critic_loss"] == pytest.approx((v[0] - target) ** 2, abs=1e-6)
    assert diag["mean_advantage"] == pytest.approx(adv, abs=1e-6)


def exact_chain_values(rewards, gamma):
    # brute-force Bellman backup for a deterministic chain ending terminal
    values = [0.0] * (len(rewards) + 1)
    for _ in range(100):
        for i in range(len(rewards)):
            values[i] = rewards[i] + gamma * values[i + 1]
    return values[:-1]


def test_critic_converges_on_two_state_chain():
    agent = tiny_agent(seed=6)
    s0, s1, terminal = grid(1.0, 0.0), grid(0.0, 1.0), grid(0.0, 0.0)
    t0 = Transition(s0, 0, -1.0, s1, done=False)
    t1 = Transition(s1, 0, 0.0, terminal, done=True)
    for _ in range(600):
        agent.update([t0])
        agent.update([t1])
    oracle = exact_chain_values([-1.0, 0.0], gamma=0.9)
    assert agent.value(s0) == pytest.approx(oracle[0], abs=0.01)
    assert agent.value(s1) == pytest.approx(oracle[1], abs=0.01)


def test_positive_advantage_increases_action_probability():
    agent = tiny_agent(num_actions=3, seed=8)
    s = grid(1.0, 1.0)
    before = agent.policy(s)[1]
    tr = Transition(s, 1, 1.0, grid(0.0, 0.0), done=True)
    agent.update([tr])
    assert agent.policy(s)[1] > before


def test_update_rejects_empty_segment():
    with pytest.raises(ValueError):
        tiny_agent().update([])


def test_divergence_guard_raises():
    agent = tiny_agent()
    tr = Transition(grid(1.0, 1.0), 0, float("nan"), grid(0.0, 0.0), done=True)
    with pytest.raises(TrainingDiverged):
        agent.update([tr])


def test_all_diagnostics_finite_during_training():
    cfg = EnvConfig(horizon=6, capacities=(3, 3), queue_slots=2,
                    backlog_size=6, episode_limit=60)
    jobs = [Job(i, i % 4, 1 + i % 3, (1, 1)) for i in range(6)]
    records, _ = train(cfg, [jobs], AgentConfig(n_steps=3), episodes=5, seed=0)
    for r in records:
        assert np.isfinite([r.actor_loss, r.critic_loss, r.entropy,
                            r.mean_advantage]).all()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_update_reuses_batch_buffers():
    """An MB-sized temporary that is freed and mapped again on every update
    shows as minor page faults; warm updates must reuse the networks'
    buffers instead."""
    resource = pytest.importorskip("resource")
    env = ClusterEnv(EnvConfig())
    env.reset(generate(WorkloadSpec(rate=0.7, seed=0), env.config))
    agent = ActorCriticAgent(env.observation_shape(), env.config.num_actions,
                             seed=0)
    segments = []
    obs = env.encode_state()
    for _ in range(23):
        segment = []
        for _ in range(agent.config.n_steps):
            action = agent.act(obs)
            outcome = env.step(action)
            next_obs = env.encode_state()
            segment.append(Transition(obs, action, outcome.reward, next_obs,
                                      outcome.done))
            obs = next_obs
        segments.append(segment)
    for segment in segments[:3]:
        agent.update(segment)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for segment in segments[3:]:
        agent.update(segment)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 20 < 50


# -- train -------------------------------------------------------------------------


def small_env_config():
    return EnvConfig(horizon=4, capacities=(2, 2), queue_slots=2,
                     backlog_size=4, episode_limit=50)


def test_train_zero_episodes_empty_log():
    records, _ = train(small_env_config(), [[Job(0, 0, 2, (1, 1))]],
                       AgentConfig(), episodes=0, seed=0)
    assert records == []


def test_train_deterministic_given_seed():
    cfg = small_env_config()
    jobs = [Job(i, i, 1 + i % 2, (1, 1)) for i in range(4)]
    r1, a1 = train(cfg, [jobs], AgentConfig(n_steps=2), episodes=8, seed=42)
    r2, a2 = train(cfg, [jobs], AgentConfig(n_steps=2), episodes=8, seed=42)
    assert r1 == r2
    for x, y in zip(a1.actor.parameter_arrays(), a2.actor.parameter_arrays()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("bad", [{"episodes": -3}, {"episodes": 0, "seed": -1},
                                 {"seed": -1}])
def test_train_rejects_negative_counts(tmp_path, bad):
    kwargs = {"episodes": 2, "seed": 0, **bad}
    with pytest.raises(ConfigError):
        train(small_env_config(), [[Job(0, 0, 2, (1, 1))]], AgentConfig(),
              checkpoint_dir=tmp_path / "ckpt", **kwargs)
    assert not (tmp_path / "ckpt").exists()


def test_train_single_job_reaches_optimum():
    cfg = small_env_config()
    jobs = [Job(0, 0, 2, (1, 1))]
    config = AgentConfig(lr_actor=0.01, lr_critic=0.01, n_steps=3)
    _, agent = train(cfg, [jobs], config, episodes=150, seed=1)
    env = ClusterEnv(cfg)
    report = run_greedy(make_policy("a2c", agent=agent), env, jobs, config.gamma)
    assert report.avg_slowdown == pytest.approx(1.0)
    assert report.completed == 1


def test_train_divergence_carries_episode_index():
    cfg = small_env_config()
    jobs = [Job(0, 0, 2, (1, 1))]
    config = AgentConfig(lr_actor=1e6, lr_critic=1e6, n_steps=1,
                         init_scale=1.0)
    with pytest.raises(TrainingDiverged) as err:
        train(cfg, [jobs], config, episodes=30, seed=0)
    assert err.value.episode is not None


def test_agent_checkpoint_round_trip(tmp_path):
    cfg = small_env_config()
    jobs = [Job(i, 0, 2, (1, 1)) for i in range(2)]
    _, agent = train(cfg, [jobs], AgentConfig(n_steps=2), episodes=3, seed=5)
    agent.save(tmp_path / "ckpt")
    clone = ActorCriticAgent((4, 13), 3, config=AgentConfig(n_steps=2), seed=99)
    clone.load(tmp_path / "ckpt")
    env = ClusterEnv(cfg)
    obs = env.reset(jobs).encode_state()
    assert np.array_equal(agent.policy(obs), clone.policy(obs))
    assert agent.value(obs) == clone.value(obs)


def test_agent_checkpoint_architecture_mismatch(tmp_path):
    agent = ActorCriticAgent((4, 13), 3, config=AgentConfig(), seed=0)
    agent.save(tmp_path / "ckpt")
    other = ActorCriticAgent((4, 13), 3, config=AgentConfig(architecture="fc"),
                             seed=0)
    with pytest.raises(ConfigError):
        other.load(tmp_path / "ckpt")
