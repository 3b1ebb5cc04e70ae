"""Advantage actor-critic scheduling agent.

Two separate networks: a policy (softmax over void + queue slots) and a
state-value critic. Training collects short on-policy segments and applies
one SGD step per segment on each network: the critic descends the squared
n-step TD error, the actor descends -log pi(a|s) * advantage with an
optional entropy bonus. Advantages are constants during the actor step; a
terminal successor state always bootstraps as zero.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import EnvConfig, check_int, check_real
from .env import ClusterEnv
from .errors import ConfigError, ShapeError, TrainingDiverged
from .metrics import episode_report, write_csv
from .nn import Network, conv3, dense, fingerprint, flatten, maxpool2, softmax
from .nn.checkpoint import load_params, save_params, saved_fingerprint

# Feature chains of the supported network families (head not included); fc
# has one hidden layer of 128 units. LayerSpec is frozen, so chains share specs.
ARCHITECTURES = {
    "fc": (flatten(), dense(128, activation="relu")),
    "conv16": (conv3(16, activation="relu"), flatten()),
    "conv32": (conv3(32, activation="relu"), flatten()),
    "conv16_pool": (conv3(16, activation="relu"), maxpool2(), flatten()),
    "conv32_pool": (conv3(32, activation="relu"), maxpool2(), flatten()),
}
ARCHITECTURE_NAMES = tuple(ARCHITECTURES)

LOSS_LIMIT = 1e6


def architecture_chain(name: str):
    """A new list of the feature chain of architecture `name`."""
    if name not in ARCHITECTURES:
        raise ConfigError(
            f"unknown architecture {name!r}; pick from {ARCHITECTURE_NAMES}"
        )
    return list(ARCHITECTURES[name])


def checkpoint_architecture(directory, observation_shape, num_actions) -> str:
    """The ARCHITECTURES name whose actor, on this state shape and action
    count, has the fingerprint saved in `directory`; else a ConfigError."""
    path = Path(directory) / "actor.npz"
    saved, input_shape = saved_fingerprint(path), (1, *observation_shape)
    for name, chain in ARCHITECTURES.items():
        if saved == fingerprint(chain + (dense(num_actions),), input_shape):
            return name
    raise ConfigError(f"{path}: checkpoint architecture {saved!r} is none of "
                      f"{ARCHITECTURE_NAMES} on input {input_shape} with "
                      f"{num_actions} actions")


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = 0.99
    lr_actor: float = 1e-3
    lr_critic: float = 1e-3
    n_steps: int = 5
    entropy_coeff: float = 0.01
    architecture: str = "conv16"
    init_scale: float = 1e-3

    def __post_init__(self):
        check_real("gamma", self.gamma, 0, 1)
        for name in ("lr_actor", "lr_critic", "init_scale"):
            check_real(name, getattr(self, name), 0, open_low=True)
        check_int("n_steps", self.n_steps, 1)
        check_real("entropy_coeff", self.entropy_coeff, 0)
        architecture_chain(self.architecture)


@dataclass
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


def n_step_returns(segment, gamma: float, value_fn, n: int):
    """Per-step n-step TD targets and advantages over a contiguous segment.

    target_t sums up to n discounted rewards and bootstraps from the value of
    the state where the window ends; a segment ending in a terminal
    transition bootstraps as zero there. Segments must not cross episode
    boundaries.
    """
    if not segment:
        raise ShapeError("segment must be non-empty")
    check_int("n", n, 1)
    length = len(segment)
    targets = np.empty(length, dtype=np.float64)
    advantages = np.empty(length, dtype=np.float64)
    for t in range(length):
        m = min(n, length - t)
        acc = 0.0
        discount = 1.0
        for k in range(m):
            acc += discount * segment[t + k].reward
            discount *= gamma
        if t + m == length:
            last = segment[-1]
            bootstrap = 0.0 if last.done else value_fn(last.next_state)
        else:
            bootstrap = value_fn(segment[t + m].state)
        targets[t] = acc + discount * bootstrap
        advantages[t] = targets[t] - value_fn(segment[t].state)
    return targets, advantages


class ActorCriticAgent:
    """Policy + value networks over the environment's state encoding."""

    def __init__(self, observation_shape, num_actions: int, config=None,
                 seed: int = 0, chain=None):
        check_int("seed", seed)
        check_int("num_actions", num_actions, 1)
        self.config = config or AgentConfig()
        input_shape = (1, *observation_shape)
        if chain is None:
            chain = architecture_chain(self.config.architecture)
        seeds = np.random.SeedSequence(seed).spawn(3)
        self.actor = Network(
            list(chain) + [dense(int(num_actions))],
            input_shape,
            seed=seeds[0],
            init_scale=self.config.init_scale,
        )
        self.critic = Network(
            list(chain) + [dense(1)],
            input_shape,
            seed=seeds[1],
            init_scale=self.config.init_scale,
        )
        self.rng = np.random.default_rng(seeds[2])

    # -- evaluation ------------------------------------------------------------

    def policy(self, state: np.ndarray) -> np.ndarray:
        """Action probabilities; TrainingDiverged if the weights overflowed."""
        logits, _ = self.actor.forward(np.asarray(state)[None, None])
        probs = softmax(logits[0])
        if not math.isfinite(probs.sum()):
            raise TrainingDiverged("policy probabilities are not finite")
        return probs

    def value(self, state: np.ndarray) -> float:
        out, _ = self.critic.forward(np.asarray(state)[None, None])
        return float(out[0, 0])

    def act(self, state: np.ndarray, *, greedy: bool = False) -> int:
        """Sample an action at `state`; `greedy` takes the argmax, drawing nothing."""
        probs = self.policy(state)
        if greedy:
            return int(np.argmax(probs))  # argmax takes the first max on ties
        return int(self.rng.choice(len(probs), p=probs))

    # -- learning ----------------------------------------------------------------

    def update(self, segment) -> dict:
        """One critic step and one actor step from a trajectory segment.
        Returns diagnostics evaluated before the parameter updates."""
        if not segment:
            raise ShapeError("segment must be non-empty")
        cfg = self.config
        length = len(segment)
        # the segment's states and then the final bootstrap state: one batched
        # critic pass covers every value the targets need, n_step_returns
        # reads them back through an identity-keyed lookup, and the actor
        # reads the first `length` rows
        states = np.stack(
            [tr.state for tr in segment] + [segment[-1].next_state]
        )[:, None, :, :]
        actions = np.array([tr.action for tr in segment])
        v_out, v_caches = self.critic.forward(states)
        values = v_out[:, 0].astype(np.float64)
        lookup = {id(tr.state): values[t] for t, tr in enumerate(segment)}
        lookup[id(segment[-1].next_state)] = values[length]
        targets, advantages = n_step_returns(
            segment, cfg.gamma, lambda s: lookup[id(s)], cfg.n_steps
        )

        critic_loss = float(((values[:length] - targets) ** 2).sum())
        dv = np.zeros((length + 1, 1))
        dv[:length, 0] = 2.0 * (values[:length] - targets)
        critic_grads, _ = self.critic.backward(v_caches, dv)

        logits, a_caches = self.actor.forward(states[:length])
        probs = softmax(logits)
        # floor keeps 0 * log(0) at 0 when the policy saturates
        log_probs = np.log(np.maximum(probs, 1e-300))
        entropy = -(probs * log_probs).sum(axis=1)
        chosen = log_probs[np.arange(length), actions]
        actor_loss = float(
            -(chosen * advantages).sum() - cfg.entropy_coeff * entropy.sum()
        )
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(length), actions] = 1.0
        dlogits = advantages[:, None] * (probs - one_hot)
        if cfg.entropy_coeff:
            dlogits += cfg.entropy_coeff * probs * (log_probs + entropy[:, None])
        actor_grads, _ = self.actor.backward(a_caches, dlogits)

        if (
            not math.isfinite(actor_loss)
            or not math.isfinite(critic_loss)
            or abs(actor_loss) > LOSS_LIMIT
            or abs(critic_loss) > LOSS_LIMIT
        ):
            raise TrainingDiverged(
                f"actor_loss={actor_loss!r} critic_loss={critic_loss!r}"
            )

        self.critic.sgd_step(critic_grads, cfg.lr_critic)
        self.actor.sgd_step(actor_grads, cfg.lr_actor)
        return {
            "actor_loss": actor_loss,
            "critic_loss": critic_loss,
            "entropy": float(entropy.mean()),
            "mean_advantage": float(advantages.mean()),
        }

    # -- persistence -----------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Checkpoint: one parameter file per network."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_params(self.actor, directory / "actor.npz")
        save_params(self.critic, directory / "critic.npz")

    def load(self, directory: str | Path) -> None:
        """Load a checkpoint; each file's architecture fingerprint must match
        the network it is loaded into. A failed load changes neither network:
        `load_params` replaces parameter tuples and never writes into them."""
        directory = Path(directory)
        actor_params = list(self.actor.params)
        load_params(self.actor, directory / "actor.npz")
        try:
            load_params(self.critic, directory / "critic.npz")
        except BaseException:
            self.actor.params[:] = actor_params
            raise


@dataclass
class EpisodeRecord:
    episode: int
    steps: int
    updates: int
    total_reward: float
    discounted_reward: float
    avg_slowdown: float | None
    avg_completion_time: float | None
    avg_waiting_time: float | None
    completed: int
    truncated: bool
    # means of update()'s diagnostics over the episode; 0.0 without an update
    actor_loss: float = 0.0
    critic_loss: float = 0.0
    entropy: float = 0.0
    mean_advantage: float = 0.0


TRAINING_LOG_COLUMNS = [f.name for f in dataclasses.fields(EpisodeRecord)]


def run_episode(env: ClusterEnv, agent: ActorCriticAgent, jobs,
                episode: int) -> EpisodeRecord:
    """Roll one training episode, updating both networks every n_steps and
    at episode end, whichever comes first."""
    cfg = agent.config
    env.reset(jobs)
    obs = env.encode_state()
    segment: list[Transition] = []
    rewards: list[float] = []
    total_reward = 0.0
    diags: list[dict] = []
    done = env.is_done()
    while not done:
        action = agent.act(obs)
        outcome = env.step(action)
        done = outcome.done
        next_obs = env.encode_state()
        rewards.append(outcome.reward)
        total_reward += outcome.reward
        segment.append(Transition(obs, action, outcome.reward, next_obs, done))
        if len(segment) >= cfg.n_steps or done:
            diags.append(agent.update(segment))
            segment = []
        obs = next_obs
    report = episode_report(env.completed, rewards, cfg.gamma,
                            total_jobs=len(env.jobs))
    # float sums add left to right, as sum() does only before Python 3.12
    means = dict.fromkeys(diags[0] if diags else (), 0.0)
    for diag in diags:
        for key in means:
            means[key] += diag[key]
    for key in means:
        means[key] /= len(diags)
    return EpisodeRecord(
        episode=episode,
        steps=len(rewards),
        updates=len(diags),
        total_reward=total_reward,
        **dataclasses.asdict(report),
        **means,
    )


def train(env_config: EnvConfig, sequences, agent_config: AgentConfig,
          episodes: int, seed: int = 0, log_path: str | Path | None = None):
    """Algorithm: loop over episodes, cycling through the given job
    sequences, sampling actions from the current policy and updating both
    networks every n_steps transitions. Deterministic given the seed.

    Returns (list of EpisodeRecord, trained agent).
    """
    if not sequences:
        raise ConfigError("need at least one job sequence to train on")
    check_int("episodes", episodes)
    env = ClusterEnv(env_config)
    agent = ActorCriticAgent(env.observation_shape(), env_config.num_actions,
                             config=agent_config, seed=seed)
    records: list[EpisodeRecord] = []

    def rows():
        for episode in range(episodes):
            jobs = sequences[episode % len(sequences)]
            try:
                record = run_episode(env, agent, jobs, episode)
            except TrainingDiverged as exc:
                raise TrainingDiverged(str(exc), episode=episode) from exc
            records.append(record)
            yield dataclasses.asdict(record)

    # a diverging run overflows; the finiteness checks in policy() and
    # update() report it as TrainingDiverged, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if log_path:
            Path(log_path).parent.mkdir(parents=True, exist_ok=True)
            write_csv(log_path, TRAINING_LOG_COLUMNS, rows())
        else:
            for _ in rows():
                pass
    return records, agent
