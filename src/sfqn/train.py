"""DQN training: replay buffer, Adam, epsilon-greedy, evaluation protocol.

Vanilla DQN with uniform replay sampling and hard target-network copies.
Every trainable parameter takes gradient, including the fuzzy membership
banks and the neural decoder, so the encoder/decoder pair is optimized
end-to-end with the Q-loss.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .highway import HighwayConfig, HighwayEnv, check_action
from .qnet import N_ACTIONS, QNetwork


@dataclass
class Transition:
    obs: dict
    action: int
    reward: float
    next_obs: dict
    terminal: bool

    def __post_init__(self):
        check_action(self.action)
        if not np.isfinite(self.reward):
            raise ValueError("non-finite reward")


class ReplayBuffer:
    """Fixed-capacity ring buffer; oldest transitions are evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: list[Transition] = []
        self._next = 0

    def __len__(self):
        return len(self._data)

    def push(self, tr: Transition) -> None:
        if len(self._data) < self.capacity:
            self._data.append(tr)
        else:
            self._data[self._next] = tr
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch: int, rng: np.random.Generator) -> list[Transition]:
        if batch > len(self._data):
            raise ValueError("not enough transitions to sample a batch")
        idx = rng.integers(len(self._data), size=batch)
        return [self._data[i] for i in idx]


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1c = 1 - self.beta1 ** self.t
        b2c = 1 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            p.value = p.value - self.lr * (self.m[i] / b1c) / (
                np.sqrt(self.v[i] / b2c) + self.eps)


@dataclass
class TrainConfig:
    gamma: float = 0.99
    lr: float = 1e-4
    batch: int = 64
    buffer_capacity: int = 50_000
    target_update_every: int = 200
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_fraction: float = 0.3        # schedule span as fraction of total steps
    total_steps: int = 60_000
    warmup_steps: int = 500
    train_every: int = 1
    checkpoint_every: int = 5_000
    eval_episodes: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0,1)")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be positive and finite")
        if not 0 <= self.eps_fraction < np.inf:
            raise ValueError("eps_fraction must be non-negative and finite")
        small = [name for name in (
            "batch", "buffer_capacity", "target_update_every", "train_every",
            "checkpoint_every", "eval_episodes", "total_steps")
            if getattr(self, name) < 1]
        if small:
            raise ValueError(f"must be at least 1: {', '.join(small)}")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be at least 0")
        outside = [name for name in ("eps_start", "eps_end")
                   if not 0.0 <= getattr(self, name) <= 1.0]
        if outside:
            raise ValueError(f"must lie in [0,1]: {', '.join(outside)}")
        if self.batch > self.buffer_capacity:     # no update could ever run
            raise ValueError(f"batch {self.batch} exceeds buffer_capacity "
                             f"{self.buffer_capacity}")
        if self.warmup_steps >= self.total_steps:
            raise ValueError(f"warmup_steps {self.warmup_steps} must be below "
                             f"total_steps {self.total_steps}")

    def epsilon(self, step: int) -> float:
        span = max(1, int(self.eps_fraction * self.total_steps))
        frac = min(step / span, 1.0)
        return self.eps_start + frac * (self.eps_end - self.eps_start)


def _stack(batch: list[Transition], key: str, which: str) -> np.ndarray:
    # one cast per column: widening the float32 frames is exact
    return np.stack([getattr(t, which)[key] for t in batch]).astype(np.float64)


def bellman_target(batch: list[Transition], target_net: QNetwork,
                   gamma: float) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a'); y = r at terminals."""
    rewards = np.array([t.reward for t in batch])
    terminal = np.array([t.terminal for t in batch])
    with ad.no_grad():
        q_next, _ = target_net.forward(_stack(batch, "bev", "next_obs"),
                                       _stack(batch, "lidar_grid", "next_obs"))
    return rewards + gamma * q_next.value.max(axis=1) * ~terminal


def train_step(net: QNetwork, target_net: QNetwork, buffer: ReplayBuffer,
               cfg: TrainConfig, opt: Adam, rng: np.random.Generator
               ) -> float | None:
    """One MSE/Adam update on a uniform batch; None if the buffer is shy."""
    if len(buffer) < cfg.batch:
        return None
    batch = buffer.sample(cfg.batch, rng)
    y = bellman_target(batch, target_net, cfg.gamma)
    q, _ = net.forward(_stack(batch, "bev", "obs"),
                       _stack(batch, "lidar_grid", "obs"))
    onehot = np.zeros(q.shape)
    onehot[np.arange(len(batch)), [t.action for t in batch]] = 1.0
    q_sel = ad.tsum(q * onehot, axis=1)
    err = q_sel - y                    # the target is a constant
    loss = ad.tmean(err * err)
    loss.check_finite()
    opt.zero_grad()
    loss.backward()
    opt.step()
    return float(loss.value)


def select_action(net: QNetwork, obs: dict, eps: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy; ties resolve to the lowest action index."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0,1]")
    if rng.random() < eps:
        return int(rng.integers(N_ACTIONS))
    return int(np.argmax(net.q_values(obs).q))


def _obs_dict(observation) -> dict:
    return {"bev": observation.bev.astype(np.float32),
            "lidar_grid": observation.lidar_grid.astype(np.float32)}


def evaluate_policy(policy, env_cfg: HighwayConfig, n_episodes: int = 20,
                    seeds=None) -> dict:
    """Run a deterministic policy (obs dict -> action) over fresh episodes.

    crash_freq is crashes per environment step.
    """
    if seeds is None:
        seeds = [10_000 + i for i in range(n_episodes)]
    if len(seeds) == 0:
        raise ValueError(f"evaluation needs at least one episode, got "
                         f"n_episodes={n_episodes} and no seeds")
    env = HighwayEnv(env_cfg)
    total_speed, steps, crashes = 0.0, 0, 0
    rewards = []
    for seed in seeds:
        obs = env.reset(seed=seed)
        ep_reward, done = 0.0, False
        while not done:
            action = policy(_obs_dict(obs))
            obs, r, done, info = env.step(action)
            ep_reward += r
            total_speed += info["speed"]
            steps += 1
            if info["crashed"]:
                crashes += 1
        rewards.append(ep_reward)
    return {"avg_reward": sum(rewards) / len(seeds),
            "avg_speed": total_speed / steps,
            "crash_freq": crashes / steps,
            "episode_rewards": rewards}


def evaluate(net: QNetwork, env_cfg: HighwayConfig | None = None,
             n_episodes: int = 20, seeds=None) -> dict:
    """Greedy (eps=0) evaluation of a Q-network."""
    env_cfg = env_cfg or HighwayConfig()
    return evaluate_policy(lambda obs: int(np.argmax(net.q_values(obs).q)),
                           env_cfg, n_episodes, seeds)


@dataclass
class MetricsRow:
    step: int
    seed: int
    avg_reward: float
    avg_speed: float
    crash_freq: float
    eps: float
    train_loss: float


def run_training(net: QNetwork, cfg: TrainConfig,
                 env_cfg: HighwayConfig | None = None
                 ) -> Iterator[MetricsRow]:
    """Full DQN run for one seed, yielding each checkpoint's metrics row as
    it lands.  It trains only while iterated: the steps up to a checkpoint
    run when its row is asked for.

    Bit-reproducible for a fixed (cfg, net seed): every stream of randomness
    is derived from cfg.seed.
    """
    env_cfg = env_cfg or HighwayConfig()
    ss = np.random.SeedSequence(cfg.seed)
    act_rng, sample_rng, ep_seeds = [np.random.default_rng(s)
                                     for s in ss.spawn(3)]

    target = QNetwork(net.cfg)
    target.copy_parameters_from(net)
    opt = Adam(net.parameters(), lr=cfg.lr)
    buffer = ReplayBuffer(cfg.buffer_capacity)
    env = HighwayEnv(env_cfg)

    def new_episode():
        return _obs_dict(env.reset(seed=int(ep_seeds.integers(2 ** 31))))

    # each frame is converted once: next_obs is the next transition's obs
    obs = new_episode()
    last_loss = float("nan")
    for step in range(1, cfg.total_steps + 1):
        eps = cfg.epsilon(step)
        action = select_action(net, obs, eps, act_rng)
        nxt, reward, done, _ = env.step(action)
        nxt = _obs_dict(nxt)
        buffer.push(Transition(obs, action, reward, nxt, done))
        obs = new_episode() if done else nxt

        if step > cfg.warmup_steps and step % cfg.train_every == 0:
            loss = train_step(net, target, buffer, cfg, opt, sample_rng)
            if loss is not None:
                last_loss = loss
        if step % cfg.target_update_every == 0:
            target.copy_parameters_from(net)
        if step % cfg.checkpoint_every == 0 or step == cfg.total_steps:
            metrics = evaluate(net, env_cfg, cfg.eval_episodes)
            yield MetricsRow(step, cfg.seed, metrics["avg_reward"],
                             metrics["avg_speed"], metrics["crash_freq"],
                             eps, last_loss)
