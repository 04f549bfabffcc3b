"""The benchmark's three workloads, driven through sfqn's public API.

Each workload has three parts:

* ``build()`` is one set-up: network, target and optimizer construction
  and the warm-up buffer fill.  ``run.py`` times it, with the imports, in
  several fresh processes.
* ``prepare(state, tally)`` runs the exact counts and golden checks on
  seed-independent inputs, then warms up outside the timed region.
* ``measure(state, seed, clock, tally)`` runs the timed loop on inputs
  drawn from ``seed`` until ``clock`` says the time is up.

``tail_q`` is the percentile gated as ``op_ms.tail``: the highest of p75,
p95 and p99 that leaves at least ten of a run's unit operations beyond it.

Golden values (parameter digest after fixed updates, eval episode rewards)
and the counts come from fixed seeds, so they are identical across all
runs of one commit whatever ``--seed`` is.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from sfqn import config, highway, qnet, train

import counts

DEFAULTS = config.ExperimentConfig()     # the default network, env and DQN
FILL_SEED = 0            # stream of the warm-up buffer fill
GOLDEN_SEED = 1          # replay-sampling stream of the golden updates
GOLDEN_UPDATES = 2
WARMUP_S = 2.0           # untimed updates until the allocator settles
PROBE_SEEDS = range(64)  # env.reset seeds of the B=64 probe batch
EVAL_SEEDS = list(range(10_000, 10_020))


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def min_samples(q: float) -> int:
    """Samples a run needs so that at least ten lie beyond percentile q."""
    return math.ceil(round(10 / (1 - q / 100), 6))


class Clock:
    """Time limit of the measured loop.  With a recorder, tracing is
    switched on at the first unit boundary past half the time, so one run
    gives an untraced and a traced half.  An untraced run also goes on
    until it has `min_ops` unit operations."""

    def __init__(self, seconds: float, recorder, nets, min_ops: int):
        self.seconds = seconds
        self.recorder = recorder
        self.nets = nets
        self.min_ops = min_ops
        self.traced = False
        self.t0 = time.perf_counter()
        self.t_traced = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def boundary(self) -> None:
        if (self.recorder is not None and not self.traced
                and self.elapsed() >= self.seconds / 2):
            self.t_traced = time.perf_counter()
            self.recorder.install(self.nets)
            self.traced = True

    def enough(self, ops: int) -> bool:
        return self.recorder is not None or ops >= self.min_ops

    def done(self, ops: int) -> bool:
        return self.elapsed() >= self.seconds and self.enough(ops)


@dataclass
class Measured:
    """Outcome of one measured loop; index 0 is untraced, 1 traced."""
    op_ms: tuple[list[float], list[float]] = field(
        default_factory=lambda: ([], []))
    steps: list[int] = field(default_factory=lambda: [0, 0])
    seconds: list[float] = field(default_factory=lambda: [0.0, 0.0])
    act_ms: tuple[list[float], list[float]] = field(
        default_factory=lambda: ([], []))
    golden: dict = field(default_factory=dict)
    protocols: int = 0                # eval-fuzzy: completed protocols

    def close(self, clock: Clock) -> None:
        end = time.perf_counter()
        if clock.traced:
            self.seconds[0] = clock.t_traced - clock.t0
            self.seconds[1] = end - clock.t_traced
        else:
            self.seconds[0] = end - clock.t0


def _new_episode(env, rng) -> highway.Observation:
    return env.reset(seed=int(rng.integers(2 ** 31)))


def _streams(seed: int):
    """Action, replay-sampling and episode-seed generators for one run."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(3)]


def _fill(env, buffer, n: int, net) -> highway.Observation:
    """Random-policy (ε = 1) transitions into `buffer` from the fixed fill
    stream."""
    rng = np.random.default_rng(FILL_SEED)
    obs = _new_episode(env, rng)
    for _ in range(n):
        obs_d = train._obs_dict(obs)
        action = train.select_action(net, obs_d, 1.0, rng)
        nxt, reward, done, _ = env.step(action)
        buffer.push(train.Transition(obs_d, action, reward,
                                     train._obs_dict(nxt), done))
        obs = _new_episode(env, rng) if done else nxt
    return obs


def _time_acts(net, clock: Clock, out: Measured) -> None:
    """Time every greedy B=1 action through an instance-level q_values.

    The class attribute is looked up on each call so that the traced half
    records its spans.  A non-finite Q value fails the action.
    """
    def q_values(obs):
        clock.boundary()
        t = time.perf_counter()
        qv = type(net).q_values(net, obs)
        ms = (time.perf_counter() - t) * 1e3
        if not np.all(np.isfinite(qv.q)):
            raise FloatingPointError("non-finite Q value")
        out.act_ms[clock.traced].append(ms)
        return qv
    net.q_values = q_values


def _probe_batch(n: int):
    env = highway.HighwayEnv(DEFAULTS.env_config())
    obs = [train._obs_dict(env.reset(seed=s)) for s in PROBE_SEEDS][:n]
    return (np.stack([o["bev"] for o in obs]).astype(np.float64),
            np.stack([o["lidar_grid"] for o in obs]).astype(np.float64))


# ---------------------------------------------------------------------------
# dqn-fuzzy / dqn-nonspiking: the run_training loop body at eps_end
# ---------------------------------------------------------------------------

class Dqn:
    op = "update"
    rate = "dqn_steps_per_s"
    unit_span = "train.train_step"
    scope_span = "train.train_step"

    def __init__(self, variant: str, tail_q: float):
        self.variant = variant
        self.tail_q = tail_q

    def build(self):
        net = qnet.QNetwork(DEFAULTS.network_config(0, self.variant))
        target = qnet.QNetwork(net.cfg)
        target.copy_parameters_from(net)
        tc = DEFAULTS.train_config(0)
        opt = train.Adam(net.parameters(), lr=tc.lr)
        buffer = train.ReplayBuffer(tc.buffer_capacity)
        env = highway.HighwayEnv(DEFAULTS.env_config())
        _fill(env, buffer, tc.warmup_steps, net)
        return SimpleNamespace(net=net, target=target, tc=tc, opt=opt,
                               buffer=buffer, env=env, nets=(net, target))

    def _update(self, st, rng, tally) -> None:
        try:
            loss = train.train_step(st.net, st.target, st.buffer, st.tc,
                                    st.opt, rng)
        except Exception as err:        # a failed update counts; keep going
            loss = err
        tally.check(isinstance(loss, float) and math.isfinite(loss),
                    f"warm-up train_step: {loss!r}")

    def prepare(self, st, tally) -> dict:
        golden = counts.probe(st.net, *_probe_batch(st.tc.batch), tally)
        rng = np.random.default_rng(GOLDEN_SEED)
        t = time.perf_counter()
        self._update(st, rng, tally)
        st.warmup = {"first_update_ms": (time.perf_counter() - t) * 1e3}
        for _ in range(GOLDEN_UPDATES - 1):
            self._update(st, rng, tally)
        golden["parameter_digest"] = st.net.parameter_digest()
        n = GOLDEN_UPDATES
        while time.perf_counter() - t < WARMUP_S:
            self._update(st, rng, tally)
            n += 1
        st.warmup.update(updates=n, seconds=time.perf_counter() - t)
        return golden

    def measure(self, st, seed: int, clock: Clock, tally) -> Measured:
        out = Measured()
        act_rng, sample_rng, ep_rng = _streams(seed)
        _time_acts(st.net, clock, out)
        obs = _new_episode(st.env, ep_rng)
        step = st.tc.warmup_steps          # env steps taken by the fill
        while not clock.done(len(out.op_ms[0])):
            clock.boundary()
            step += 1
            try:
                obs_d = train._obs_dict(obs)
                action = train.select_action(st.net, obs_d, st.tc.eps_end,
                                             act_rng)
                nxt, reward, done, _ = st.env.step(action)
                st.buffer.push(train.Transition(obs_d, action, reward,
                                                train._obs_dict(nxt), done))
                obs = _new_episode(st.env, ep_rng) if done else nxt
                t = time.perf_counter()
                loss = train.train_step(st.net, st.target, st.buffer, st.tc,
                                        st.opt, sample_rng)
                ms = (time.perf_counter() - t) * 1e3
                if step % st.tc.target_update_every == 0:
                    st.target.copy_parameters_from(st.net)
            except Exception as err:    # a failed step counts; keep measuring
                tally.check(False, f"dqn step {step}: {err!r}")
                obs = _new_episode(st.env, ep_rng)
                continue
            ok = loss is not None and math.isfinite(loss)
            tally.check(ok, f"dqn step {step}: loss {loss}")
            if ok:
                out.op_ms[clock.traced].append(ms)
                out.steps[clock.traced] += 1
        out.close(clock)
        del st.net.q_values
        return out


# ---------------------------------------------------------------------------
# eval-fuzzy: the 20-episode greedy protocol
# ---------------------------------------------------------------------------

class Eval:
    op = "act"
    rate = "eval_steps_per_s"
    unit_span = "qnet.QNetwork.q_values"
    scope_span = "qnet.QNetwork.q_values"
    tail_q = 99

    def build(self):
        net = qnet.QNetwork(DEFAULTS.network_config(0, "fuzzy"))
        return SimpleNamespace(net=net, env_cfg=DEFAULTS.env_config(),
                               nets=(net,))

    def prepare(self, st, tally) -> dict:
        return counts.probe(st.net, *_probe_batch(1), tally)

    def measure(self, st, seed: int, clock: Clock, tally) -> Measured:
        out = Measured()
        out.op_ms = out.act_ms              # the unit operation is one act
        k = seed % len(EVAL_SEEDS)      # the seed only rotates episode order
        order = EVAL_SEEDS[k:] + EVAL_SEEDS[:k]
        _time_acts(st.net, clock, out)
        cfg = st.env_cfg
        while True:
            t = time.perf_counter()
            acts_before = sum(map(len, out.act_ms))
            try:
                m = train.evaluate(st.net, cfg, len(order), seeds=order)
            except Exception as err:
                tally.check(False, f"evaluate: {err!r}")
                break
            protocol_s = time.perf_counter() - t
            out.protocols += 1
            tally.attempted += sum(map(len, out.act_ms)) - acts_before
            out.steps = [len(a) for a in out.act_ms]    # one act per env step
            by_seed = dict(zip(order, m["episode_rewards"]))
            rewards = [by_seed[s] for s in EVAL_SEEDS]
            tally.check(0.0 <= m["crash_freq"] <= 1.0,
                        f"crash_freq {m['crash_freq']} outside [0,1]")
            tally.check(cfg.v_min <= m["avg_speed"] <= cfg.v_max,
                        f"avg_speed {m['avg_speed']} outside speed limits")
            tally.check(all(math.isfinite(r) for r in rewards),
                        "non-finite episode reward")
            golden = out.golden.setdefault("episode_rewards", rewards)
            tally.check(rewards == golden, "episode rewards differ between "
                                           "protocols of one run")
            if (clock.seconds - clock.elapsed() < protocol_s / 2
                    and clock.enough(len(out.act_ms[0]))):
                break                   # whole protocols, nearest count
        out.close(clock)
        del st.net.q_values
        return out


WORKLOADS = {
    "dqn-fuzzy": Dqn("fuzzy", tail_q=75),
    "dqn-nonspiking": Dqn("nonspiking", tail_q=95),
    "eval-fuzzy": Eval(),
}
