import dataclasses
import hashlib

import numpy as np
import pytest

from sfqn import autodiff as ad
from sfqn import train
from sfqn.autodiff import Tensor
from sfqn.config import ABLATION_MATRIX, parse_config
from sfqn.highway import FASTER, HighwayConfig, HighwayEnv
from sfqn.qnet import N_ACTIONS, NetworkConfig, QNetwork
from sfqn.train import (Adam, ReplayBuffer, TrainConfig, Transition,
                        bellman_target, evaluate_policy, run_training,
                        select_action, train_step)


def tiny_net(seed=0, **overrides):
    base = dict(obs_hw=(8, 8), conv_channels=(2, 4), c_emb=8, n_heads=2,
                d_ff=16, fc_hidden=16, dec_hidden=8, t_steps=3, seed=seed)
    base.update(overrides)
    return QNetwork(NetworkConfig(**base))


def rand_obs(seed=0, hw=8):
    rng = np.random.default_rng(seed)
    return {"bev": rng.random((1, hw, hw)),
            "lidar_grid": rng.random((1, hw, hw))}


class _StubNet:
    """Fixed Q-values; enough interface for select_action / bellman_target."""

    def __init__(self, q):
        self.q = np.asarray(q, dtype=np.float64)
        self.cfg = NetworkConfig(obs_hw=(8, 8))

    def q_values(self, obs):
        class _Out:
            pass
        out = _Out()
        out.q = self.q
        return out

    def forward(self, bev, lidar):
        return Tensor(np.tile(self.q, (bev.shape[0], 1))), None


def test_transition_validation():
    obs = rand_obs()
    with pytest.raises(ValueError):
        Transition(obs, 7, 0.0, obs, False)
    with pytest.raises(ValueError):
        Transition(obs, 1, float("nan"), obs, False)


def test_transition_rejects_non_integral_action():
    obs = rand_obs()
    Transition(obs, np.int64(2), 0.0, obs, False)
    for action in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="not an integer"):
            Transition(obs, action, 0.0, obs, False)


@pytest.mark.parametrize("action", [True, False])
def test_transition_rejects_a_bool_action(action):
    # bool is an int subclass; True would be stored as action 1
    obs = rand_obs()
    with pytest.raises(ValueError, match="not an integer"):
        Transition(obs, action, 0.0, obs, False)


def test_transition_action_bound_is_n_actions():
    obs = rand_obs()
    Transition(obs, N_ACTIONS - 1, 0.0, obs, False)
    for action in (-1, N_ACTIONS):
        with pytest.raises(ValueError):
            Transition(obs, action, 0.0, obs, False)


@pytest.mark.parametrize("action", [True, 2.0, np.float64(2), -1, N_ACTIONS,
                                    2, np.int64(2)])
def test_env_and_transition_share_one_action_rule(action):
    def accepts(call):
        try:
            call()
        except ValueError:
            return False
        return True

    env = HighwayEnv(HighwayConfig(n_vehicles=0))
    obs = rand_obs()
    env.reset(seed=0)
    assert accepts(lambda: env.step(action)) == accepts(
        lambda: Transition(obs, action, 0.0, obs, False))


def test_replay_buffer_ring_eviction():
    buf = ReplayBuffer(100)
    obs = rand_obs()
    for i in range(250):
        buf.push(Transition(obs, 0, float(i), obs, False))
    assert len(buf) == 100
    rewards = {t.reward for t in buf._data}
    assert rewards == set(map(float, range(150, 250)))   # oldest 150 evicted


def test_replay_buffer_underfull_sampling_rejected():
    buf = ReplayBuffer(10)
    buf.push(Transition(rand_obs(), 0, 0.0, rand_obs(), False))
    with pytest.raises(ValueError):
        buf.sample(2, np.random.default_rng(0))


def test_bellman_target_hand_cases():
    obs = rand_obs()
    target = _StubNet([2.0, 1.0, 0.0, -1.0, 0.5])
    terminal = [Transition(obs, 0, 1.0, obs, True)]
    assert bellman_target(terminal, target, 0.99) == pytest.approx([1.0])
    live = [Transition(obs, 0, 1.0, obs, False)]
    assert bellman_target(live, target, 0.99) == pytest.approx([2.98])
    assert bellman_target(live, target, 0.5) == pytest.approx([2.0])


def test_bellman_gamma_zero_not_representable():
    with pytest.raises(ValueError):
        TrainConfig(gamma=0.0)          # gamma must stay inside (0,1)


def test_select_action_greedy_and_ties():
    rng = np.random.default_rng(0)
    obs = rand_obs()
    assert select_action(_StubNet([0.0, 3.0, 1.0, 3.0, 2.0]), obs, 0.0, rng) == 1
    assert select_action(_StubNet([1.0, 1.0, 1.0, 1.0, 1.0]), obs, 0.0, rng) == 0
    with pytest.raises(ValueError):
        select_action(_StubNet([0.0] * 5), obs, 1.5, rng)


def test_select_action_uniform_at_eps_one():
    rng = np.random.default_rng(42)
    net = _StubNet([0.0, 0.0, 0.0, 0.0, 9.0])
    obs = rand_obs()
    n = 10_000
    counts = np.bincount([select_action(net, obs, 1.0, rng)
                          for _ in range(n)], minlength=5)
    expect = n / 5
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert np.all(np.abs(counts - expect) <= 3 * sigma)


def test_epsilon_schedule_linear():
    cfg = TrainConfig(total_steps=1000, eps_fraction=0.3)
    span = 300
    assert cfg.epsilon(0) == 1.0
    assert cfg.epsilon(span) == pytest.approx(0.05)
    assert cfg.epsilon(span // 2) == pytest.approx((1.0 + 0.05) / 2, abs=2e-3)
    assert cfg.epsilon(10 * span) == pytest.approx(0.05)


def test_train_step_skips_shy_buffer():
    net = tiny_net()
    tgt = tiny_net(seed=1)
    buf = ReplayBuffer(10)
    cfg = TrainConfig(batch=4)
    opt = Adam(net.parameters())
    assert train_step(net, tgt, buf, cfg, opt, np.random.default_rng(0)) is None


def test_single_transition_overfit_converges():
    net = tiny_net()
    tgt = tiny_net()
    tgt.copy_parameters_from(net)
    obs = rand_obs(0)
    buf = ReplayBuffer(10)
    buf.push(Transition(obs, 2, 1.0, obs, True))
    cfg = TrainConfig(batch=1, lr=5e-3)
    opt = Adam(net.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(0)
    loss = None
    for _ in range(500):
        loss = train_step(net, tgt, buf, cfg, opt, rng)
        if loss < 1e-3:
            break
    assert loss < 1e-3


def test_train_step_leaves_target_untouched_and_updates_membership():
    net = tiny_net()
    tgt = tiny_net()
    tgt.copy_parameters_from(net)
    tgt_digest = tgt.parameter_digest()
    before = net.banks["m1"]._log_ab.value.copy()
    buf = ReplayBuffer(10)
    rng = np.random.default_rng(0)
    for i in range(4):
        obs = rand_obs(i)
        # the probe only works if the spiking path is active for this input
        with ad.no_grad():
            _, lam = net.forward(obs["bev"][None], obs["lidar_grid"][None])
        assert np.abs(lam.value[0]).max() > 0.0
        buf.push(Transition(obs, i % 5, 1.0, rand_obs(i + 1), False))
    cfg = TrainConfig(batch=4, lr=1e-2)
    opt = Adam(net.parameters(), lr=cfg.lr)
    loss = train_step(net, tgt, buf, cfg, opt, rng)
    assert loss is not None and np.isfinite(loss)
    assert tgt.parameter_digest() == tgt_digest
    after = net.banks["m1"]._log_ab.value
    assert np.any(after != before)          # end-to-end gradient reached banks


def test_evaluate_faster_policy_on_empty_road():
    cfg = HighwayConfig(n_vehicles=0, ego_speed=30.0, horizon=10)
    metrics = evaluate_policy(lambda obs: FASTER, cfg, n_episodes=3)
    assert metrics["avg_speed"] == cfg.v_max
    assert metrics["crash_freq"] == 0.0
    assert metrics["avg_reward"] == pytest.approx(cfg.horizon * cfg.w_speed)


def test_evaluate_rejects_empty_evaluation():
    cfg = HighwayConfig(horizon=5)
    for empty in ({"n_episodes": 0}, {"seeds": []}):
        with pytest.raises(ValueError, match="at least one episode"):
            evaluate_policy(lambda obs: FASTER, cfg, **empty)


def test_evaluate_deterministic():
    cfg = HighwayConfig(horizon=15)
    policy = lambda obs: FASTER
    a = evaluate_policy(policy, cfg, n_episodes=4)
    b = evaluate_policy(policy, cfg, n_episodes=4)
    assert a == b


def test_evaluate_crash_freq_counts_by_construction():
    # dense slow traffic + full-throttle policy: recount crashes and steps
    # with an independent rollout of the same seeds
    cfg = HighwayConfig(lanes=2, n_vehicles=12, horizon=40)
    seeds = list(range(6))
    policy = lambda obs: FASTER
    metrics = evaluate_policy(policy, cfg, n_episodes=len(seeds), seeds=seeds)

    env = HighwayEnv(cfg)
    crashes, steps = 0, 0
    for seed in seeds:
        env.reset(seed=seed)
        done = False
        while not done:
            _, _, done, info = env.step(FASTER)
            steps += 1
            crashes += int(info["crashed"])
    assert crashes > 0                      # the construction does crash
    assert metrics["crash_freq"] == crashes / steps


def test_run_training_reproducible_and_checkpoints():
    ncfg = dict(obs_hw=(8, 8), conv_channels=(2, 4), c_emb=8, n_heads=2,
                d_ff=16, fc_hidden=16, dec_hidden=8, t_steps=2, seed=0)
    tcfg = TrainConfig(batch=8, buffer_capacity=200, target_update_every=20,
                       total_steps=60, warmup_steps=10, checkpoint_every=30,
                       eval_episodes=2, seed=3)
    ecfg = HighwayConfig(grid_size=8, horizon=20, n_vehicles=3,
                         lidar_sectors=8)

    def run():
        net = QNetwork(NetworkConfig(**ncfg))
        return list(run_training(net, tcfg, ecfg))

    rows1 = run()
    rows2 = run()
    assert rows1 == rows2                   # bit-reproducible
    assert [r.step for r in rows1] == [30, 60]
    assert all(np.isfinite(r.train_loss) for r in rows1)


# A short run of every variant on a tiny grid: sha256 prefixes of the final
# parameter digest and of the metrics rows.  Training is bit-reproducible,
# so any change here is a change in behaviour.  On this grid the `fuzzy`
# and `gaussian` heads stay silent (their rows coincide), while Q of
# `fuzzy_ws`, `rate` and `nonspiking` depends on the input; the surrogate
# gradient still trains every parameter of the silent variants.
RUN_CFG = parse_config(
    "grid_size = 8\nconv_channels = 2,4\nc_emb = 8\nn_heads = 2\nd_ff = 16\n"
    "fc_hidden = 16\ndec_hidden = 8\nt_steps = 2\nbatch = 8\n"
    "buffer_capacity = 200\ntarget_update_every = 20\ntotal_steps = 60\n"
    "warmup_steps = 10\ncheckpoint_every = 30\neval_episodes = 2\n"
    "horizon = 20\nn_vehicles = 3\nlidar_sectors = 8\n")
RUN_PINS = {
    "fuzzy": ("4a80f48ccbb83dd8", "388ff6d79f157ab3"),
    "fuzzy_ws": ("4820180fea9f40b1", "54cdcb37d963514b"),
    "nonspiking": ("68bcc1584cb2c2f3", "5fef944d1e28d0e1"),
    "gaussian": ("27022adf9bb3df8f", "388ff6d79f157ab3"),
    "rate": ("7e6c849928807e36", "f0651e7ac5f7c1bd"),
}


@pytest.mark.parametrize("variant", ABLATION_MATRIX)
def test_run_training_golden_pin(variant):
    net = QNetwork(RUN_CFG.network_config(0, variant))
    rows = run_training(net, RUN_CFG.train_config(3), RUN_CFG.env_config())
    rows_sha = hashlib.sha256(
        repr([dataclasses.astuple(r) for r in rows]).encode()).hexdigest()
    assert (net.parameter_digest()[:16], rows_sha[:16]) == RUN_PINS[variant]


def test_run_training_stores_each_frame_once(monkeypatch):
    buffers = []

    class CapturedBuffer(ReplayBuffer):
        def __init__(self, capacity):
            super().__init__(capacity)
            buffers.append(self)

    monkeypatch.setattr(train, "ReplayBuffer", CapturedBuffer)
    net = QNetwork(RUN_CFG.network_config(0, "nonspiking"))
    list(run_training(net, RUN_CFG.train_config(3), RUN_CFG.env_config()))
    data = buffers[0]._data
    assert len(data) == RUN_CFG.total_steps     # no ring wrap-around
    ends = [tr.terminal for tr in data[:-1]]
    assert any(ends)                            # episodes do end in the run
    for tr, nxt, end in zip(data, data[1:], ends):
        # within an episode a frame is one dict shared by both transitions
        assert (tr.next_obs is nxt.obs) == (not end)


def test_run_training_yields_each_row_as_it_lands(monkeypatch):
    steps, evaluated = [0], []          # training env steps; at each eval
    real_step, real_evaluate = HighwayEnv.step, train.evaluate

    def step(self, action):
        steps[0] += 1
        return real_step(self, action)

    def evaluate(*args):
        evaluated.append(steps[0])
        metrics = real_evaluate(*args)
        steps[0] = evaluated[-1]        # evaluation episodes do not count
        return metrics

    monkeypatch.setattr(HighwayEnv, "step", step)
    monkeypatch.setattr(train, "evaluate", evaluate)
    tcfg = RUN_CFG.train_config(3)
    rows = run_training(QNetwork(RUN_CFG.network_config(0, "nonspiking")),
                        tcfg, RUN_CFG.env_config())
    assert steps == [0]                 # nothing runs until iterated
    first = next(rows)
    assert first.step == steps[0] == tcfg.checkpoint_every
    assert evaluated == [tcfg.checkpoint_every]
    assert [row.step for row in rows] == [tcfg.total_steps]
    assert steps == [tcfg.total_steps]
