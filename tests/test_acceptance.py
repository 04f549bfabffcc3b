"""Acceptance gate.

Criteria 1-8 run in the default suite and each print one PASS line.
Criteria 9-10 are directional training comparisons (3 seeds x 60k steps at
32x32 observations); they take hours-to-days on a desktop CPU and are marked
`slow`, excluded from the default run (`pytest -m slow` opts in).
"""

import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from oracles import (centroid_positions, decode_centroid, grad_check,
                     soft_spikes)
from sfqn import autodiff as ad
from sfqn.analysis import capacity
from sfqn.autodiff import Tensor
from sfqn.cli import main
from sfqn.config import ExperimentConfig
from sfqn.fuzzy import (MembershipBank, NeuralDecoder, if_spike_train,
                        membership_eval)
from sfqn.highway import IDLE, HighwayConfig, HighwayEnv, VehicleState
from sfqn.qnet import NetworkConfig, QNetwork, count_multiplications
from sfqn.snn import Neuron
from sfqn.train import (Adam, ReplayBuffer, TrainConfig, Transition,
                        bellman_target, run_training, train_step)

WORKED_BANK = np.array([(0.0, 0.2, 0.4), (0.3, 0.5, 0.7), (0.6, 0.8, 1.0)])


def _ok(n: int, text: str) -> None:
    print(f"\nACCEPTANCE PASS - criterion {n}: {text}")


def test_criterion_1_worked_example_fidelity():
    bank = MembershipBank("triangular", 3, WORKED_BANK)
    assert np.allclose(membership_eval(bank, 0.35).value,
                       [0.25, 0.25, 0.0], atol=1e-9)
    assert np.allclose(membership_eval(bank, 0.75).value,
                       [0.0, 0.0, 0.75], atol=1e-9)
    _ok(1, "membership worked examples exact at 1e-9")


def test_criterion_2_encoder_rate_bound():
    rng = np.random.default_rng(0)
    degrees = rng.random(1000)
    for t in (5, 10, 50):
        spikes = if_spike_train(Tensor(degrees), t)
        rates = spikes.value.reshape(t, -1).sum(axis=0) / t
        assert np.all(np.abs(rates - degrees) <= 1 / t + 1e-12)
    _ok(2, "IF spike rate within 1/T of 1000 random degrees, T in {5,10,50}")


def test_criterion_3_capacity_formulas():
    grid = list(itertools.product((1, 3), (4, 16), (4, 16), (1, 5, 10),
                                  (1, 3), (1, 5)))
    assert len(grid) >= 50
    for c, h, w, t, n, m in grid:
        rep = capacity(c, h, w, t, n, m)
        assert rep.raw_bits == 32 * c * h * w
        assert rep.rate_bits == t * c * h * w
        assert rep.pop_bits == n * t * c * h * w
        assert rep.q_raw_bits == 32 and rep.q_pop_bits == m * t
        assert rep.pop_over_rate == n
    _ok(3, f"capacity closed forms exact on {len(grid)}-point grid")


# criterion 4's shape grid: overrides of a small base network; test_qnet
# builds its networks from the same base and grid
C4_BASE = dict(obs_hw=(8, 8), conv_channels=(2, 4), c_emb=8, n_heads=2,
               d_ff=16, fc_hidden=16, dec_hidden=8, t_steps=3, seed=0)
C4_SHAPES = [
    dict(), dict(obs_hw=(16, 16)), dict(obs_hw=(11, 13)),
    dict(conv_kernel=5, conv_padding=2),
    dict(conv_stride=1, obs_hw=(6, 6), fc_hidden=8),
    dict(n_membership=2), dict(n_membership=4, obs_hw=(10, 10)),
    dict(variant="gaussian"), dict(variant="rate"),
    dict(variant="rate", obs_hw=(16, 16)), dict(variant="nonspiking"),
    dict(conv_channels=(4, 4), obs_hw=(12, 12)),
]


def test_criterion_4_cost_model_agreement():
    assert len(C4_SHAPES) >= 10
    for overrides in C4_SHAPES:
        cfg = NetworkConfig(**{**C4_BASE, **overrides})
        counts = count_multiplications(QNetwork(cfg))
        assert counts["encoder"]["analytic"] == counts["encoder"]["measured"]
        assert (counts["first_conv"]["analytic"]
                == counts["first_conv"]["measured"])
    _ok(4, f"instrumented = analytic multiply counts on {len(C4_SHAPES)} shapes")


def test_criterion_4_counts_are_the_cli_cost_table(tmp_path):
    # the analytic side of criterion 4 is the table `sfqn analyze-cost`
    # prints for the network's config
    cfg_path, csv_path = tmp_path / "exp.cfg", tmp_path / "cost.csv"
    checked = 0
    for overrides in C4_SHAPES:
        net_cfg = NetworkConfig(**{**C4_BASE, **overrides})
        h, w = net_cfg.obs_hw
        if h != w:                  # a config's grid_size is square
            continue
        keys = {k: v for k, v in {**C4_BASE, **overrides}.items()
                if k not in ("obs_hw", "seed")}
        exp = dataclasses.replace(ExperimentConfig(), seeds=(net_cfg.seed,),
                                  grid_size=h, **keys)
        assert exp.network_config(net_cfg.seed) == net_cfg
        cfg_path.write_text(exp.serialize())
        assert main(["analyze-cost", "--config", str(cfg_path),
                     "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            table = {stage: int(v) for stage, v in list(csv.reader(fh))[1:]}
        counts = count_multiplications(QNetwork(net_cfg))
        assert table == {"encoder": counts["encoder"]["analytic"],
                         "first_conv": counts["first_conv"]["analytic"],
                         "decoder_overhead": counts["decoder_overhead"]}
        checked += 1
    assert checked == len(C4_SHAPES) - 1


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(0)

    # membership parameters, away from kinks
    points = np.array([0.1, 0.35, 0.55, 0.75, 0.95])

    def memb_loss(free):
        bank = MembershipBank.__new__(MembershipBank)
        bank.kind = "triangular"
        bank.n = 3
        bank._a = _slice(free, 0, 3)
        bank._log_ab = _slice(free, 3, 6)
        bank._log_bc = _slice(free, 6, 9)
        mu = membership_eval(bank, points)
        return ad.tsum(mu * mu)

    base = MembershipBank("triangular", 3, WORKED_BANK)
    free0 = np.concatenate([t.value for t in base.parameters()])
    assert grad_check(memb_loss, free0) < 1e-3

    # conv kernels
    x = rng.random((2, 5, 5))
    assert grad_check(
        lambda k: ad.tsum(ad.conv2d(Tensor(x), k, 1, 1)),
        rng.standard_normal((3, 2, 3, 3))) < 1e-3

    # fully connected weights (through a ReLU, away from the kink)
    inp = rng.standard_normal((4, 6)) + 0.3
    assert grad_check(
        lambda w: ad.tsum(ad.relu(Tensor(inp) @ w + 0.05)),
        rng.standard_normal((6, 3))) < 1e-3

    # decoder weights
    dec = NeuralDecoder(m=5, n_actions=5, hidden=8, rng=rng)
    lam = rng.random((3, 25))

    def dec_loss(w1):
        h = ad.relu(Tensor(lam) @ w1 + dec.b1)
        q = h @ dec.w2 + dec.b2
        return ad.tsum(q * q)

    assert grad_check(dec_loss, dec.w1.value.copy()) < 1e-3

    # surrogate spikes on a 2-layer toy over T=2 steps, one multi-step call
    # per layer, so the fused recurrence's backpropagation through time is
    # checked (against the surrogate forward, the documented contract)
    spikes_in = (rng.random((1, 6)) < 0.5).astype(float)
    w2 = rng.standard_normal((4, 3))

    def toy_loss(w1):
        n1, n2 = Neuron(t_steps=2), Neuron(t_steps=2)
        x = Tensor(np.concatenate([spikes_in] * 2))     # same input each step
        return ad.tsum(n2.step(n1.step(x @ w1) @ Tensor(w2)))

    with soft_spikes():
        assert grad_check(toy_loss, rng.standard_normal((6, 4))) < 1e-3
    _ok(5, "FD checks pass at 1e-3 for membership/conv/FC/decoder/surrogate")


def _slice(t: Tensor, lo: int, hi: int) -> Tensor:
    picker = np.zeros((t.shape[0], hi - lo))
    picker[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    out = ad.reshape(t, (1, t.shape[0])) @ Tensor(picker)
    return ad.reshape(out, (hi - lo,))


def test_criterion_6_decoder_oracle():
    m, a = 5, 5
    rng = np.random.default_rng(0)
    dec = NeuralDecoder(m=m, n_actions=a, hidden=64, rng=rng)
    positions = centroid_positions(m)
    opt = Adam(dec.parameters(), lr=3e-3)
    final = None
    for _ in range(2000):
        lam = rng.random((64, m * a))
        target = np.stack([decode_centroid(row, positions) for row in lam])
        err = dec(Tensor(lam)) - Tensor(target)
        loss = ad.tmean(err * err)
        opt.zero_grad()
        loss.backward()
        opt.step()
        final = float(loss.value)
    assert final < 1e-3

    for _ in range(1000):
        lam = rng.random((a, m)) + 1e-9
        k = rng.uniform(0.01, 100.0)
        assert np.allclose(decode_centroid(k * lam, positions),
                           decode_centroid(lam, positions))
        half = rng.random((a, 2))
        sym = np.concatenate([half, rng.random((a, 1)), half[:, ::-1]], axis=1)
        assert np.allclose(decode_centroid(sym, positions), 0.0)
    _ok(6, f"decoder regression MSE {final:.2e} < 1e-3; "
           "centroid invariances hold on 1000 random activations")


def test_criterion_7_dqn_correctness():
    # bellman hand cases against a stub target network
    class _Stub:
        def forward(self, bev, lidar):
            return Tensor(np.tile([2.0, 1.0, 0.0, -1.0, 0.5],
                                  (bev.shape[0], 1))), None

    obs = {"bev": np.zeros((1, 8, 8)), "lidar_grid": np.zeros((1, 8, 8))}
    assert bellman_target([Transition(obs, 0, 1.0, obs, True)],
                          _Stub(), 0.99) == pytest.approx([1.0])
    assert bellman_target([Transition(obs, 0, 1.0, obs, False)],
                          _Stub(), 0.99) == pytest.approx([2.98])

    # single-transition overfit
    ncfg = NetworkConfig(obs_hw=(8, 8), conv_channels=(2, 4), c_emb=8,
                         n_heads=2, d_ff=16, fc_hidden=16, dec_hidden=8,
                         t_steps=3, seed=0)
    net, tgt = QNetwork(ncfg), QNetwork(ncfg)
    tgt.copy_parameters_from(net)
    rng = np.random.default_rng(0)
    tr_obs = {"bev": rng.random((1, 8, 8)), "lidar_grid": rng.random((1, 8, 8))}
    buf = ReplayBuffer(10)
    buf.push(Transition(tr_obs, 2, 1.0, tr_obs, True))
    tcfg = TrainConfig(batch=1, lr=5e-3)
    opt = Adam(net.parameters(), lr=tcfg.lr)
    loss, steps = None, 0
    for steps in range(1, 501):
        loss = train_step(net, tgt, buf, tcfg, opt, rng)
        if loss < 1e-3:
            break
    assert loss < 1e-3

    # ring-buffer eviction: capacity 100, 250 inserts
    ring = ReplayBuffer(100)
    for i in range(250):
        ring.push(Transition(obs, 0, float(i), obs, False))
    assert len(ring) == 100
    assert {t.reward for t in ring._data} == set(map(float, range(150, 250)))
    _ok(7, f"bellman exact; overfit to {loss:.1e} in {steps} steps; "
           "ring eviction holds")


def test_criterion_8_environment_determinism_and_physics():
    # byte-exact reproducibility
    def rollout():
        env = HighwayEnv()
        env.reset(seed=5)
        frames = []
        for _ in range(30):
            obs, r, done, _ = env.step(IDLE)
            frames.append((obs.bev.tobytes(), obs.lidar_grid.tobytes(), r))
            if done:
                break
        return frames

    assert rollout() == rollout()

    # closed-form crash time
    cfg = HighwayConfig(n_vehicles=0)
    env = HighwayEnv(cfg)
    env.reset(seed=0)
    gap0, v_lead = 30.0, 12.0
    env.vehicles.append(VehicleState(env.ego_lane, gap0, v_lead))
    k = math.ceil((gap0 - cfg.vehicle_length)
                  / ((cfg.ego_speed - v_lead) * cfg.dt))
    info = None
    for step in range(1, k + 1):
        _, _, done, info = env.step(IDLE)
        assert info["crashed"] == (step == k)
    assert done

    # reward bounds over 10k random steps
    rng = np.random.default_rng(0)
    env = HighwayEnv()
    steps, episode = 0, 0
    while steps < 10_000:
        env.reset(seed=episode)
        episode += 1
        done = False
        while not done and steps < 10_000:
            _, r, done, _ = env.step(int(rng.integers(5)))
            assert -env.cfg.w_crash <= r <= env.cfg.w_speed
            steps += 1
    _ok(8, f"determinism byte-exact; crash at step {k} as computed; "
           "reward bounds hold over 10k steps")


# ---------------------------------------------------------------------------
# criteria 9-10: directional training results (slow suite)
# ---------------------------------------------------------------------------

_RESULTS: dict[str, float] = {}


def _final_avg_reward(variant: str) -> float:
    """Mean final-checkpoint avg_reward over the 3 seeds (cached)."""
    if variant not in _RESULTS:
        cfg = ExperimentConfig(variant=variant)
        finals = []
        for seed in cfg.seeds:
            net = QNetwork(cfg.network_config(seed, variant))
            *_, last = run_training(net, cfg.train_config(seed),
                                    cfg.env_config())
            finals.append(last.avg_reward)
        _RESULTS[variant] = float(np.mean(finals))
    return _RESULTS[variant]


@pytest.mark.slow
def test_criterion_9_directional_performance():
    fuzzy = _final_avg_reward("fuzzy")
    nonspiking = _final_avg_reward("nonspiking")
    rate = _final_avg_reward("rate")
    assert fuzzy >= 0.9 * nonspiking
    assert fuzzy > rate
    _ok(9, f"fuzzy {fuzzy:.3f} >= 0.9 x nonspiking {nonspiking:.3f} "
           f"and > rate {rate:.3f}")


@pytest.mark.slow
def test_criterion_10_ablation_direction():
    fuzzy = _final_avg_reward("fuzzy")
    fuzzy_ws = _final_avg_reward("fuzzy_ws")
    assert fuzzy >= fuzzy_ws
    _ok(10, f"fuzzy+neural {fuzzy:.3f} >= fuzzy+weighted-sum {fuzzy_ws:.3f}")
