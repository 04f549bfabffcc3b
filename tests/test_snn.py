from dataclasses import replace

import numpy as np
import pytest

from oracles import grad_check, soft_spikes, ternary_scores_addonly
from sfqn import autodiff as ad
from sfqn.autodiff import Tensor
from sfqn.snn import (ConvLifBlock, CrossFusionLayer, Embedding, FcLifHead,
                      Neuron)

BIN = Neuron(kind="lif", tau_m=2.0, theta_pos=1.0)


def _steps(t: int) -> Neuron:
    return replace(BIN, t_steps=t)


def _repeat(x: np.ndarray, t: int) -> Tensor:
    """The same (B, ...) input at each of t steps, T-major."""
    return Tensor(np.concatenate([x] * t))


def _alphabet(values, allowed):
    return set(np.unique(values)) <= set(allowed)


def test_lif_constant_drive_one_spike_per_step():
    # v: 0 -> 1 -> spike -> reset to 0, at every step
    s = _steps(4).step(Tensor(np.full((4, 1), 2.0)))
    assert s.value.tolist() == [[1.0]] * 4


def test_lif_ternary_negative_arm():
    neuron = Neuron(kind="lif", tau_m=2.0, theta_pos=1.0, theta_neg=-4.0,
                    t_steps=2)
    # step 1: v = -5 <= -4 fires the negative arm in both samples and the
    # subtractive reset leaves v = -5 - (-4) = -1.  Step 2 then fires only
    # for drive 3.5 (v = -1 + 4.5/2 = 1.25), not 2.9 (v = 0.95); a reset to
    # 0 would fire both, no reset (v = -5) neither.
    x = Tensor(np.array([[-10.0, -10.0], [3.5, 2.9]]))
    s = neuron.step(x)
    assert s.value.tolist() == [[-1.0, -1.0], [1.0, 0.0]]


def test_lif_silent_without_drive():
    assert _steps(10).step(Tensor(np.zeros((30,)))).value.sum() == 0.0


def test_lif_subthreshold_accumulation():
    # v_t converges to x from below: x=0.9 never reaches theta=1
    s = _steps(50).step(Tensor(np.full((50, 1), 0.9)))
    assert not np.any(s.value)


def test_lif_leading_axis_not_multiple_of_t_raises():
    n = _steps(3)
    with pytest.raises(ad.ShapeError, match="multiple of 3"):
        n.step(Tensor(np.ones((4, 3))))
    assert n.step(Tensor(np.ones((6, 3)))).shape == (6, 3)


def test_relu_mode_is_stateless():
    n = Neuron(kind="relu")
    out = n.step(Tensor(np.array([-1.0, 0.5])))
    assert np.array_equal(out.value, [0.0, 0.5])
    assert n.step(Tensor(np.array([[2.0]]))).value.tolist() == [[2.0]]


def test_conv_lif_zero_in_zero_out():
    rng = np.random.default_rng(0)
    block = ConvLifBlock(2, 3, 3, 1, 1, _steps(5), rng)
    s = block.step(Tensor(np.zeros((5, 2, 4, 4))))
    assert s.shape == (5, 3, 4, 4)
    assert s.value.sum() == 0.0


def test_conv_lif_identity_kernel_propagates_spike():
    rng = np.random.default_rng(0)
    block = ConvLifBlock(1, 1, 1, 1, 0, BIN, rng)
    block.kernels.value[:] = 2.0          # current 2 -> v=1 -> immediate spike
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 2] = 1.0
    s = block.step(Tensor(x))
    assert s.value[0, 0, 1, 2] == 1.0
    assert s.value.sum() == 1.0           # same location, same step


def test_conv_lif_alphabet_and_state_reset():
    rng = np.random.default_rng(1)
    block = ConvLifBlock(2, 4, 3, 2, 1, _steps(3), rng, gain=10.0)
    x = _repeat((rng.random((1, 2, 8, 8)) < 0.5).astype(float), 3)
    first = block.step(x).value
    assert _alphabet(first, (0.0, 1.0))
    # every call starts at rest: no state leaks from the first call
    assert np.array_equal(block.step(x).value, first)


def test_embedding_shape_and_mismatch():
    rng = np.random.default_rng(0)
    emb = Embedding(4, 16, 8, BIN, rng, gain=10.0)
    tokens = emb.step(Tensor((rng.random((2, 4, 4, 4)) < 0.5).astype(float)))
    assert tokens.shape == (2, 16, 8)
    assert _alphabet(tokens.value, (0.0, 1.0))
    with pytest.raises(ad.ShapeError):
        emb.step(Tensor(np.zeros((1, 4, 3, 3))))


def test_ternary_scores_addonly_matches_matmul_with_zero_mults():
    rng = np.random.default_rng(5)
    q = rng.choice([-1.0, 0.0, 1.0], size=(6, 8))
    k = rng.choice([-1.0, 0.0, 1.0], size=(7, 8))
    with ad.count_mults() as c:
        scores, used = ternary_scores_addonly(q, k)
    assert used == 0
    assert c.mults == 0
    assert np.array_equal(scores, q @ k.T)
    with pytest.raises(ValueError):
        ternary_scores_addonly(np.array([[0.5]]), np.array([[1.0]]))


def test_ternary_single_head_raw_score_is_width():
    d = 8
    scores, _ = ternary_scores_addonly(np.ones((1, d)), np.ones((1, d)))
    assert scores[0, 0] == d


def test_cross_fusion_zero_inputs():
    rng = np.random.default_rng(0)
    cfl = CrossFusionLayer(8, 2, 16, _steps(2), theta_neg=-4.0, rng=rng)
    e1, e2 = Tensor(np.zeros((2, 4, 8))), Tensor(np.zeros((2, 4, 8)))
    out = cfl.step(e1, e2)
    # zero tokens -> zero Q/K currents -> no spikes -> zero scores
    for name, tokens in (("q1", e1), ("k1", e1), ("q2", e2), ("k2", e2)):
        qk = cfl.qk_neuron.step(tokens @ cfl.proj[name])
        assert not np.any(qk.value)
    # residual path is zero too; biases are zero, so nothing crosses threshold
    assert out.value.sum() == 0.0


def test_cross_fusion_output_alphabet_and_qk_ternary():
    rng = np.random.default_rng(2)
    cfl = CrossFusionLayer(8, 2, 16, _steps(3), theta_neg=-4.0, rng=rng,
                           gain=10.0)
    e1 = _repeat((rng.random((2, 9, 8)) < 0.5).astype(float), 3)
    e2 = _repeat((rng.random((2, 9, 8)) < 0.5).astype(float), 3)
    out = cfl.step(e1, e2)
    assert out.shape == (6, 9, 8)
    assert _alphabet(out.value, (0.0, 1.0))
    for name, tokens in (("q1", e1), ("k1", e1), ("q2", e2), ("k2", e2)):
        qk = cfl.qk_neuron.step(tokens @ cfl.proj[name]).value
        assert qk.shape == (6, 9, 8)
        assert _alphabet(qk, (-1.0, 0.0, 1.0))
    with pytest.raises(ad.ShapeError):
        cfl.step(e1, Tensor(np.zeros((6, 4, 8))))


def test_cross_fusion_keeps_no_state():
    # a call leaves the layer's attributes as they were, and one binary and
    # one ternary neuron rule serve every spiking sublayer
    rng = np.random.default_rng(4)
    cfl = CrossFusionLayer(8, 2, 16, _steps(2), theta_neg=-4.0, rng=rng,
                           gain=10.0)
    before = dict(vars(cfl))
    cfl.step(_repeat(np.ones((1, 4, 8)), 2), _repeat(np.ones((1, 4, 8)), 2))
    assert vars(cfl).keys() == before.keys()
    assert all(vars(cfl)[key] is value for key, value in before.items())
    neurons = {k: v for k, v in vars(cfl).items() if isinstance(v, Neuron)}
    assert sorted(neurons) == ["neuron", "qk_neuron"]
    assert neurons["qk_neuron"].theta_neg == -4.0
    assert neurons["neuron"].theta_neg is None


def test_cross_fusion_state_isolation():
    # a multi-step call equals its first samples' call: rows of one sample
    # never see another sample's membranes, and no call sees a previous one
    rng = np.random.default_rng(3)
    cfl = CrossFusionLayer(8, 2, 16, _steps(3), theta_neg=-4.0, rng=rng,
                           gain=10.0)
    x1 = (rng.random((2, 4, 8)) < 0.5).astype(float)
    x2 = (rng.random((2, 4, 8)) < 0.5).astype(float)
    both = cfl.step(_repeat(x1, 3), _repeat(x2, 3)).value
    first = cfl.step(_repeat(x1[:1], 3), _repeat(x2[:1], 3)).value
    assert np.array_equal(both[0::2], first)


def test_fc_head_zero_input_zero_spikes():
    rng = np.random.default_rng(0)
    head = FcLifHead(12, 6, _steps(2), rng)
    s = head.step(Tensor(np.zeros((2, 4, 3))))
    assert s.shape == (2, 6)
    assert s.value.sum() == 0.0
    with pytest.raises(ad.ShapeError):
        head.step(Tensor(np.zeros((3, 4, 3))))


def test_fc_head_deterministic():
    rng = np.random.default_rng(4)
    head = FcLifHead(12, 6, _steps(4), rng, gain=10.0)
    x = _repeat((rng.random((1, 4, 3)) < 0.5).astype(float), 4)
    assert np.array_equal(head.step(x).value, head.step(x).value)


def test_fc_head_spike_count_monotone_in_weight_scale():
    # brute-force over a 4-unit toy layer: scaling positive weights x10
    # cannot decrease the total spike count on a fixed positive input
    rng = np.random.default_rng(6)
    x = rng.random((1, 1, 4))

    def total_spikes(scale):
        head = FcLifHead(4, 4, _steps(5), np.random.default_rng(6))
        head.w.value = np.abs(head.w.value) * scale
        return head.step(_repeat(x, 5)).value.sum()

    assert total_spikes(10.0) >= total_spikes(1.0)


def test_surrogate_differentiability_two_layer_toy():
    # loss gradient through a 2-layer spiking stack (T=2) is finite and
    # matches finite differences of the surrogate-forward equivalent
    rng = np.random.default_rng(0)
    x = (rng.random((1, 6)) < 0.5).astype(float)
    w2 = rng.standard_normal((4, 3))

    def loss(w1):
        n1, n2 = _steps(2), _steps(2)
        return ad.tsum(n2.step(n1.step(_repeat(x, 2) @ w1) @ Tensor(w2)))

    with soft_spikes():
        err = grad_check(loss, rng.standard_normal((6, 4)))
    assert err < 1e-3

    # and the hard-forward gradient is finite
    w1 = Tensor(rng.standard_normal((6, 4)))
    out = loss(w1)
    out.backward()
    assert np.all(np.isfinite(w1.grad))
