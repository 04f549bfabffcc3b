import contextlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import grad_check, soft_spikes
from sfqn import autodiff as ad
from sfqn import snn
from sfqn.autodiff import Tensor


def test_matmul_identity():
    eye = np.eye(2)
    out = ad.matmul(Tensor(eye), Tensor(eye))
    assert np.array_equal(out.value, eye)


def test_matmul_hand_case():
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
    assert np.array_equal(out.value, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_matmul_grad_is_ones_bt():
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    a = Tensor(np.ones((2, 3)))
    out = ad.tsum(a @ Tensor(b))
    out.backward()
    assert np.allclose(a.grad, np.ones((2, 2)) @ b.T)
    # finite-difference oracle on the same function
    err = grad_check(lambda x: ad.tsum(x @ Tensor(b)), np.ones((2, 3)))
    assert err < 1e-3


def test_matmul_stacked_weight_gradient_is_slice_sum():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((3, 4, 6)))
    w = Tensor(rng.standard_normal((6, 2)))
    g = rng.standard_normal((3, 4, 2))
    (a @ w).backward(g)
    ref = sum(a.value[t].T @ g[t] for t in range(3))
    assert np.allclose(w.grad, ref, rtol=1e-12, atol=0)
    assert np.allclose(a.grad, g @ w.value.T, rtol=1e-12, atol=0)

    w1 = Tensor(w.value[None])                  # (1,k,n): broadcast weight
    (a @ w1).backward(g)
    assert w1.grad.shape == (1, 6, 2)
    assert np.allclose(w1.grad[0], ref, rtol=1e-12, atol=0)


def test_conv2d_trivial_broadcast_kernel():
    out = ad.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.full((1, 1, 1, 1), 2.0)))
    assert np.array_equal(out.value, np.full((1, 3, 3), 2.0))


def test_conv2d_extents_closed_form():
    assert ad.conv2d_extents(8, 8, 3, 1, 1) == (8, 8)
    for h in (5, 8, 13):
        for l in (1, 3, 5):
            for s in (1, 2, 3):
                for p in (0, 1, 2):
                    if h + 2 * p < l:
                        continue
                    h_out, _ = ad.conv2d_extents(h, h, l, s, p)
                    assert h_out == math.floor((h + 2 * p - l) / s) + 1


def _naive_conv2d(x, k, stride, pad, g):
    """Output, input gradient and kernel gradient of one (C,H,W) sample by
    explicit loops over output positions, for the output gradient `g`."""
    c_out, c, l, _ = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    dxp, dk = np.zeros_like(xp), np.zeros_like(k)
    h_out, w_out = ad.conv2d_extents(x.shape[1], x.shape[2], l, stride, pad)
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                win = (slice(None), slice(i * stride, i * stride + l),
                       slice(j * stride, j * stride + l))
                out[o, i, j] = np.sum(xp[win] * k[o])
                dxp[win] += g[o, i, j] * k[o]
                dk[o] += g[o, i, j] * xp[win]
    return out, dxp[:, pad:pad + x.shape[1], pad:pad + x.shape[2]], dk


def test_conv2d_matches_naive_loop():
    """Forward, dx and dk against loops, batched and unbatched, including
    stride > kernel and taps that fall wholly in the padding."""
    rng = np.random.default_rng(3)
    for shape in ((2, 6, 7), (3, 2, 6, 7)):
        for l, stride, pad in ((3, 2, 1), (3, 1, 0), (2, 3, 1), (3, 2, 3),
                               (1, 2, 2)):
            x = rng.standard_normal(shape)
            k = rng.standard_normal((3, 2, l, l))
            xt, kt = Tensor(x), Tensor(k)
            out = ad.conv2d(xt, kt, stride, pad)
            g = rng.standard_normal(out.shape)
            out.backward(g)

            samples = [_naive_conv2d(xs, k, stride, pad, gs)
                       for xs, gs in zip(x.reshape((-1, 2, 6, 7)),
                                         g.reshape((-1,) + g.shape[-3:]))]
            ref_out, ref_dx, ref_dk = (np.stack([s[i] for s in samples])
                                       for i in range(3))
            assert np.allclose(out.value, ref_out.reshape(out.shape))
            assert np.allclose(xt.grad, ref_dx.reshape(shape))
            assert np.allclose(kt.grad, ref_dk.sum(axis=0))


CONV_CASES = [(shape, l, stride, pad) for shape in ((2, 6, 7), (3, 2, 6, 7))
              for l, stride, pad in ((3, 2, 1), (3, 1, 0), (2, 3, 1), (3, 2, 3),
                                     (1, 2, 2))]


def _conv_grads(shape, l, stride, pad):
    """dx and dk of one seeded conv2d backward."""
    rng = np.random.default_rng(l * 100 + stride * 10 + pad)
    xt = Tensor(rng.standard_normal(shape))
    kt = Tensor(rng.standard_normal((3, 2, l, l)))
    out = ad.conv2d(xt, kt, stride, pad)
    out.backward(rng.standard_normal(out.shape))
    return xt.grad, kt.grad


@pytest.mark.parametrize("shape,l,stride,pad", CONV_CASES)
def test_conv2d_blocked_backward_is_bitwise_unblocked(monkeypatch, shape, l,
                                                      stride, pad):
    """The blocked backward equals one block over the whole batch, for one
    sample per block and for blocks that leave an uneven remainder."""
    h_out, w_out = ad.conv2d_extents(6, 7, l, stride, pad)
    per_sample = 2 * l * l * h_out * w_out          # patch entries of a sample
    monkeypatch.setattr(ad, "SPIKE_BLOCK", 1 << 40)
    ref_dx, ref_dk = _conv_grads(shape, l, stride, pad)
    # one sample per block (also at an exact fit), then blocks of 2 and 1
    for block in (1, per_sample, 2 * per_sample + 1):
        monkeypatch.setattr(ad, "SPIKE_BLOCK", block)
        dx, dk = _conv_grads(shape, l, stride, pad)
        assert np.array_equal(dx, ref_dx), block
        assert np.array_equal(dk, ref_dk), block


def test_conv2d_backward_allocates_only_block_buffers():
    """dx, dk and the per-sample kernel-gradient stack are full size; the
    patch gradients and the scatter index exist only per block."""
    rng = np.random.default_rng(0)
    b, c, c_out = 32, 4, 4
    xt = Tensor(rng.standard_normal((b, c, 16, 16)))
    kt = Tensor(rng.standard_normal((c_out, c, 3, 3)))
    out = ad.conv2d(xt, kt, 1, 1)
    seed = rng.standard_normal(out.shape)
    patches = b * c * 9 * 16 * 16 * 8           # bytes of all patch entries
    full = xt.value.nbytes + (b + 1) * kt.value.nbytes
    slack = 3 * 8 * ad.SPIKE_BLOCK
    assert full + slack < patches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out.backward(seed)
        used = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert used <= full + slack


def _dense_conv2d(x, k, stride, pad, g):
    """Reference out, dx and dk of the dense im2col path: every sample's
    patches are gathered and multiplied, live or not."""
    c_out, c, l, _ = k.shape
    b, (h, w) = math.prod(x.shape[:-3]), x.shape[-2:]
    h_out, w_out = ad.conv2d_extents(h, w, l, stride, pad)
    taps = np.arange(l)[:, None]
    r = (stride * np.arange(h_out) + taps - pad)[:, None, :, None]
    q = (stride * np.arange(w_out) + taps - pad)[None, :, None, :]
    cell = np.arange(c)[:, None, None, None, None] * (h * w) + r * w + q
    inside = (r >= 0) & (r < h) & (q >= 0) & (q < w)
    idx = np.where(inside, cell, c * h * w).reshape(c * l * l, h_out * w_out)
    n = c * h * w + 1
    slots = np.zeros((b, n))
    slots[:, :-1] = x.reshape(b, n - 1)
    cols = np.take(slots, idx, axis=1)
    kmat = k.reshape(c_out, c * l * l)
    gmat = g.reshape(b, c_out, h_out * w_out)
    dk = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(0).reshape(k.shape)
    index = (idx + n * np.arange(b)[:, None, None]).ravel()
    dx = np.bincount(index, weights=np.matmul(kmat.T, gmat).ravel(),
                     minlength=b * n).reshape(b, n)[:, :-1]
    return np.matmul(kmat, cols).reshape(g.shape), dx.reshape(x.shape), dk


def _same_bits(a, b) -> bool:
    """Equal shapes and bytes: tells -0.0 from 0.0 and matches NaN."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _spike_batch(rng, shape, dead):
    """{0, 1} spikes with the samples in `dead` all zero."""
    x = (rng.random(shape) < 0.1).astype(np.float64)
    x[list(dead)] = 0.0
    return x


LIVE_ROW_CASES = {
    "dead_rows": lambda rng: _spike_batch(rng, (6, 3, 7, 6), (0, 2, 3)),
    "all_dead": lambda rng: np.zeros((4, 3, 7, 6)),
    "all_live": lambda rng: rng.standard_normal((4, 3, 7, 6)),
    "negative_zero_row": lambda rng: np.where(
        np.arange(5)[:, None, None, None] == 1, -0.0,
        _spike_batch(rng, (5, 3, 7, 6), (3,))),
    "int8_spikes": lambda rng: _spike_batch(
        rng, (6, 3, 7, 6), (1, 4)).astype(ad.SPIKE_DTYPE),
    "unbatched": lambda rng: _spike_batch(rng, (3, 7, 6), ()),
    "unbatched_dead": lambda rng: np.zeros((3, 7, 6)),
}


@pytest.mark.parametrize("case", list(LIVE_ROW_CASES))
@pytest.mark.parametrize("l,stride,pad", [(3, 2, 1), (3, 1, 0), (2, 3, 1)])
def test_conv2d_live_rows_bitwise_dense(case, l, stride, pad):
    """Gathering and multiplying only the samples with a nonzero input
    gives the dense path's forward, dx and dk bit for bit."""
    rng = np.random.default_rng(7)
    x = LIVE_ROW_CASES[case](rng)
    k = rng.standard_normal((4, 3, l, l))
    xt, kt = Tensor(x), Tensor(k)
    out = ad.conv2d(xt, kt, stride, pad)
    g = rng.standard_normal(out.shape)
    out.backward(g)
    ref_out, ref_dx, ref_dk = _dense_conv2d(x, k, stride, pad, g)
    assert _same_bits(out.value, ref_out)
    assert _same_bits(xt.grad, ref_dx)
    assert _same_bits(kt.grad, ref_dk)


def test_conv2d_nan_row_is_live_and_counts_are_dense():
    rng = np.random.default_rng(8)
    x = _spike_batch(rng, (4, 2, 6, 6), (0, 1, 3))
    x[1, 0, 2, 2] = np.nan                    # the only nonzero of sample 1
    k = rng.standard_normal((3, 2, 3, 3))
    with ad.count_mults() as counter:
        out = ad.conv2d(Tensor(x), Tensor(k), 1, 1)
    assert counter.mults == 4 * 3 * 36 * 2 * 9     # B*Cout*Ho*Wo*C*l*l
    assert np.isnan(out.value[1]).any()
    assert not out.value[[0, 3]].any()
    ref_out, _, _ = _dense_conv2d(x, k, 1, 1, np.zeros(out.shape))
    assert _same_bits(out.value, ref_out)


@pytest.mark.parametrize("stride,pad", [(0, 1), (-1, 0), (1, -1)])
def test_conv2d_rejects_bad_stride_or_padding(stride, pad):
    with pytest.raises(ad.ShapeError, match="stride"):
        ad.conv2d(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))),
                  stride, pad)


def test_conv2d_kernel_gradient_fd():
    rng = np.random.default_rng(0)
    x = rng.random((2, 5, 5))
    err = grad_check(
        lambda kt: ad.tsum(ad.conv2d(Tensor(x), kt, stride=1, padding=1)),
        rng.standard_normal((3, 2, 3, 3)))
    assert err < 1e-3


def test_conv2d_kernel_too_large():
    with pytest.raises(ad.ShapeError):
        ad.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))))


def test_surrogate_spike_tie_and_slope():
    u = Tensor(np.array([1.0]))
    s = ad.surrogate_spike(u, threshold=1.0, alpha=2.0)
    assert s.value[0] == 1.0          # >= threshold fires
    s.backward(np.ones(1))
    assert u.grad[0] == pytest.approx(1.0)   # alpha/2 at the threshold, alpha=2

    u = Tensor(np.array([0.5]))
    s = ad.surrogate_spike(u, threshold=1.0, alpha=3.0)
    s.backward(np.ones(1))
    assert u.grad[0] == pytest.approx(
        (3.0 / 2) / (1 + (math.pi * 3.0 * (-0.5) / 2) ** 2))


def test_surrogate_spike_saturation():
    u = Tensor(np.array([-50.0]))
    s = ad.surrogate_spike(u, threshold=1.0, alpha=2.0)
    assert s.value[0] == 0.0
    s.backward(np.ones(1))
    assert abs(u.grad[0]) < 1e-4


def test_spike_producers_emit_int8():
    """Spikes are int8, ternary ones included, and those of a constant
    input, which keeps no membranes."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(0.5, 2.0, (6, 5)))
    outs = [ad.surrogate_spike(x), ad.surrogate_spike_below(x, -1.0),
            ad.spike_recurrence(x, 3, 1.0, -1.0, 2.0),
            ad.spike_recurrence(x.value, 2, repeat=True)]
    assert [o.value.dtype for o in outs] == [ad.SPIKE_DTYPE] * 4
    assert set(np.unique(outs[2].value)) == {-1, 0, 1}


def test_products_and_sums_of_int8_spikes_are_float64():
    """A product or a reduction of int8 spikes computes in float64, also
    where an int8 result would overflow; a sum of two spike tensors stays
    int8."""
    s = np.ones((2, 300), ad.SPIKE_DTYPE)
    for out in (ad.matmul(s, s.T), ad.tsum(s, axis=1)):
        assert out.value.dtype == np.float64 and np.all(out.value == 300.0)
    assert (Tensor(s) + Tensor(s)).value.dtype == ad.SPIKE_DTYPE


def test_surrogate_alpha_must_be_positive():
    with pytest.raises(ValueError):
        ad.surrogate_spike(Tensor(np.zeros(1)), 1.0, 0.0)


# (theta_pos, theta_neg, tau): binary LIF, ternary LIF, integrate-and-fire,
# a ternary LIF whose theta_pos is not 1, so the reset multiplies, and a
# ternary integrate-and-fire
NEURON_KINDS = {"binary": (1.0, None, 2.0), "ternary": (1.0, -4.0, 2.0),
                "if": (1.0, None, None), "ternary_1.3": (1.3, -2.5, 2.0),
                "ternary_if": (1.0, -2.5, None)}


def _per_step_reference(xs, theta_pos, theta_neg, tau, alpha):
    """The unfused graph: one leaf per step and elementwise ops per step."""
    v = Tensor(np.zeros(xs[0].shape))
    spikes = []
    for x in xs:
        v = v + x if tau is None else v + (x - v) * (1.0 / tau)
        s = ad.surrogate_spike(v, theta_pos, alpha)
        v = v - s * theta_pos
        if theta_neg is not None:
            s_neg = ad.surrogate_spike_below(v, theta_neg, alpha)
            v = v - s_neg * theta_neg
            s = s - s_neg
        spikes.append(s)
    return spikes


def _check_against_per_step_graph(x, t, b, kind, soft, seed, repeat=False):
    """Fused spikes equal the per-step graph's (bitwise for hard spikes),
    the input gradient agrees within 1e-12, and a `no_grad` forward gives
    bitwise the graph-mode spikes.  With `repeat`, `x` is one (b, ...)
    drive, and the reference feeds the same leaf to every step."""
    theta_pos, theta_neg, tau = NEURON_KINDS[kind]
    with soft_spikes() if soft else contextlib.nullcontext():
        leaves = ([Tensor(x)] * t if repeat
                  else [Tensor(x[i * b:(i + 1) * b]) for i in range(t)])
        ref = _per_step_reference(leaves, theta_pos, theta_neg, tau, 2.0)
        ad.tsum(ad.concat(ref, axis=0) * seed).backward()
        fused_in = Tensor(x)
        fused = ad.spike_recurrence(fused_in, t, theta_pos, theta_neg, tau, 2.0,
                                    repeat)
        ad.tsum(fused * seed).backward()
        with ad.no_grad():
            inferred = ad.spike_recurrence(x, t, theta_pos, theta_neg, tau, 2.0,
                                           repeat)
    assert np.array_equal(inferred.value, fused.value)
    ref_out = np.concatenate([s.value for s in ref])
    ref_grad = (leaves[0].grad if repeat
                else np.concatenate([leaf.grad for leaf in leaves]))
    if soft:
        assert np.allclose(fused.value, ref_out, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(fused.value, ref_out)
        assert np.any(fused.value != 0)
    scale = np.max(np.abs(ref_grad))
    assert scale > 0
    assert np.max(np.abs(fused_in.grad - ref_grad)) <= 1e-12 * scale


@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("t", [1, 2, 5])
@pytest.mark.parametrize("kind", list(NEURON_KINDS))
def test_spike_recurrence_matches_per_step_graph(kind, t, b, soft):
    rng = np.random.default_rng(t * 10 + b)
    x = rng.normal(0.5, 6.0, (t * b, 2, 3))
    _check_against_per_step_graph(x, t, b, kind, soft,
                                  rng.standard_normal(x.shape))


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("kind", list(NEURON_KINDS))
@pytest.mark.parametrize("block", [6, 12])
def test_spike_recurrence_blocks_match_per_step_graph(monkeypatch, block, kind,
                                                      soft, transposed):
    # 6 neurons per sample: blocks of 1 sample, or of 2, 2 and a remainder 1
    monkeypatch.setattr(ad, "SPIKE_BLOCK", block)
    t, b = 3, 5
    rng = np.random.default_rng(block)
    x = rng.normal(0.5, 6.0, (t * b, 2, 3))
    if transposed:              # same values, not C-contiguous
        x = np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)
        assert not x.flags.c_contiguous
    _check_against_per_step_graph(x, t, b, kind, soft,
                                  rng.standard_normal(x.shape))


@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("t", [1, 2, 5])
@pytest.mark.parametrize("kind", list(NEURON_KINDS))
def test_spike_recurrence_repeat_matches_per_step_graph(kind, t, b, soft):
    # backward rebuilds the membranes from the drive
    rng = np.random.default_rng(t * 10 + b)
    x = rng.normal(0.5, 6.0, (b, 2, 3))
    _check_against_per_step_graph(x, t, b, kind, soft,
                                  rng.standard_normal((t * b, 2, 3)), True)


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("kind", list(NEURON_KINDS))
@pytest.mark.parametrize("block", [6, 12])
def test_spike_recurrence_repeat_blocks_match_per_step_graph(
        monkeypatch, block, kind, soft, transposed):
    # 6 neurons per sample: blocks of 1 sample, or of 2, 2 and a remainder 1
    monkeypatch.setattr(ad, "SPIKE_BLOCK", block)
    t, b = 3, 5
    rng = np.random.default_rng(block)
    x = rng.normal(0.5, 6.0, (b, 2, 3))
    if transposed:              # same values, not C-contiguous
        x = np.ascontiguousarray(x.transpose(2, 1, 0)).transpose(2, 1, 0)
        assert not x.flags.c_contiguous
    _check_against_per_step_graph(x, t, b, kind, soft,
                                  rng.standard_normal((t * b, 2, 3)), True)


def test_spike_recurrence_allocates_no_full_size_temporaries():
    # numpy reports its buffers to tracemalloc.  Each full-size float64
    # array is 4 MiB and the int8 spikes are an eighth of that; the slack
    # allows a few block buffers but not one more full-size array.  A node
    # keeps one full-size float64 array, its pre-threshold membranes (a
    # ternary node too: backward rebuilds its reset membranes), and a
    # repeated drive keeps none beyond the drive.  Backward allocates the
    # input gradient and block buffers, with a repeated drive also the
    # (T, block) buffer its membranes are rebuilt into.
    t, b = 4, 16
    rng = np.random.default_rng(0)
    x = rng.normal(0.5, 3.0, (t * b, 32, 16, 16))
    x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    seed = np.ones(x.shape)
    block = 8 * ad.SPIKE_BLOCK
    full, slack = x.nbytes, 8 * block
    spikes = full // 8
    assert slack < full

    def peak(run):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = run()
        return tracemalloc.get_traced_memory()[1] - start, out

    tracemalloc.start()
    try:
        for kind in ("binary", "ternary", "if", "ternary_1.3"):
            theta_pos, theta_neg, tau = NEURON_KINDS[kind]
            for repeat in (False, True):
                drive = x[:b] if repeat else x
                saved = 0 if repeat else full        # pre_pos
                with ad.no_grad():
                    used, _ = peak(lambda: ad.spike_recurrence(
                        drive, t, theta_pos, theta_neg, tau, repeat=repeat))
                assert used <= spikes + slack, (kind, repeat)
                xt = Tensor(drive)
                used, out = peak(lambda: ad.spike_recurrence(
                    xt, t, theta_pos, theta_neg, tau, repeat=repeat))
                assert used <= spikes + saved + slack, (kind, repeat)
                used, _ = peak(lambda: out.backward(seed))
                rebuilt = t * block if repeat else 0
                assert used <= drive.nbytes + rebuilt + slack, (kind, repeat)
                del out, xt
    finally:
        tracemalloc.stop()


def test_spike_recurrence_leading_axis_must_divide_by_t():
    with pytest.raises(ad.ShapeError, match="multiple of 2"):
        ad.spike_recurrence(Tensor(np.zeros((3, 4))), 2)
    with pytest.raises(ad.ShapeError):
        ad.spike_recurrence(Tensor(np.zeros((3, 4))), 0)
    with pytest.raises(ValueError):
        ad.spike_recurrence(Tensor(np.zeros((2, 4))), 2, alpha=0.0)


def test_split_steps_rejects_empty_window_and_ragged_rows():
    # row t*B + b is step t of sample b
    assert ad.split_steps((6, 4, 2), 3) == (3, 2, 4, 2)
    with pytest.raises(ad.ShapeError, match="window of 0 steps"):
        ad.split_steps((6, 4), 0)
    with pytest.raises(ad.ShapeError, match="not a multiple of 4 steps"):
        ad.split_steps((6, 4), 4)
    with pytest.raises(ad.ShapeError):
        ad.split_steps((), 1)


def _const_op_graph(wrap):
    """A scalar loss over two parameters and four wrapped inputs, through
    every op with more than one operand."""
    rng = np.random.default_rng(4)
    w = Tensor(rng.standard_normal((3, 4)))
    k = Tensor(rng.standard_normal((2, 1, 3, 3)))
    x, img, g, p = (wrap(rng.standard_normal(shape))
                    for shape in ((2, 3), (2, 1, 5, 5), (4,), (2, 4)))
    h = ad.concat([x @ w, p], axis=0) * 2.0 + 1.0
    h = ad.minimum(h, p.value.max()) - ad.maximum(0.5, h / 3.0)
    h = ad.layernorm(h, g, ad.as_tensor(np.zeros(4)))
    h = ad.reshape(h, (2, 2, 4)) / ad.exp(x @ w)
    conv = ad.conv2d(img, k, 2, 1)
    loss = ad.tsum(h * h) + ad.tmean(conv) - ad.tsum(ad.matmul(x.value, w))
    loss.backward()
    return loss, (w, k), (x, img, g, p)


def test_constants_take_no_gradient():
    loss, params, consts = _const_op_graph(ad.as_tensor)
    ref_loss, ref_params, ref_leaves = _const_op_graph(Tensor)
    assert loss.value == ref_loss.value
    for p, ref in zip(params, ref_params):      # bitwise the leaf-input graph
        assert np.array_equal(p.grad, ref.grad)
    assert all(c.constant and c.grad is None for c in consts)
    assert all(leaf.grad is not None for leaf in ref_leaves)
    # a node built only from constants records no graph
    two = ad.as_tensor(2.0)
    node = ad.tsum(consts[0] * two + 1.0)
    assert node.constant and node.parents == () and node._backward is None
    assert two.grad is None and not params[0].constant


def test_no_grad_records_no_graph_and_restores_flag():
    a = Tensor(np.array([1.0, -2.0]))
    with ad.no_grad():
        out = ad.tsum(ad.spike_recurrence(a * 3.0, 1) + a)
    assert out.parents == () and out._backward is None
    assert out.value == 0.0                    # spikes [1, 0] plus a
    graph = ad.tsum(a * 3.0)
    assert graph.parents                       # recording is back on
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert ad.tsum(a).parents                  # restored after the exception
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert ad.tsum(a).parents == ()        # nesting keeps the outer state


def test_a_value_computed_under_no_grad_stays_a_constant():
    a = Tensor(np.array([1.0, -2.0]))
    with ad.no_grad():
        frozen = a * 3.0
        leaf = Tensor(np.array([0.5, 0.5]))    # a leaf is a parameter anywhere
    assert frozen.constant and not leaf.constant
    prod = frozen * a
    assert prod.parents == (a._node,)          # frozen gets no node
    ad.tsum(prod + leaf).backward()
    assert frozen.grad is None and frozen.constant
    assert np.array_equal(a.grad, frozen.value)
    assert np.array_equal(leaf.grad, np.ones(2))
    with pytest.raises(ValueError, match="constant"):
        frozen.grad = np.ones(2)
    frozen.grad = None                         # clearing is a no-op
    with pytest.raises(ValueError, match="constant"):
        ad.tsum(frozen).backward()


def test_surrogate_derivative_is_computed_only_in_backward(monkeypatch):
    calls = []
    real = ad.arctan_surrogate_grad
    monkeypatch.setattr(ad, "arctan_surrogate_grad",
                        lambda *args: calls.append(1) or real(*args))
    u = Tensor(np.array([0.5, 1.5]))
    spikes = [ad.surrogate_spike(u), ad.surrogate_spike_below(u, -1.0),
              ad.spike_recurrence(u, 2)]
    assert calls == []
    for s in spikes:
        s.backward(np.ones(2))
    assert len(calls) == 4                     # one per step of the recurrence


def test_grad_check_quadratic():
    x = np.array([1.0, 2.0])
    xt = Tensor(x)
    out = ad.tsum(xt * xt)
    out.backward()
    assert np.allclose(xt.grad, [2.0, 4.0])
    assert grad_check(lambda t: ad.tsum(t * t), x) < 1e-4


def test_grad_check_surrogate_contract():
    # Through a spike the check compares against the surrogate derivative:
    # run both passes with the soft forward so they are consistent.
    with soft_spikes():
        err = grad_check(
            lambda t: ad.tsum(ad.surrogate_spike(t, 1.0, 2.0)),
            np.array([0.3, 0.9, 1.4]))
    assert err < 1e-3


def test_shared_subexpression_gradients_sum():
    # diamond: out = s + s with s = a*a  =>  d out / d a = 4a
    a = Tensor(np.array([3.0]))
    s = a * a
    out = s + s
    out.backward(np.ones(1))
    assert a.grad[0] == pytest.approx(12.0)


def test_diamond_graph_two_paths():
    a = Tensor(np.array([2.0]))
    b = a * 2.0
    c = a * 3.0
    out = ad.tsum(b + c)
    out.backward()
    assert a.grad[0] == pytest.approx(5.0)


def test_random_op_chain_fd_checks():
    # reverse-mode matches central differences at seeded points, away from
    # kinks (relu inputs offset from zero)
    rng = np.random.default_rng(42)
    w = rng.standard_normal((4, 3))

    def f(x):
        h = ad.relu(x @ Tensor(w) + 0.05)
        return ad.tsum(h * h) + ad.tmean(x) + ad.tsum(ad.exp(x * 0.1))

    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal((2, 4)) + 0.2
        worst = max(worst, grad_check(f, x))
    assert worst < 1e-3


def test_layernorm_matches_fd():
    rng = np.random.default_rng(7)
    g = Tensor(rng.random(5) + 0.5)
    b = Tensor(rng.standard_normal(5))
    def f(x):
        y = ad.layernorm(x, g, b)
        return ad.tsum(y * y)

    err = grad_check(f, rng.standard_normal((3, 5)))
    assert err < 1e-3


def test_rank_limit():
    with pytest.raises(ad.ShapeError):
        Tensor(np.zeros((1, 1, 1, 1, 1)))


def test_check_finite():
    with pytest.raises(ad.NumericError):
        Tensor(np.array([np.inf])).check_finite()


def test_backward_requires_scalar_without_seed():
    with pytest.raises(ad.ShapeError):
        (Tensor(np.ones(3)) * 2.0).backward()


def test_backward_seed_must_have_the_output_shape():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    out = a * 2.0
    for seed in (np.ones((3, 2)), np.ones(6), np.ones((1, 2, 3))):
        with pytest.raises(ad.ShapeError, match="seed of shape"):
            out.backward(seed)
    assert a.grad is None                      # nothing ran or was consumed
    out.backward(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(a.grad, 2.0 * np.arange(6.0).reshape(2, 3))


def _graph_nodes(out):
    """Every node reachable from `out` through parent links."""
    nodes, stack = {}, [out]
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t.parents)
    return list(nodes.values())


def test_backward_consumes_the_graph_and_leaves_keep_gradients():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((4, 3)))
    w = Tensor(rng.standard_normal((3, 2)))
    img = Tensor(rng.standard_normal((2, 1, 4, 4)))
    k = Tensor(rng.standard_normal((2, 1, 3, 3)))
    h = a @ w                                  # shared by two paths
    s = ad.spike_recurrence(ad.conv2d(img, k, 1, 1), 2)
    loss = ad.tsum(h * h) + ad.tsum(h) + ad.tsum(s)
    interior = [t for t in _graph_nodes(loss) if t.parents]
    assert len(interior) > 5
    loss.backward()
    for t in interior:
        assert t.grad is None and t.parents == ()
        assert t._backward is ad._consumed      # holds no closure
    dh = 2.0 * h.value + 1.0
    assert np.allclose(w.grad, a.value.T @ dh, rtol=1e-12, atol=0)
    assert np.allclose(a.grad, dh @ w.value.T, rtol=1e-12, atol=0)
    assert k.grad.shape == k.shape and img.grad.shape == img.shape
    with pytest.raises(ValueError, match="consumed"):
        loss.backward()
    with pytest.raises(ValueError, match="consumed"):
        ad.tsum(h * 3.0).backward()            # a new graph over a used node


def test_minimum_tie_goes_left():
    a, b = Tensor(np.array([1.0])), Tensor(np.array([1.0]))
    out = ad.tsum(ad.minimum(a, b))
    out.backward()
    assert a.grad[0] == 1.0 and b.grad[0] == 0.0


def test_maximum_tie_goes_left():
    a, b = Tensor(np.array([1.0, 2.0])), Tensor(np.array([1.0, 3.0]))
    ad.tsum(ad.maximum(a, b)).backward()
    assert a.grad.tolist() == [1.0, 0.0] and b.grad.tolist() == [0.0, 1.0]


def test_layer_values_are_freed_while_the_graph_lives(monkeypatch):
    """A ConvLifBlock's conv output and bias sum die when its step returns,
    because no backward rule holds them, and the spikes still backpropagate
    to the kernel and the bias with the gradients of a graph whose every
    intermediate is kept alive."""
    rng = np.random.default_rng(7)
    block = snn.ConvLifBlock(2, 3, 3, 1, 1, snn.Neuron(t_steps=2), rng,
                             gain=4.0)
    x = ad.as_tensor((rng.random((4, 2, 6, 6)) < 0.3).astype(float))
    seed = rng.standard_normal((4, 3, 6, 6))
    conv, spikes = ad.conv2d, ad.spike_recurrence

    def step(hold):
        with monkeypatch.context() as m:
            m.setattr(ad, "conv2d", lambda *args: hold(conv(*args)))
            m.setattr(ad, "spike_recurrence",
                      lambda cur, *args: spikes(hold(cur), *args))
            out = block.step(x)
        return out

    def grads(out):
        block.kernels.grad = block.bias.grad = None
        ad.tsum(out * seed).backward()
        return block.kernels.grad, block.bias.grad

    alive = []
    ref_k, ref_b = grads(step(lambda t: alive.append(t) or t))
    refs = []
    out = step(lambda t: refs.append(weakref.ref(t.value)) or t)
    assert len(refs) == 2 and all(r() is None for r in refs)
    k_grad, b_grad = grads(out)
    assert np.any(ref_k != 0.0) and np.any(ref_b != 0.0)
    assert np.array_equal(k_grad, ref_k) and np.array_equal(b_grad, ref_b)


def test_mult_counter_scopes():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with ad.count_mults() as c:
        a @ b
    assert c.mults == 2 * 3 * 4
    a @ b   # outside the context: not counted
    assert c.mults == 2 * 3 * 4


def test_count_mults_nests_and_restores_after_exception():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with ad.count_mults() as outer:
        a @ b
        with ad.count_mults() as inner:        # counts alone
            a @ b
            a @ b
        assert (outer.mults, inner.mults) == (24, 48)
        a @ b                                  # the outer block resumes
        with pytest.raises(RuntimeError):
            with ad.count_mults() as failed:
                a @ b
                raise RuntimeError("inside the block")
        a @ b                                  # outer restored after it
    a @ b                                      # nothing armed any more
    assert (outer.mults, inner.mults, failed.mults) == (72, 48, 24)


# Every public op with operand values of a shape it takes: (op, values).
_RNG = np.random.default_rng(11)
OPS = {
    "add": (ad.add, [_RNG.standard_normal((2, 3)), _RNG.standard_normal(3)]),
    "sub": (ad.sub, [_RNG.standard_normal((2, 3)), _RNG.standard_normal(3)]),
    "mul": (ad.mul, [_RNG.standard_normal((2, 3)), _RNG.standard_normal(3)]),
    "div": (ad.div, [_RNG.standard_normal((2, 3)), _RNG.random(3) + 0.5]),
    "relu": (ad.relu, [_RNG.standard_normal((2, 3))]),
    "exp": (ad.exp, [_RNG.standard_normal((2, 3))]),
    "minimum": (ad.minimum, [_RNG.standard_normal((2, 3)),
                             _RNG.standard_normal((2, 3))]),
    "maximum": (ad.maximum, [_RNG.standard_normal((2, 3)),
                             _RNG.standard_normal(3)]),
    "tsum": (lambda a: ad.tsum(a, axis=1), [_RNG.standard_normal((2, 3))]),
    "tmean": (ad.tmean, [_RNG.standard_normal((2, 3))]),
    "reshape": (lambda a: ad.reshape(a, (3, 2)), [_RNG.standard_normal((2, 3))]),
    "transpose": (lambda a: ad.transpose(a, (2, 0, 1)),
                  [_RNG.standard_normal((2, 3, 4))]),
    "concat": (lambda a, b: ad.concat([a, b], axis=0),
               [_RNG.standard_normal((2, 3)), _RNG.standard_normal((1, 3))]),
    "matmul": (ad.matmul, [_RNG.standard_normal((2, 2, 3)),
                           _RNG.standard_normal((3, 4))]),
    "matmul-stacked": (ad.matmul, [_RNG.standard_normal((2, 2, 3)),
                                   _RNG.standard_normal((2, 3, 4))]),
    "conv2d": (lambda x, k: ad.conv2d(x, k, 1, 1),
               [_RNG.standard_normal((2, 1, 4, 4)),
                _RNG.standard_normal((2, 1, 3, 3))]),
    "surrogate_spike": (ad.surrogate_spike, [_RNG.random((2, 3)) * 2.0]),
    "surrogate_spike_below": (lambda u: ad.surrogate_spike_below(u, -0.5),
                              [_RNG.standard_normal((2, 3))]),
    "spike_recurrence": (lambda x: ad.spike_recurrence(
        x, 2, theta_neg=-0.5, tau=2.0), [_RNG.standard_normal((4, 3)) * 2.0]),
    "layernorm": (ad.layernorm, [_RNG.standard_normal((2, 4)),
                                 _RNG.random(4) + 0.5,
                                 _RNG.standard_normal(4)]),
}


@pytest.mark.parametrize("name", list(OPS))
def test_an_op_records_a_node_exactly_when_an_operand_takes_a_gradient(name):
    op, values = OPS[name]
    # all operands constant: a constant, with no rule
    out = op(*[ad.as_tensor(v) for v in values])
    assert out.constant and out.parents == () and out._backward is None
    # every operand a parameter: the graph every other case compares with
    params = [Tensor(v) for v in values]
    ref = op(*params)
    assert not ref.constant
    seed = np.random.default_rng(3).standard_normal(ref.shape)
    ref.backward(seed)
    # under no_grad: a constant with the graph forward's bits
    with ad.no_grad():
        out = op(*[Tensor(v) for v in values])
    assert out.constant and out.parents == () and out._backward is None
    assert out.value.tobytes() == ref.value.tobytes()
    # one parameter operand: a node whose backward fills only its gradient,
    # bitwise the all-parameter graph's
    for i in range(len(values)):
        operands = [Tensor(v) if j == i else ad.as_tensor(v)
                    for j, v in enumerate(values)]
        out = op(*operands)
        assert not out.constant
        out.backward(seed)
        assert [t.grad is not None for t in operands] == [
            j == i for j in range(len(values))]
        assert operands[i].grad.tobytes() == params[i].grad.tobytes()
