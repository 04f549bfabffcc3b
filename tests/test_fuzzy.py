import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (centroid_positions, decode_centroid, grad_check,
                     soft_spikes, triangular_membership_composed)
from sfqn import autodiff as ad
from sfqn import fuzzy
from sfqn.autodiff import Tensor
from sfqn.fuzzy import (MembershipBank, NeuralDecoder, accumulate_population,
                        fuzzy_encode, if_spike_train, membership_eval,
                        rate_encode, spread_triangles)

WORKED_BANK = np.array([(0.0, 0.2, 0.4), (0.3, 0.5, 0.7), (0.6, 0.8, 1.0)])


def test_spread_triangles_default_bank():
    assert np.allclose(spread_triangles(3), WORKED_BANK)


def test_membership_worked_examples():
    bank = MembershipBank("triangular", 3, WORKED_BANK)
    assert np.allclose(membership_eval(bank, 0.35).value, [0.25, 0.25, 0.0],
                       atol=1e-9)
    assert np.allclose(membership_eval(bank, 0.75).value, [0.0, 0.0, 0.75],
                       atol=1e-9)


def test_membership_peak_is_one():
    bank = MembershipBank("triangular", 3, WORKED_BANK)
    for i, b in enumerate(WORKED_BANK[:, 1]):
        assert membership_eval(bank, b).value[i] == pytest.approx(1.0)


def test_membership_rejects_points_outside_unit_interval():
    # a point outside [0,1] is an error, never clamped onto the bank
    for kind in ("triangular", "gaussian"):
        bank = MembershipBank(kind, 3)
        for p in (1.7, -0.5, np.nan, [0.5, 1.7]):
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                membership_eval(bank, p)


def test_bank_ordering_enforced():
    with pytest.raises(ValueError):
        MembershipBank("triangular", 2, np.array([(0.0, 0.0, 0.4),
                                                  (0.3, 0.5, 0.7)]))
    with pytest.raises(ValueError):
        MembershipBank("gaussian", 1, np.array([(0.5, 0.0)]))


@pytest.mark.parametrize("kind,n,params", [
    ("triangular", 2, WORKED_BANK),                  # 3 rows for 2 functions
    ("triangular", 3, WORKED_BANK[:, :2]),           # 2 columns
    ("triangular", 3, WORKED_BANK.ravel()),          # flat
    ("gaussian", 3, WORKED_BANK),                    # a third column
    ("gaussian", 2, np.array([0.3, 0.1])),           # one row, flat
])
def test_bank_params_must_have_the_shape_of_their_kind(kind, n, params):
    # triangular (a, b, c) rows, Gaussian (mean, sigma) rows, one per function
    width = 3 if kind == "triangular" else 2
    with pytest.raises(ValueError, match=rf"shape \({n}, {width}\)"):
        MembershipBank(kind, n, params)


def test_gaussian_membership_formula():
    bank = MembershipBank("gaussian", 2, np.array([(0.3, 0.1), (0.7, 0.2)]))
    p = 0.45
    mu = membership_eval(bank, p).value
    assert mu == pytest.approx(
        [np.exp(-(p - 0.3) ** 2 / (2 * 0.1 ** 2)),
         np.exp(-(p - 0.7) ** 2 / (2 * 0.2 ** 2))])


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(1, 6),
       st.randoms(use_true_random=False))
def test_membership_in_unit_interval(p, n, rnd):
    abc = []
    for _ in range(n):
        a = rnd.uniform(-0.2, 0.8)
        b = a + rnd.uniform(1e-3, 0.5)
        c = b + rnd.uniform(1e-3, 0.5)
        abc.append((a, b, c))
    bank = MembershipBank("triangular", n, np.array(abc))
    mu = membership_eval(bank, p).value
    assert np.all(mu >= 0.0) and np.all(mu <= 1.0)


def test_membership_gradients_match_fd_away_from_kinks():
    # differentiate the summed degrees at probe points away from a/b/c
    points = np.array([0.1, 0.35, 0.55, 0.75, 0.95])
    base = MembershipBank("triangular", 3, WORKED_BANK)
    free0 = np.concatenate([t.value for t in base.parameters()])

    def loss(free):
        # rebuild a bank whose free parameters all come from one flat vector,
        # so grad_check can perturb them jointly
        bank = MembershipBank.__new__(MembershipBank)
        bank.kind = fuzzy.TRIANGULAR
        bank.n = 3
        bank._a = _slice(free, 0, 3)
        bank._log_ab = _slice(free, 3, 6)
        bank._log_bc = _slice(free, 6, 9)
        mu = membership_eval(bank, points)
        return ad.tsum(mu * mu)

    err = grad_check(loss, free0)
    assert err < 1e-3


def _slice(t: Tensor, lo: int, hi: int) -> Tensor:
    picker = np.zeros((t.shape[0], hi - lo))
    picker[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    out = ad.reshape(t, (1, t.shape[0])) @ Tensor(picker)
    return ad.reshape(out, (hi - lo,))


def test_membership_kink_uses_left_limit():
    # at p = b the up-slope branch (left limit) carries the gradient
    bank = MembershipBank("triangular", 1, np.array([(0.0, 0.5, 1.0)]))
    mu = membership_eval(bank, 0.5)
    mu.backward(np.ones(1))
    # d mu / d a at p=b on the rising branch: d[(p-a)/(b-a)]/da = (p-b)/(b-a)^2 = 0
    # d mu / d log(b-a): mu depends on (p-a)/(b-a); at p=b value 1, derivative
    # wrt log(b-a) of (p-a)/(b-a) is -(p-a)/(b-a) = -1
    assert bank._log_ab.grad[0] == pytest.approx(-1.0)
    assert bank._log_bc.grad[0] == pytest.approx(0.0)


def _random_bank(rng, n):
    a = rng.uniform(-0.2, 0.6, n)
    b = a + rng.uniform(1e-3, 0.4, n)
    return MembershipBank("triangular", n, np.stack(
        [a, b, b + rng.uniform(1e-3, 0.4, n)], axis=1))


def _composed_eval(bank, p):
    """`membership_eval` of a triangular bank with the node replaced by
    the composed ops it fuses."""
    pv = np.asarray(p, dtype=np.float64)
    extra = (1,) * pv.ndim
    a, b, c = (ad.reshape(t, (bank.n,) + extra) for t in bank.abc())
    return triangular_membership_composed(pv[None, ...], a, b, c)


def _degrees_and_grads(evaluate, bank, p, seed, axes=None):
    """The degrees of `p` and the gradients of memb_a, memb_log_ab and
    memb_log_bc after backward of sum(seed * degrees), the degrees first
    transposed by `axes` as `fuzzy_encode` does, so that their gradient
    arrives as a strided view."""
    for t in bank.parameters():
        t.grad = None
    mu = evaluate(bank, p)
    out = mu if axes is None else ad.transpose(mu, axes)
    ad.tsum(out * seed).backward()
    return [mu.value] + [t.grad for t in bank.parameters()]


@pytest.mark.parametrize("shape", [(), (7,), (2, 3, 4)])
@pytest.mark.parametrize("points", ["random", "vertices"])
def test_membership_node_is_bitwise_the_composed_ops(shape, points):
    # on the vertices a (degree 0, no gradient), b (up == down, the tie
    # goes to the rising edge) and c (degree 0 on the falling edge) every
    # kink of the composed graph is crossed
    for seed in range(5):
        rng = np.random.default_rng(seed)
        bank = _random_bank(rng, 4)
        assert [t.name for t in bank.parameters()] == [
            "memb_a", "memb_log_ab", "memb_log_bc"]
        a, b, c = (t.value for t in bank.abc())
        if points == "random":
            p = rng.random(shape)
        else:                           # the peaks first: a scalar is a tie
            vertices = np.concatenate([b, a, c])
            p = np.resize(vertices[(vertices >= 0) & (vertices <= 1)], shape)
            assert np.isin(p, b).any()
        axes = (1, 0, 2, 3) if len(shape) == 3 else None
        g = rng.standard_normal((4,) + shape)
        g = g if axes is None else g.transpose(axes)
        fused = _degrees_and_grads(membership_eval, bank, p, g, axes)
        ref = _degrees_and_grads(_composed_eval, bank, p, g, axes)
        for got, want in zip(fused, ref):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_membership_node_under_no_grad_is_a_constant():
    bank = MembershipBank("triangular", 3)
    p = np.random.default_rng(0).random((2, 5))
    ref = membership_eval(bank, p)
    with ad.no_grad():
        mu = membership_eval(bank, p)
    assert mu.constant and mu.parents == () and mu._backward is None
    assert mu.value.tobytes() == ref.value.tobytes()


def test_membership_node_keeps_a_copy_of_the_points_and_no_other_full_array():
    # perfbench's graph_size counts the arrays held in a rule's own closure
    # cells, so the node keeps them there: a copy of the points, which the
    # caller may then overwrite, and the three (N, 1, ...) bank values
    rng = np.random.default_rng(3)
    bank = MembershipBank("triangular", 3)
    p = rng.random((4, 5, 6))
    seed = rng.standard_normal((3,) + p.shape)
    want = _degrees_and_grads(membership_eval, bank, p.copy(), seed)
    for t in bank.parameters():
        t.grad = None
    mu = membership_eval(bank, p)
    arrays = [cell.cell_contents for cell in mu._backward.__closure__
              if isinstance(cell.cell_contents, np.ndarray)]
    full = [v for v in arrays if v.size >= p.size]
    assert len(full) == 1 and full[0].tobytes() == p.tobytes()
    assert not np.shares_memory(full[0], p)
    assert sorted(v.shape for v in arrays if v is not full[0]) == [
        (3, 1, 1, 1)] * 3
    p[...] = 0.5
    ad.tsum(mu * seed).backward()
    assert [t.grad.tobytes() for t in bank.parameters()] == [
        w.tobytes() for w in want[1:]]


def test_if_train_degree_one_fires_every_step():
    spikes = if_spike_train(Tensor(np.array([1.0])), 5)
    assert spikes.value.tolist() == [1.0] * 5


def test_if_train_quarter_degree_spikes_at_step_four():
    spikes = if_spike_train(Tensor(np.array([0.25])), 5)
    assert spikes.value.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
    rate = spikes.value.sum() / 5
    assert abs(rate - 0.25) <= 1 / 5


def test_if_train_zero_degree_silent():
    spikes = if_spike_train(Tensor(np.zeros(3)), 4)
    assert spikes.shape == (12,)
    assert not np.any(spikes.value)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(1, 50))
def test_if_rate_within_one_over_t(mu, t):
    spikes = if_spike_train(Tensor(np.array([mu])), t)
    rate = spikes.value.sum() / t
    assert abs(rate - mu) <= 1 / t + 1e-12


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("t", [1, 2, 5])
def test_if_train_reads_one_drive_bitwise(monkeypatch, t, soft, block):
    """Spikes and the drive gradient equal those of the drive copied T
    times, also for a non-contiguous drive and over several blocks."""
    if block is not None:      # 4 neurons per sample: blocks of 2, 1 left
        monkeypatch.setattr(ad, "SPIKE_BLOCK", block)
    rng = np.random.default_rng(t)
    d = rng.normal(0.8, 0.6, (3, 2, 2))
    d = np.ascontiguousarray(d.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert not d.flags.c_contiguous
    seed = rng.standard_normal((t * 3, 2, 2))
    with soft_spikes() if soft else contextlib.nullcontext():
        drive, copied = Tensor(d), Tensor(d)
        out = if_spike_train(drive, t)
        out.backward(seed)
        ref = ad.spike_recurrence(ad.concat([copied] * t, axis=0), t)
        ref.backward(seed)
    assert np.array_equal(out.value, ref.value)
    assert np.array_equal(drive.grad, copied.grad)
    assert np.any(out.value != 0) and np.any(drive.grad != 0)


def test_if_train_rejects_bad_window():
    with pytest.raises(ValueError):
        if_spike_train(Tensor(np.zeros(1)), 0)


def test_fuzzy_encode_one_channel_batch():
    bank = MembershipBank("triangular", 3)
    imgs = np.random.default_rng(0).random((2, 1, 4, 4))
    batched = fuzzy_encode(bank, imgs, t_steps=5)
    assert batched.shape == (10, 3, 4, 4)    # T-major: row t*B + b, N channels
    assert set(np.unique(batched.value)) == {0.0, 1.0}
    for b in range(2):
        alone = fuzzy_encode(bank, imgs[b:b + 1], t_steps=5)
        assert np.array_equal(batched.value[b::2], alone.value)


@pytest.mark.parametrize("shape", [(2, 2, 3, 3), (1, 3, 3)],
                         ids=["two_channels", "unbatched"])
def test_fuzzy_encode_rejects_all_but_one_channel_batches(shape):
    with pytest.raises(ad.ShapeError):
        fuzzy_encode(MembershipBank(), np.zeros(shape), 5)


def test_rate_encode_extremes_and_concentration():
    rng = np.random.default_rng(0)
    ones = rate_encode(np.ones((1, 2, 2)), 4, rng)
    assert ones.shape == (4, 2, 2) and np.all(ones.value == 1.0)
    zeros = rate_encode(np.zeros((1, 2, 2)), 4, rng)
    assert np.all(zeros.value == 0.0)

    train = rate_encode(np.full((1, 1, 1), 0.5), 10_000,
                        np.random.default_rng(7))
    rate = np.mean(train.value)
    assert 0.48 <= rate <= 0.52


def test_accumulate_population_hand_sum():
    spikes = Tensor(np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
    w = Tensor(np.array([[0.5], [-0.25]]))
    lam = accumulate_population(spikes, w, 3)
    assert lam.value == pytest.approx(np.array([[0.5]]))  # 0.5*2 - 0.25*2


def test_accumulate_population_trivial_cases():
    zero = accumulate_population(Tensor(np.zeros((4, 3))),
                                 Tensor(np.ones((3, 2))), 4)
    assert np.all(zero.value == 0.0)
    k = 3
    spikes = Tensor(np.tile([1.0, 0.0], (k, 1)))
    lam = accumulate_population(spikes, Tensor(np.eye(2)), k)
    assert lam.value == pytest.approx(np.array([[k, 0.0]]))
    # T-major rows: step t of sample b is row t*B + b
    two = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]))
    lam = accumulate_population(two, Tensor(np.eye(2)), 2)
    assert lam.value.tolist() == [[2.0, 0.0], [0.0, 1.0]]


def test_accumulate_population_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        accumulate_population(Tensor(np.zeros((1, 3))),
                              Tensor(np.ones((4, 2))), 1)
    with pytest.raises(ad.ShapeError):
        accumulate_population(Tensor(np.zeros((5, 4))),
                              Tensor(np.ones((4, 2))), 2)


def test_decode_neural_zero_input_zero_bias():
    dec = NeuralDecoder(m=5, n_actions=5)
    q = dec(Tensor(np.zeros((1, 25))))
    assert q.shape == (1, 5) and np.all(q.value == 0.0)
    with pytest.raises(ad.ShapeError):       # batches only
        dec(Tensor(np.zeros(25)))


def test_decode_neural_identity_construction():
    # relu(x) - relu(-x) = x lets a 2A-wide hidden layer average each
    # action's population exactly
    m, a = 5, 3
    dec = NeuralDecoder(m=m, n_actions=a, hidden=2 * a)
    w1 = np.zeros((m * a, 2 * a))
    for act in range(a):
        w1[act * m:(act + 1) * m, act] = 1.0 / m
        w1[act * m:(act + 1) * m, a + act] = -1.0 / m
    w2 = np.concatenate([np.eye(a), -np.eye(a)], axis=0)
    dec.w1.value, dec.w2.value = w1, w2
    dec.b1.value[:] = 0.0
    dec.b2.value[:] = 0.0

    lam = np.random.default_rng(1).standard_normal((1, m * a))
    q = dec(Tensor(lam))
    assert np.allclose(q.value[0], lam.reshape(a, m).mean(axis=1))


def test_decode_centroid_hand_cases():
    assert decode_centroid(np.array([0.0, 1.0, 0.0]),
                           [-1.0, 0.0, 1.0]) == pytest.approx([0.0])
    assert decode_centroid(np.array([1.0, 3.0]),
                           [0.0, 1.0]) == pytest.approx([0.75])
    assert decode_centroid(np.array([2.0, 2.0, 2.0]),
                           [0.0, 1.0, 2.0]) == pytest.approx([1.0])


def test_decode_centroid_zero_mass_midpoint():
    assert decode_centroid(np.zeros(3), [-1.0, 0.0, 1.0]) == pytest.approx([0.0])
    assert decode_centroid(np.zeros(2), [0.0, 1.0]) == pytest.approx([0.5])


def test_decode_centroid_rejects_unordered_positions():
    with pytest.raises(ValueError):
        decode_centroid(np.ones(3), [0.0, 2.0, 1.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 100.0))
def test_decode_centroid_scale_invariance(seed, k):
    rng = np.random.default_rng(seed)
    lam = rng.random((5, 5)) + 1e-6
    pos = centroid_positions(5)
    assert np.allclose(decode_centroid(k * lam, pos), decode_centroid(lam, pos))


def test_decode_centroid_symmetry():
    # mirror-symmetric mass about the grid center decodes to the center
    rng = np.random.default_rng(3)
    half = rng.random((4, 2))
    lam = np.concatenate([half, np.zeros((4, 1)), half[:, ::-1]], axis=1)
    assert np.allclose(decode_centroid(lam, centroid_positions(5)), 0.0)


def test_decode_weighted_sum_equals_accumulate_m1():
    rng = np.random.default_rng(2)
    spikes = Tensor((rng.random((5, 8)) < 0.4).astype(float))
    w = Tensor(rng.standard_normal((8, 5)))
    # the weighted-sum decoder is accumulate_population with one column per
    # action: the time-summed spikes times the weights
    assert np.array_equal(accumulate_population(spikes, w, 5).value,
                          spikes.value.sum(axis=0, keepdims=True) @ w.value)
    # hand case reproduces the accumulate example
    hand = accumulate_population(
        Tensor(np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])),
        Tensor(np.array([[0.5], [-0.25]])), 3)
    assert hand.value == pytest.approx(np.array([[0.5]]))


def test_membership_mult_instrumentation():
    bank = MembershipBank("triangular", 3, WORKED_BANK)
    p = np.linspace(0, 1, 7)
    with ad.count_mults() as c:
        membership_eval(bank, p)
    assert c.mults == 3 * 7
    gbank = MembershipBank("gaussian", 2, np.array([(0.3, 0.1), (0.7, 0.2)]))
    with ad.count_mults() as c:
        membership_eval(gbank, p)
    assert c.mults == 2 * 2 * 7
