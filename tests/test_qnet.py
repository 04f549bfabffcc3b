import hashlib
import json
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from sfqn import autodiff as ad
from sfqn import fuzzy, qnet, snn
from sfqn.checkpoint import CheckpointFormatError, save_records
from sfqn.qnet import NetworkConfig, QNetwork, count_multiplications
from test_acceptance import C4_BASE, C4_SHAPES


def tiny_cfg(**overrides) -> NetworkConfig:
    return NetworkConfig(**{**C4_BASE, **overrides})


def rand_obs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    h, w = cfg.obs_hw
    return {"bev": rng.random((1, h, w)),
            "lidar_grid": rng.random((1, h, w))}


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="'what'") as err:
        NetworkConfig(variant="what")
    assert all(repr(v) in str(err.value) for v in qnet.VARIANTS)


def test_effective_t_and_channel_expansion():
    cfg = tiny_cfg()
    assert cfg.effective_t == 3
    assert cfg.conv_input_channels() == 3      # N * C
    ns = tiny_cfg(variant="nonspiking")
    assert ns.effective_t == 1
    assert ns.conv_input_channels() == 1


@pytest.mark.parametrize("variant", ["fuzzy", "rate", "nonspiking"],
                         ids=lambda v: "-".join(qnet.VARIANTS[v][:2]))
def test_forward_deterministic(variant):
    cfg = tiny_cfg(variant=variant)
    net = QNetwork(cfg)
    obs = rand_obs(cfg)
    a = net.q_values(obs)
    b = net.q_values(obs)
    assert np.array_equal(a.q, b.q)
    assert a.q.shape == (qnet.N_ACTIONS,)
    if cfg.decoder == "neural":
        with ad.no_grad():
            _, lam = net.forward(obs["bev"][None], obs["lidar_grid"][None])
        assert lam.value[0].shape == (cfg.m_population * qnet.N_ACTIONS,)


@pytest.mark.parametrize("variant", qnet.VARIANTS)
def test_pixels_outside_unit_interval_rejected(variant):
    # every variant takes images in [0,1]; no encoder clip or ReLU mask
    # may turn a bad pixel into a finite Q
    cfg = tiny_cfg(variant=variant)
    net = QNetwork(cfg)
    for bad in (1.5, -0.5, np.nan):
        for image in ("bev", "lidar_grid"):
            obs = rand_obs(cfg)
            obs[image][0, 1, 2] = bad
            with pytest.raises(ValueError, match=r"outside \[0,1\]"):
                net.forward(obs["bev"][None], obs["lidar_grid"][None])
            with pytest.raises(ValueError, match=r"outside \[0,1\]"):
                net.q_values(obs)


def test_populations_share_one_binary_rule():
    cfg = NetworkConfig()
    net = QNetwork(cfg)
    rules = [rule for _, layer in net.layers if isinstance(layer, ad.Module)
             for rule in vars(layer).values() if isinstance(rule, snn.Neuron)]
    assert len(rules) == 11 and len({id(rule) for rule in rules}) == 2
    binary = net.head.neuron
    assert [r for r in rules if r is not binary] == [net.cfl.qk_neuron]
    assert net.cfl.qk_neuron == replace(binary, theta_neg=cfg.theta_neg)
    with pytest.raises(FrozenInstanceError):
        binary.theta_pos = 2.0


def test_zero_obs_zero_final_layers_q_equals_decoder_bias():
    cfg = tiny_cfg()
    net = QNetwork(cfg)
    net.w_pop.value[:] = 0.0
    net.decoder.b2.value[:] = np.arange(5, dtype=float)
    h, w = cfg.obs_hw
    obs = {"bev": np.zeros((1, h, w)), "lidar_grid": np.zeros((1, h, w))}
    out = net.q_values(obs)
    assert np.allclose(out.q, np.arange(5))


def test_max_q_gradient_reaches_membership_params():
    cfg = tiny_cfg()
    net = QNetwork(cfg)
    obs = rand_obs(cfg, seed=3)
    q, _ = net.forward(obs["bev"][None], obs["lidar_grid"][None])
    best = int(np.argmax(q.value[0]))
    seed = np.zeros_like(q.value)
    seed[0, best] = 1.0
    q.backward(seed)
    grads = [np.abs(b._log_ab.grad).max() + np.abs(b._a.grad).max()
             for b in net.banks.values()
             if b._a.grad is not None]
    assert grads and max(grads) > 0.0


def test_membership_param_fd_probe():
    # nudging one bank peak changes max-Q in the direction the gradient says
    cfg = tiny_cfg()
    net = QNetwork(cfg)
    obs = rand_obs(cfg, seed=5)

    def max_q():
        return float(net.q_values(obs).q.max())

    bank = net.banks["m1"]
    base = max_q()
    eps = 1e-3
    bank._log_ab.value[1] += eps
    plus = max_q()
    bank._log_ab.value[1] -= 2 * eps
    minus = max_q()
    bank._log_ab.value[1] += eps
    # spiking forward is piecewise constant at fine scales, so only require
    # that the probe is well-defined and bounded; the surrogate-gradient path
    # itself is checked in test_max_q_gradient_reaches_membership_params
    assert np.isfinite([base, plus, minus]).all()


def test_save_load_roundtrip_digest(tmp_path):
    cfg = tiny_cfg()
    net = QNetwork(cfg)
    path = tmp_path / "net.sfqn"
    net.save(path)
    other = QNetwork(tiny_cfg(seed=99))
    assert other.parameter_digest() != net.parameter_digest()
    other.load(path)
    assert other.parameter_digest() == net.parameter_digest()
    obs = rand_obs(cfg)
    assert np.array_equal(net.q_values(obs).q, other.q_values(obs).q)


@pytest.mark.parametrize("variant", qnet.VARIANTS)
def test_default_network_round_trip_is_lossless(tmp_path, variant):
    net = QNetwork(NetworkConfig(variant=variant))
    path = tmp_path / "net.sfqn"
    net.save(path)
    other = QNetwork(NetworkConfig(variant=variant, seed=7))
    other.load(path)
    assert other.parameter_digest() == net.parameter_digest()


def test_numpy_reads_a_network_checkpoint(tmp_path):
    net = QNetwork(tiny_cfg())
    path = tmp_path / "net.sfqn"
    net.save(path)
    params = net.named_parameters()
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files == list(params)
        for name, p in params.items():
            assert np.array_equal(archive[name], p.value)


def test_a_flipped_byte_loads_the_same_network_or_raises(tmp_path):
    # a sample of single-byte corruptions of a whole network's checkpoint
    net = QNetwork(tiny_cfg())
    path = tmp_path / "net.sfqn"
    net.save(path)
    data, digest = path.read_bytes(), net.parameter_digest()
    other = QNetwork(tiny_cfg(seed=1))
    rng = np.random.default_rng(0)
    raised = 0
    for i, mask in zip(rng.integers(len(data), size=400),
                       rng.integers(1, 256, size=400)):
        flipped = bytearray(data)
        flipped[i] ^= mask
        path.write_bytes(flipped)
        try:
            other.load(path)
        except CheckpointFormatError:
            raised += 1
            continue
        assert other.parameter_digest() == digest
    assert raised > 300          # most bytes are values, under a CRC-32


def test_load_rejects_records_not_matching_parameters(tmp_path):
    net = QNetwork(tiny_cfg())
    records = {n: p.value for n, p in net.named_parameters().items()}
    path = tmp_path / "extra.sfqn"
    save_records(path, {**records, "bogus.extra": np.zeros(2),
                        "m9.conv0.k": np.zeros(1)})
    with pytest.raises(CheckpointFormatError,
                       match=r"'bogus.extra', 'm9.conv0.k'"):
        net.load(path)
    # missing and mis-shaped records are format errors too
    save_records(path, {n: v for n, v in records.items() if n != "head.w"})
    with pytest.raises(CheckpointFormatError, match="missing record 'head.w'"):
        net.load(path)
    save_records(path, {**records, "head.w": np.zeros(3)})
    with pytest.raises(CheckpointFormatError, match="'head.w' has shape"):
        net.load(path)


def test_layer_list_names_checkpoint_records():
    net = QNetwork(tiny_cfg())
    assert [prefix for prefix, _ in net.layers] == [
        "m1.bank0", "m2.bank0", "m1.conv0", "m1.conv1", "m1.emb", "m2.conv0",
        "m2.conv1", "m2.emb", "cfl", "head", "w_pop", "dec"]
    cfl = ("q1", "k2", "v2", "q2", "k1", "v1", "wo", "ln1_g", "ln1_b",
           "ln2_g", "ln2_b", "ff_w1", "ff_b1", "ff_w2", "ff_b2")
    expected = [f"{m}.bank0.memb_{n}" for m in ("m1", "m2")
                for n in ("a", "log_ab", "log_bc")]
    for m in ("m1", "m2"):
        expected += [f"{m}.conv{i}.{n}" for i in (0, 1) for n in ("k", "b")]
        expected += [f"{m}.emb.{n}" for n in ("w", "b", "pos")]
    expected += [f"cfl.cfl_{n}" for n in cfl]
    expected += ["head.w", "head.b", "w_pop"]
    expected += [f"dec.dec_{n}" for n in ("w1", "b1", "w2", "b2")]
    assert list(net.named_parameters()) == expected
    assert net.parameters() == list(net.named_parameters().values())


def test_forward_independent_of_previous_call():
    # no layer keeps state between calls: a forward after other batches
    # equals the same forward on a fresh network
    cfg = tiny_cfg()
    h, w = cfg.obs_hw
    rng = np.random.default_rng(1)
    bev, lidar = rng.random((2, 1, h, w)), rng.random((2, 1, h, w))
    used = QNetwork(cfg)
    used.forward(np.full((3, 1, h, w), 0.9), np.full((3, 1, h, w), 0.9))
    used.forward(bev[:1], lidar[:1])
    fresh = QNetwork(cfg)
    assert np.array_equal(used.forward(bev, lidar)[0].value,
                          fresh.forward(bev, lidar)[0].value)


@pytest.mark.parametrize("variant", ["fuzzy", "rate", "nonspiking"])
def test_first_conv_scatters_input_gradient_only_under_fuzzy(monkeypatch,
                                                             variant):
    """Rate spikes and raw images are constants, so the backward of the
    first conv computes no input gradient; trainable fuzzy banks need one."""
    net = QNetwork(tiny_cfg(variant=variant))
    obs = rand_obs(net.cfg, seed=2)
    h, w = net.cfg.obs_hw
    n0 = net.cfg.conv_input_channels() * h * w + 1   # conv0 slots per sample
    sizes = []
    bincount = np.bincount

    def spy(index, weights=None, minlength=0):
        sizes.append(minlength)
        return bincount(index, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    q, _ = net.forward(np.stack([obs["bev"]] * 2),
                       np.stack([obs["lidar_grid"]] * 2))
    ad.tsum(q).backward()
    assert sizes                                     # later convs scatter
    assert any(n % n0 == 0 for n in sizes) == (variant == "fuzzy")
    assert all(p.grad is not None for p in net.convs["m1"][0].parameters())


@pytest.mark.parametrize("variant", list(qnet.VARIANTS))
def test_no_grad_forward_is_bitwise_graph_forward(variant):
    net = QNetwork(tiny_cfg(variant=variant))
    obs = rand_obs(net.cfg, seed=2)
    bev, lidar = obs["bev"][None], obs["lidar_grid"][None]
    q, lam = net.forward(bev, lidar)
    assert q.parents
    with ad.no_grad():
        q_ng, lam_ng = net.forward(bev, lidar)
    assert q_ng.parents == () and q_ng._backward is None
    assert np.array_equal(q_ng.value, q.value)
    assert (lam is None) == (lam_ng is None)
    if lam is not None:
        assert np.array_equal(lam_ng.value, lam.value)
    assert np.array_equal(net.q_values(obs).q, q.value[0])


def test_backward_frees_the_graph_as_it_walks(monkeypatch):
    """Backward's own peak allocation stays below a quarter of the graph's
    buffers, because each node's saved arrays go once it has passed its
    gradient on; holding them all until the walk ends took about half.
    The graph holds at least one float64 pre-threshold membrane per spike
    of the network's populations without `repeat` (the spikes themselves
    are int8), which backward reads; an encoder's repeated drive keeps
    only the drive, from which backward rebuilds the membranes."""
    net = QNetwork(NetworkConfig(obs_hw=(16, 16)))
    rng = np.random.default_rng(0)
    bev, lidar = rng.random((16, 1, 16, 16)), rng.random((16, 1, 16, 16))
    seed = rng.standard_normal((16, qnet.N_ACTIONS))
    membranes, recurrence = [], ad.spike_recurrence

    def counted(*args, **kwargs):
        out = recurrence(*args, **kwargs)
        if not kwargs.get("repeat"):
            membranes.append(out.value.size * 8)
        return out

    with monkeypatch.context() as m:
        m.setattr(ad, "spike_recurrence", counted)
        net.forward(bev, lidar)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        q, _ = net.forward(bev, lidar)
        loss = ad.tsum(q * seed)
        graph = tracemalloc.get_traced_memory()[0] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        used = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert graph > sum(membranes) > 0
    assert used < graph / 4
    assert all(p.grad is not None for p in net.parameters())
    assert q.parents == () and loss.parents == ()


SPIKING = [v for v in qnet.VARIANTS if v != "nonspiking"]


def _record_spikes(m, dtypes, widen=False):
    """Patch every spike producer of a network (`spike_recurrence` and the
    rate encoder) to add its name and its output's dtype to the set
    `dtypes`, and with `widen` to turn its spikes into float64 first."""
    def wrap(producer):
        def run(*args, **kwargs):
            out = producer(*args, **kwargs)
            if widen:
                out.value = out.value.astype(np.float64)
            dtypes.add((producer.__name__, out.value.dtype))
            return out
        return run

    m.setattr(ad, "spike_recurrence", wrap(ad.spike_recurrence))
    m.setattr(fuzzy, "rate_encode", wrap(fuzzy.rate_encode))


@pytest.mark.parametrize("variant", SPIKING)
def test_int8_spikes_give_the_bits_of_float64_spikes(monkeypatch, variant):
    """On the default 32x32, T=5 network at B=8, int8 spikes give Q and
    every parameter gradient bit for bit as float64 spikes do: each BLAS
    product reads a float64 copy laid out as the int8 operand is."""
    rng = np.random.default_rng(4)
    bev, lidar = rng.random((2, 8, 1, 32, 32))
    lidar[lidar < 0.9] = 0.0
    lidar[2] = 0.0                             # a dead sample in m2
    seed = rng.standard_normal((8, qnet.N_ACTIONS))

    def run(widen):
        dtypes, net = set(), QNetwork(NetworkConfig(variant=variant))
        with monkeypatch.context() as m:
            _record_spikes(m, dtypes, widen)
            q, _ = net.forward(bev, lidar)
        ad.tsum(q * seed).backward()
        assert {d for _, d in dtypes} == {np.dtype(np.float64 if widen
                                                   else np.int8)}
        return [q.value] + [p.grad for p in net.parameters()]

    for ours, wide in zip(run(False), run(True), strict=True):
        assert ours.shape == wide.shape and ours.tobytes() == wide.tobytes()


def _saved_arrays(rule, seen):
    """Arrays a backward rule holds, also through the functions it holds."""
    for cell in rule.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, np.ndarray):
            yield v
        elif callable(v) and id(v) not in seen:
            seen.add(id(v))
            yield from _saved_arrays(v, seen)


@pytest.mark.parametrize("variant", SPIKING)
def test_the_graph_saves_spikes_as_int8(monkeypatch, variant):
    """No backward rule saves a float64 array whose values all lie in
    {-1, 0, 1} (parameters aside: layer-norm gains start at 1), and every
    spike producer emits int8."""
    net = QNetwork(NetworkConfig(variant=variant))
    bev, lidar = np.random.default_rng(5).random((2, 2, 1, 32, 32))
    rate = {("rate_encode", np.dtype(np.int8))} if variant == "rate" else set()
    dtypes = set()
    with monkeypatch.context() as m:
        _record_spikes(m, dtypes)
        q, _ = net.forward(bev, lidar)
    assert dtypes == {("spike_recurrence", np.dtype(np.int8))} | rate
    params = {id(p.value) for p in net.parameters()}
    nodes, stack, seen, saved = set(), [q._node], set(), 0
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes.add(id(node))
        stack.extend(node.parents)
        for arr in _saved_arrays(node._backward or (lambda: None), seen):
            base = arr
            while base.base is not None:
                base = base.base
            saved += arr.dtype == np.int8
            if arr.dtype == np.float64 and id(base) not in params:
                assert not np.all(np.isin(arr, (-1.0, 0.0, 1.0))), arr.shape
    assert saved > 0


# sha256 prefixes of Q for batches of 1 and 3, recorded on the per-step
# implementation this multi-step forward replaced (numpy 2.4 with its
# bundled OpenBLAS on x86-64); a change in them is a change in behaviour.
FORWARD_PINS = {
    "fuzzy": "35585061015c8a5b",
    "fuzzy_ws": "cb64e4f70e338159",
    "gaussian": "948a846dc3012e88",
    "rate": "03b1e0edec45fb3d",
    "nonspiking": "0a63a179d9b97dea",
}


@pytest.mark.parametrize("variant", list(FORWARD_PINS))
def test_forward_pin(variant):
    net = QNetwork(tiny_cfg(variant=variant, obs_hw=(12, 12),
                            conv_channels=(4, 8), fc_hidden=32, t_steps=4,
                            seed=3))
    rng = np.random.default_rng(11)
    bev, lidar = rng.random((3, 1, 12, 12)), rng.random((3, 1, 12, 12))
    lidar[lidar < 0.7] = 0.0
    digest = hashlib.sha256()
    for b in (1, 3):
        digest.update(net.forward(bev[:b], lidar[:b])[0].value.tobytes())
    assert digest.hexdigest()[:16] == FORWARD_PINS[variant]


# Per-parameter gradient norms of sum(Q * w) for the forward-pin inputs,
# recorded on the im2col/col2im kernels this patch-index conv2d replaced;
# kernel rewrites may reorder sums but must stay within rtol 1e-10.
BACKWARD_PINS = json.loads(
    (Path(__file__).parent / "backward_pins.json").read_text())


@pytest.mark.parametrize("variant", list(BACKWARD_PINS))
def test_backward_pin(variant):
    net = QNetwork(tiny_cfg(variant=variant, obs_hw=(12, 12),
                            conv_channels=(4, 8), fc_hidden=32, t_steps=4,
                            seed=3))
    rng = np.random.default_rng(11)
    bev, lidar = rng.random((3, 1, 12, 12)), rng.random((3, 1, 12, 12))
    lidar[lidar < 0.7] = 0.0
    q, _ = net.forward(bev, lidar)
    ad.tsum(q * rng.standard_normal(q.shape)).backward()
    norms = {name: float(np.linalg.norm(p.grad))
             for name, p in net.named_parameters().items()}
    pins = BACKWARD_PINS[variant]
    assert norms.keys() == pins.keys()
    for name, norm in norms.items():
        assert norm == pytest.approx(pins[name], rel=1e-10, abs=0), name


def test_copy_parameters_and_digest():
    net = QNetwork(tiny_cfg(seed=0))
    tgt = QNetwork(tiny_cfg(seed=1))
    assert tgt.parameter_digest() != net.parameter_digest()
    tgt.copy_parameters_from(net)
    assert tgt.parameter_digest() == net.parameter_digest()


def test_topology_signature_shared_across_variants():
    fz = QNetwork(tiny_cfg())
    rt = QNetwork(tiny_cfg(variant="rate", seed=4))
    ns = QNetwork(tiny_cfg(variant="nonspiking", seed=8))
    assert fz.topology_signature() == rt.topology_signature()
    assert fz.topology_signature() == ns.topology_signature()


@pytest.mark.parametrize("overrides", C4_SHAPES)
def test_count_multiplications_analytic_equals_measured(overrides):
    cfg = tiny_cfg(**overrides)
    counts = count_multiplications(QNetwork(cfg))
    assert counts["encoder"]["analytic"] == counts["encoder"]["measured"]
    assert counts["first_conv"]["analytic"] == counts["first_conv"]["measured"]
    if cfg.encoder == "rate":
        assert counts["encoder"]["analytic"] == 0
    if cfg.decoder == "neural":
        assert counts["decoder_overhead"] == cfg.m_population * qnet.N_ACTIONS


def test_default_population_width_is_25():
    cfg = NetworkConfig()
    assert cfg.m_population * qnet.N_ACTIONS == 25


# ---------------------------------------------------------------------------
# non-spiking variant vs an independent dense reference
# ---------------------------------------------------------------------------

def _np_conv(x, k, stride, pad):
    c_out, c_in, l, _ = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (x.shape[1] + 2 * pad - l) // stride + 1
    w_out = (x.shape[2] + 2 * pad - l) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                patch = xp[:, i * stride:i * stride + l, j * stride:j * stride + l]
                out[o, i, j] = np.sum(patch * k[o])
    return out


def _np_layernorm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _np_relu(x):
    return np.maximum(x, 0.0)


def test_nonspiking_variant_matches_dense_reference():
    cfg = tiny_cfg(variant="nonspiking", seed=11)
    net = QNetwork(cfg)
    obs = rand_obs(cfg, seed=2)
    got = net.q_values(obs).q

    def branch(mod, img):
        f = img
        for block in net.convs[mod]:
            f = _np_relu(_np_conv(f, block.kernels.value, block.stride,
                                  block.padding)
                         + block.bias.value[:, None, None])
        emb = net.emb[mod]
        tokens = f.reshape(f.shape[0], -1).T          # (hw, c)
        return _np_relu(tokens @ emb.w.value + emb.b.value + emb.pos.value)

    e1 = branch("m1", obs["bev"])
    e2 = branch("m2", obs["lidar_grid"])

    cfl = net.cfl
    nh, dh = cfl.n_heads, cfl.d_head

    def attend(tq, tkv, qn, kn, vn):
        q = _np_relu(tq @ cfl.proj[qn].value)
        k = _np_relu(tkv @ cfl.proj[kn].value)
        v = tkv @ cfl.proj[vn].value
        n = tq.shape[0]
        out = np.zeros((n, nh * dh))
        for h in range(nh):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            out[:, sl] = scores @ v[:, sl]
        return out @ cfl.w_out.value

    att = attend(e1, e2, "q1", "k2", "v2") + attend(e2, e1, "q2", "k1", "v1")
    s_att = _np_relu(_np_layernorm(att + e1 + e2, cfl.ln1_g.value,
                                   cfl.ln1_b.value))
    hidden = _np_relu(s_att @ cfl.ff_w1.value + cfl.ff_b1.value)
    back = hidden @ cfl.ff_w2.value + cfl.ff_b2.value
    fused = _np_relu(_np_layernorm(s_att + back, cfl.ln2_g.value,
                                   cfl.ln2_b.value))

    head_out = _np_relu(fused.reshape(-1) @ net.head.w.value
                        + net.head.b.value)
    expect = head_out @ net.w_pop.value
    assert np.allclose(got, expect, atol=1e-5)
