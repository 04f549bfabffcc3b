"""Spiking neuron dynamics and layers.

LIF update is the decay-toward-input form v <- v + (x - v)/tau with
subtractive reset.  Binary neurons emit {0,1} above theta_pos; ternary
neurons additionally emit -1 at or below theta_neg (used only inside the
cross-attention Q/K projections).

Layers run multi-step: each takes the inputs of all T simulation steps at
once, stacked T-major along the leading axis (row t*B + b is step t of
sample b), and runs its stateless ops (conv, projections, layer norm,
attention products) once over all T*B rows.  Only the membrane recurrence
runs over T, inside the fused `autodiff.spike_recurrence`.  No layer
carries state from one call to the next; every call starts at rest.

Setting `kind="relu"` in a `Neuron` swaps the spiking nonlinearity for a
stateless ReLU, which turns the same layer stack into the non-spiking
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class Neuron:
    """One neuron rule.  Populations keep the rule they are given, so every
    population that fires by the same rule shares one object."""
    kind: str = "lif"            # "lif" or "relu"
    tau_m: float = 2.0
    theta_pos: float = 1.0
    theta_neg: float | None = None
    alpha: float = 2.0
    t_steps: int = 1             # simulation window of one call

    def step(self, x: Tensor) -> Tensor:
        """(T*B, ...) input currents -> (T*B, ...) spikes."""
        if self.kind == "relu":
            return ad.relu(x)
        return ad.spike_recurrence(x, self.t_steps, self.theta_pos,
                                   self.theta_neg, self.tau_m, self.alpha)


def _uniform(rng: np.random.Generator, shape, fan_in: int,
             gain: float = 1.0) -> np.ndarray:
    # Spiking layers need inflated weights (gain > 1) so that sparse binary
    # inputs can drive membranes across threshold at initialization.
    bound = gain / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class ConvLifBlock(ad.Module):
    """Conv2d followed by a (binary) LIF population."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 padding: int, neuron: Neuron, rng: np.random.Generator,
                 gain: float = 1.0):
        self.stride = stride
        self.padding = padding
        self.kernels = Tensor(_uniform(rng, (c_out, c_in, kernel, kernel),
                                       c_in * kernel * kernel, gain),
                              name="k")
        self.bias = Tensor(np.zeros(c_out), name="b")
        self.neuron = neuron

    def step(self, x: Tensor) -> Tensor:
        y = ad.conv2d(x, self.kernels, self.stride, self.padding)
        b = ad.reshape(self.bias, (self.bias.shape[0], 1, 1))
        return self.neuron.step(y + b)


class Embedding(ad.Module):
    """Project per-location feature vectors to tokens, add learnable
    positional encoding to the pre-threshold current, then spike."""

    def __init__(self, c_in: int, n_tokens: int, c_emb: int,
                 neuron: Neuron, rng: np.random.Generator,
                 gain: float = 1.0):
        self.c_in = c_in
        self.n_tokens = n_tokens
        self.w = Tensor(_uniform(rng, (c_in, c_emb), c_in, gain), name="w")
        self.b = Tensor(np.zeros(c_emb), name="b")
        self.pos = Tensor(_uniform(rng, (n_tokens, c_emb), c_emb), name="pos")
        self.neuron = neuron

    def step(self, x: Tensor) -> Tensor:
        """(T*B,c,h,w) feature spikes -> (T*B, h*w, c_emb) token spikes."""
        b, c, h, w = x.shape
        if h * w != self.n_tokens or c != self.c_in:
            raise ad.ShapeError(f"embedding expects {self.c_in}x{self.n_tokens}"
                                f" features, got {c}x{h * w}")
        tokens = ad.transpose(ad.reshape(x, (b, c, h * w)), (0, 2, 1))
        cur = tokens @ self.w + self.b + self.pos
        return self.neuron.step(cur)


class CrossFusionLayer(ad.Module):
    """Bidirectional spiking cross-attention between two token streams.

    Q and K come from ternary LIF projections so raw scores are integer
    accumulations of {-1,0,+1} products; scores are scaled by 1/sqrt(d_head)
    with no softmax.  The two directed attentions are summed with the
    residual, layer-normalized on pre-threshold currents, and passed through
    a shared feed-forward sublayer; the output alphabet is {0,1}.
    """

    def __init__(self, c_emb: int, n_heads: int, d_ff: int,
                 neuron: Neuron, theta_neg: float, rng: np.random.Generator,
                 gain: float = 1.0):
        if c_emb % n_heads:
            raise ValueError("embedding width must divide evenly into heads")
        self.n_heads = n_heads
        self.d_head = c_emb // n_heads
        self.proj = {name: Tensor(_uniform(rng, (c_emb, c_emb), c_emb, gain),
                                  name=f"cfl_{name}")
                     for name in ("q1", "k2", "v2", "q2", "k1", "v1")}
        self.w_out = Tensor(_uniform(rng, (c_emb, c_emb), c_emb), name="cfl_wo")
        self.ln1_g = Tensor(np.ones(c_emb), name="cfl_ln1_g")
        self.ln1_b = Tensor(np.zeros(c_emb), name="cfl_ln1_b")
        self.ln2_g = Tensor(np.ones(c_emb), name="cfl_ln2_g")
        self.ln2_b = Tensor(np.zeros(c_emb), name="cfl_ln2_b")
        self.ff_w1 = Tensor(_uniform(rng, (c_emb, d_ff), c_emb, gain),
                            name="cfl_ff_w1")
        self.ff_b1 = Tensor(np.zeros(d_ff), name="cfl_ff_b1")
        self.ff_w2 = Tensor(_uniform(rng, (d_ff, c_emb), d_ff), name="cfl_ff_w2")
        self.ff_b2 = Tensor(np.zeros(c_emb), name="cfl_ff_b2")
        # neurons keep no state: one binary and one ternary rule serve all
        self.neuron = neuron
        self.qk_neuron = replace(neuron, theta_neg=theta_neg)

    def _split_heads(self, x: Tensor) -> Tensor:
        b, n, c = x.shape
        return ad.transpose(
            ad.reshape(x, (b, n, self.n_heads, self.d_head)), (0, 2, 1, 3))

    def _merge_heads(self, x: Tensor) -> Tensor:
        b, h, n, d = x.shape
        return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (b, n, h * d))

    def _attend(self, tokens_q: Tensor, tokens_kv: Tensor,
                wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
        q = self.qk_neuron.step(tokens_q @ wq)
        k = self.qk_neuron.step(tokens_kv @ wk)
        v = tokens_kv @ wv
        qh, kh, vh = self._split_heads(q), self._split_heads(k), self._split_heads(v)
        scores = (qh @ ad.transpose(kh, (0, 1, 3, 2))) * (1.0 / np.sqrt(self.d_head))
        return self._merge_heads(scores @ vh) @ self.w_out

    def step(self, e1: Tensor, e2: Tensor) -> Tensor:
        if e1.shape != e2.shape:
            raise ad.ShapeError(f"token shapes differ: {e1.shape} vs {e2.shape}")
        p = self.proj
        att = self._attend(e1, e2, p["q1"], p["k2"], p["v2"]) \
            + self._attend(e2, e1, p["q2"], p["k1"], p["v1"])
        res = e1 + e2
        s_att = self.neuron.step(ad.layernorm(att + res, self.ln1_g, self.ln1_b))
        hidden = self.neuron.step(s_att @ self.ff_w1 + self.ff_b1)
        back = hidden @ self.ff_w2 + self.ff_b2
        return self.neuron.step(ad.layernorm(s_att + back,
                                             self.ln2_g, self.ln2_b))


class FcLifHead(ad.Module):
    """Fully connected hidden layer of spiking neurons feeding the
    population output; emits the hidden spike vector per step."""

    def __init__(self, d_in: int, hidden: int, neuron: Neuron,
                 rng: np.random.Generator, gain: float = 1.0):
        self.w = Tensor(_uniform(rng, (d_in, hidden), d_in, gain), name="w")
        self.b = Tensor(np.zeros(hidden), name="b")
        self.neuron = neuron

    def step(self, fused: Tensor) -> Tensor:
        """(T*B, n, c) fused tokens -> (T*B, hidden) spikes."""
        t, b = ad.split_steps(fused.shape, self.neuron.t_steps)[:2]
        # One (B, d) @ (d, hidden) product per step, as a stack over T, so
        # each step's current is the same BLAS call whatever T is.
        flat = ad.reshape(fused, (t, b, int(np.prod(fused.shape[1:]))))
        cur = flat @ self.w + self.b
        return self.neuron.step(ad.reshape(cur, (t * b, cur.shape[-1])))
