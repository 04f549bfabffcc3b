"""Trainable fuzzy membership encoding and population decoding.

A `MembershipBank` holds N trainable membership functions for one
modality's one-channel image.  Triangular banks keep the ordering a < b < c
valid under gradient updates by storing (a, log(b-a), log(c-b)) and
reconstructing; Gaussian banks store (mean, log sigma).

Encoders turn [0,1] images into spike trains: `fuzzy_encode` drives one
integrate-and-fire neuron per membership degree (pure integrator, threshold
1.0, subtractive reset), `rate_encode` draws Bernoulli spikes.  A spike
train is one tensor with all T steps stacked T-major along the leading
axis: a (B, ...) input becomes (T*B, ...), row t*B + b being step t of
sample b, the layout the multi-step layers of `snn` take.  Decoders map
time-accumulated population activations back to continuous action values.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

TRIANGULAR = "triangular"
GAUSSIAN = "gaussian"

# Evenly spread triangles on [0,1] with 50% overlap; for N=3 these are the
# worked-example banks (0,.2,.4), (.3,.5,.7), (.6,.8,1).
def spread_triangles(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("bank needs at least one membership function")
    width = 1.0 / (1.5 * n + 0.5)          # half-base; peaks step by 1.5*width
    abc = []
    for i in range(n):
        b = width + 1.5 * width * i
        abc.append((b - width, b, b + width))
    return np.asarray(abc)


class MembershipBank(ad.Module):
    """N trainable membership functions over [0,1] for one modality."""

    def __init__(self, kind: str = TRIANGULAR, n: int = 3,
                 params: np.ndarray | None = None):
        if kind not in (TRIANGULAR, GAUSSIAN):
            raise ValueError(f"unknown membership kind {kind!r}")
        self.kind = kind
        self.n = n
        if params is None:
            tri = spread_triangles(n)
            params = tri if kind == TRIANGULAR else np.stack(
                [tri[:, 1], (tri[:, 2] - tri[:, 0]) / 4.0], axis=1)
        params = np.asarray(params, dtype=np.float64)
        shape = (n, 3 if kind == TRIANGULAR else 2)  # (a, b, c) or (mean, sigma)
        if params.shape != shape:
            raise ValueError(f"{kind} bank of {n} needs params of shape "
                             f"{shape}, got {params.shape}")
        if kind == TRIANGULAR:
            a, b, c = params[:, 0], params[:, 1], params[:, 2]
            if not (np.all(a < b) and np.all(b < c)):
                raise ValueError("triangular bank requires a < b < c")
            self._a = Tensor(a, name="memb_a")
            self._log_ab = Tensor(np.log(b - a), name="memb_log_ab")
            self._log_bc = Tensor(np.log(c - b), name="memb_log_bc")
        else:
            if not np.all(params[:, 1] > 0):
                raise ValueError("gaussian bank requires sigma > 0")
            self._mean = Tensor(params[:, 0], name="memb_mean")
            self._log_sigma = Tensor(np.log(params[:, 1]), name="memb_log_sigma")

    def abc(self) -> tuple[Tensor, Tensor, Tensor]:
        """Reconstructed (a, b, c) tensors; only for triangular banks."""
        a = self._a
        b = a + ad.exp(self._log_ab)
        c = b + ad.exp(self._log_bc)
        return a, b, c


def membership_eval(bank: MembershipBank, p) -> Tensor:
    """Membership degrees of `p` (scalar or array in [0,1]).

    Output shape is (N,) + shape(p); degrees lie in [0,1].  A point outside
    [0,1], NaN included, is a ValueError.
    """
    pv = np.asarray(p, dtype=np.float64)
    if not np.all((pv >= 0.0) & (pv <= 1.0)):       # NaN fails both
        raise ValueError("membership points must lie in [0,1]")
    pt = ad.as_tensor(pv[None, ...])                # (1, ...) broadcast vs N
    extra = (1,) * pv.ndim
    if bank.kind == TRIANGULAR:
        a, b, c = bank.abc()
        a = ad.reshape(a, (bank.n,) + extra)
        b = ad.reshape(b, (bank.n,) + extra)
        c = ad.reshape(c, (bank.n,) + extra)
        up = (pt - a) / (b - a)
        down = (c - pt) / (c - b)
        # relu(min(up, down)) reproduces the piecewise triangle; ties and
        # kinks take the left-limit subgradient.
        mu = ad.relu(ad.minimum(up, down))
        ad.record_mults(bank.n * pv.size)           # one slope multiply per eval
    else:
        mean = ad.reshape(bank._mean, (bank.n,) + extra)
        sigma = ad.exp(ad.reshape(bank._log_sigma, (bank.n,) + extra))
        z = (pt - mean) / sigma
        mu = ad.exp(z * z * -0.5)
        ad.record_mults(2 * bank.n * pv.size)
    return mu


def if_spike_train(drive: Tensor, t_steps: int, alpha: float = 2.0) -> Tensor:
    """Integrate-and-fire with constant input current `drive` per step.

    Pure integrator, threshold 1.0, subtractive reset; surrogate gradient on
    the threshold crossing keeps the train differentiable w.r.t. the drive.
    A (B, ...) drive gives (T*B, ...) spikes, T-major.
    """
    return ad.spike_recurrence(drive, t_steps, theta_pos=1.0, alpha=alpha,
                               repeat=True)


def fuzzy_encode(bank: MembershipBank, image, t_steps: int,
                 alpha: float = 2.0) -> Tensor:
    """Encode a (B,1,H,W) batch of one-channel images into (T*B, N, H, W)
    spikes, T-major.

    The bank's N membership degrees of each pixel drive IF neurons for
    `t_steps` steps.  Any other image shape is a ShapeError.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 4 or img.shape[1] != 1:
        raise ad.ShapeError(f"expected a (B,1,H,W) batch, got {img.shape}")
    mu = membership_eval(bank, img[:, 0])           # (N, B, H, W)
    return if_spike_train(ad.transpose(mu, (1, 0, 2, 3)), t_steps, alpha=alpha)


def rate_encode(image, t_steps: int, rng: np.random.Generator) -> Tensor:
    """Bernoulli rate coding: spike probability equals the pixel value.

    A (B, ...) image gives (T*B, ...) int8 spikes, T-major, drawing step
    t's noise before step t+1's.  The caller checks the window and the
    pixels.
    """
    img = np.asarray(image, dtype=np.float64)
    spikes = (rng.random((t_steps,) + img.shape) < img).astype(ad.SPIKE_DTYPE)
    return ad.as_tensor(spikes.reshape((-1,) + img.shape[1:]))


def accumulate_population(spikes: Tensor, weights: Tensor,
                          t_steps: int) -> Tensor:
    """Time-summed weighted spike counts: lambda = (sum_t s_t) @ W.

    `spikes` is (T*B, H_hidden), T-major; `weights` is (H_hidden, M*|A|).
    With one column per action this is the weighted-sum ablation decoder,
    Q(a) = sum_t sum_i w_ia s_it.
    """
    _, width = spikes.shape
    if width != weights.shape[0]:
        raise ad.ShapeError(
            f"spike width {width} vs weight rows {weights.shape[0]}")
    total = ad.tsum(ad.reshape(spikes, ad.split_steps(spikes.shape, t_steps)),
                    axis=0)
    return total @ weights


class NeuralDecoder(ad.Module):
    """Compact ReLU network mapping a (B, M*|A|) batch of population
    activations to (B, |A|) Q-values."""

    def __init__(self, m: int, n_actions: int, hidden: int = 64,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        d_in = m * n_actions
        scale = 1.0 / np.sqrt(d_in)
        self.w1 = Tensor(rng.uniform(-scale, scale, (d_in, hidden)), name="dec_w1")
        self.b1 = Tensor(np.zeros(hidden), name="dec_b1")
        self.w2 = Tensor(rng.uniform(-1.0 / np.sqrt(hidden), 1.0 / np.sqrt(hidden),
                                     (hidden, n_actions)), name="dec_w2")
        self.b2 = Tensor(np.zeros(n_actions), name="dec_b2")

    def __call__(self, lam: Tensor) -> Tensor:
        h = ad.relu(lam @ self.w1 + self.b1)
        return h @ self.w2 + self.b2

