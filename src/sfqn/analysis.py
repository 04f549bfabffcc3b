"""Closed-form information-capacity and multiplication-cost models.

Capacities are maximum entropies in bits (log2 of the state count) for the
competing input encodings and for the Q-value read-out; the cost model
counts one network variant's scalar multiplications in its encoder, first
conv layer and decoder, checked by `qnet.count_multiplications`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import conv2d_extents
from .fuzzy import GAUSSIAN
from .highway import ACTION_NAMES


@dataclass
class CapacityReport:
    raw_bits: int        # 32-bit pixels: 32*C*H*W
    rate_bits: int       # binary train over T steps: T*C*H*W
    pop_bits: int        # N-fold population: N*T*C*H*W
    q_raw_bits: int      # one 32-bit Q-value
    q_pop_bits: int      # M spike trains of T steps: M*T

    @property
    def pop_over_rate(self) -> float:
        return self.pop_bits / self.rate_bits


def capacity(c: int, h: int, w: int, t: int, n: int, m: int) -> CapacityReport:
    for name, v in dict(C=c, H=h, W=w, T=t, N=n, M=m).items():
        if v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v}")
    pixels = c * h * w
    return CapacityReport(
        raw_bits=32 * pixels,
        rate_bits=t * pixels,
        pop_bits=n * t * pixels,
        q_raw_bits=32,
        q_pop_bits=m * t,
    )


@dataclass
class CostReport:
    encoder: int             # N*H*W, x2 for a Gaussian bank; 0 for rate
                             # (comparisons only) and none (no encoder)
    first_conv: int          # C_out * C' * l^2 * H' * W' over the encoder's
                             # C' = conv_input_channels() output channels
    decoder_overhead: int    # M * |A| for the neural decoder; else 0


def cost_model(cfg) -> CostReport:
    """Multiplications per one-channel image of the network `cfg` (a
    `NetworkConfig`, read by attribute: `qnet` imports this module)."""
    h, w = cfg.obs_hw
    h_out, w_out = conv2d_extents(h, w, cfg.conv_kernel, cfg.conv_stride,
                                  cfg.conv_padding)
    per_degree = 2 if cfg.membership_kind == GAUSSIAN else 1
    return CostReport(
        encoder=(per_degree * cfg.n_membership * h * w
                 if cfg.encoder == "fuzzy" else 0),
        first_conv=(cfg.conv_channels[0] * cfg.conv_input_channels()
                    * cfg.conv_kernel ** 2 * h_out * w_out),
        decoder_overhead=(cfg.m_population * len(ACTION_NAMES)
                          if cfg.decoder == "neural" else 0),
    )
