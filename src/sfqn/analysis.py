"""Closed-form information-capacity and multiplication-cost models.

Capacities are maximum entropies in bits (log2 of the state count) for the
competing input encodings and for the Q-value read-out; the cost model
counts scalar multiplications for the encoder stage and the first conv
layer, with a hook to compare against instrumented forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import conv2d_extents


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


def _require_positive(**sizes: int) -> None:
    for name, v in sizes.items():
        if v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v}")


def capacity(c: int, h: int, w: int, t: int, n: int, m: int) -> CapacityReport:
    _require_positive(C=c, H=h, W=w, T=t, N=n, M=m)
    pixels = c * h * w
    return CapacityReport(
        raw_bits=32 * pixels,
        rate_bits=t * pixels,
        pop_bits=n * t * pixels,
        q_raw_bits=32,
        q_pop_bits=m * t,
    )


@dataclass
class ConvSpec:
    c_out: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass
class CostReport:
    fuzzy_encoder: int       # c * N * h * w
    rate_encoder: int        # always 0: comparisons only
    first_conv: int          # c_out * c * l^2 * h_out * w_out over c channels
    decoder_overhead: int    # M * |A|


def cost_model(c: int, h: int, w: int, conv: ConvSpec, n: int, m: int,
               n_actions: int) -> CostReport:
    _require_positive(c=c, h=h, w=w, n=n, m=m, n_actions=n_actions,
                      c_out=conv.c_out, kernel=conv.kernel)
    h_out, w_out = conv2d_extents(h, w, conv.kernel, conv.stride, conv.padding)
    return CostReport(
        fuzzy_encoder=c * n * h * w,
        rate_encoder=0,
        first_conv=conv.c_out * c * conv.kernel ** 2 * h_out * w_out,
        decoder_overhead=m * n_actions,
    )
