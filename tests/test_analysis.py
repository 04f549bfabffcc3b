import itertools

import pytest

from sfqn.analysis import capacity, cost_model
from sfqn.autodiff import ShapeError, conv2d_extents
from sfqn.qnet import VARIANTS, NetworkConfig


def test_capacity_worked_numbers():
    rep = capacity(c=1, h=4, w=4, t=5, n=3, m=5)
    assert rep.raw_bits == 512           # 32 * 1 * 4 * 4
    assert rep.rate_bits == 80           # 5 * 16
    assert rep.pop_bits == 240           # 3 * 80
    assert rep.q_raw_bits == 32
    assert rep.q_pop_bits == 25          # M * T


def test_capacity_formula_grid():
    grid = list(itertools.product((1, 3), (4, 8, 16), (4, 8, 16),
                                  (1, 5), (1, 3), (1, 5)))
    assert len(grid) >= 50
    for c, h, w, t, n, m in grid:
        rep = capacity(c, h, w, t, n, m)
        pixels = c * h * w
        assert rep.raw_bits == 32 * pixels
        assert rep.rate_bits == t * pixels
        assert rep.pop_bits == n * t * pixels
        assert rep.q_raw_bits == 32
        assert rep.q_pop_bits == m * t
        assert rep.pop_over_rate == n    # exact ratio, all inputs


def test_capacity_rejects_nonpositive():
    with pytest.raises(ValueError):
        capacity(0, 4, 4, 5, 3, 5)
    with pytest.raises(ValueError):
        capacity(1, 4, 4, 5, -1, 5)


# (encoder, first_conv, decoder_overhead) on an 8x8 grid, stride 1,
# padding 1, N=3, M=5: the first conv has 8 * C' * 9 * 8 * 8 multiplications
WORKED_COSTS = {
    "fuzzy": (192, 13824, 25),          # N*H*W; C' = N = 3; M*|A|
    "fuzzy_ws": (192, 13824, 0),
    "gaussian": (384, 13824, 25),       # two multiplications per degree
    "rate": (0, 4608, 0),               # comparisons only; C' = 1
    "nonspiking": (0, 4608, 0),
}


def test_cost_model_worked_numbers():
    assert sorted(WORKED_COSTS) == sorted(VARIANTS)
    for variant, costs in WORKED_COSTS.items():
        rep = cost_model(NetworkConfig(variant=variant, obs_hw=(8, 8),
                                       conv_stride=1))
        assert (rep.encoder, rep.first_conv, rep.decoder_overhead) == costs


def test_cost_model_shape_grid():
    grid = list(itertools.product(sorted(VARIANTS), (8, 16, 32), (4, 8),
                                  (3, 5), (1, 2), (0, 1), (2, 3)))
    for variant, hw, c_out, l, s, p, n in grid:
        cfg = NetworkConfig(variant=variant, obs_hw=(hw, hw), n_membership=n,
                            conv_channels=(c_out,), conv_kernel=l,
                            conv_stride=s, conv_padding=p)
        rep = cost_model(cfg)
        h_out = (hw + 2 * p - l) // s + 1
        fuzzy, gaussian = cfg.encoder == "fuzzy", variant == "gaussian"
        c_in = n if fuzzy else 1
        assert rep.encoder == ((2 if gaussian else 1) * n * hw * hw
                               if fuzzy else 0)
        assert rep.first_conv == c_out * c_in * l * l * h_out * h_out
        assert rep.decoder_overhead == (             # M=5, |A|=5
            25 if cfg.decoder == "neural" else 0)
        # the encoder is always cheaper than the first conv it feeds
        assert rep.encoder < rep.first_conv


def test_conv2d_extents_rejects_kernel_below_one():
    with pytest.raises(ShapeError, match="kernel >= 1"):
        conv2d_extents(8, 8, 0, 1, 0)
    with pytest.raises(ShapeError, match="got kernel -1"):
        conv2d_extents(8, 8, -1, 1, 1)
