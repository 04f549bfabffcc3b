import itertools

import pytest

from sfqn.analysis import ConvSpec, capacity, cost_model
from sfqn.autodiff import ShapeError, conv2d_extents


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


def test_cost_model_worked_numbers():
    rep = cost_model(c=3, h=8, w=8, conv=ConvSpec(8, 3, 1, 1), n=3, m=5,
                     n_actions=5)
    assert rep.fuzzy_encoder == 576      # c * N * h * w
    assert rep.first_conv == 13824       # 8 * 3 * 9 * 8 * 8
    assert rep.rate_encoder == 0
    assert rep.decoder_overhead == 25    # M * |A|


def test_cost_model_shape_grid():
    for c, hw, c_out, l, s, p in itertools.product(
            (1, 3), (8, 16, 32), (4, 8), (3, 5), (1, 2), (0, 1)):
        conv = ConvSpec(c_out, l, s, p)
        rep = cost_model(c, hw, hw, conv, 3, 5, 5)
        h_out, w_out = conv2d_extents(hw, hw, l, s, p)
        assert rep.fuzzy_encoder == c * 3 * hw * hw
        assert rep.first_conv == c_out * c * l * l * h_out * w_out
        # with N=3 <= c_out*l^2 the encoder is always cheaper than the conv
        assert rep.fuzzy_encoder < rep.first_conv


def test_cost_model_rejects_empty_output():
    with pytest.raises(ValueError):
        cost_model(1, 2, 2, ConvSpec(4, 5, 1, 0), 3, 5, 5)


@pytest.mark.parametrize("name", ["c", "h", "w", "n", "m", "n_actions",
                                  "c_out", "kernel"])
@pytest.mark.parametrize("bad", [0, -8])
def test_cost_model_rejects_sizes_below_one(name, bad):
    sizes = dict(c=1, h=8, w=8, n=3, m=5, n_actions=5)
    conv = {"c_out": 8, "kernel": 3}
    (conv if name in conv else sizes)[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be a positive"):
        cost_model(conv=ConvSpec(conv["c_out"], conv["kernel"], 2, 1),
                   **sizes)


def test_conv2d_extents_rejects_kernel_below_one():
    with pytest.raises(ShapeError, match="kernel >= 1"):
        conv2d_extents(8, 8, 0, 1, 0)
    with pytest.raises(ShapeError, match="got kernel -1"):
        conv2d_extents(8, 8, -1, 1, 1)
