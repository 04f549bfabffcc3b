"""The benchmark harness under perfbench/ reaches into sfqn by name: it wraps
layer callables while tracing and counts per-layer operations on a probe
forward.  These tests fail when a change to sfqn removes or renames
something the harness relies on."""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import counts  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sfqn.config import ABLATION_MATRIX, parse_config  # noqa: E402
from sfqn.qnet import NetworkConfig, QNetwork  # noqa: E402

TINY = parse_config("grid_size = 8\nconv_channels = 2,4\nc_emb = 8\n"
                    "n_heads = 2\nd_ff = 16\nfc_hidden = 16\ndec_hidden = 8\n"
                    "t_steps = 2\n")


@pytest.mark.parametrize("variant", ABLATION_MATRIX)
def test_traced_callables_exist(variant):
    net = QNetwork(TINY.network_config(0, variant))
    targets = list(spans.traced_callables([net]))
    assert len(targets) > len(spans.AUTODIFF_OPS) + len(spans.POPULATIONS)
    for owner, attr, span in targets:
        assert callable(getattr(owner, attr, None)), span


@pytest.mark.parametrize("variant", ABLATION_MATRIX)
def test_tracer_round_trip(variant):
    # `run.py --trace 1` replaces every traced callable; one it cannot
    # replace (on a class with __slots__, say) fails here, and uninstall
    # must put each original back
    net = QNetwork(TINY.network_config(0, variant))
    targets = list(spans.traced_callables([net]))

    def own():
        return [(attr in vars(owner), vars(owner).get(attr))
                for owner, attr, _ in targets]

    before = own()
    rec = spans.Recorder()
    rec.install([net])
    try:
        net.forward(*np.random.default_rng(0).random((2, 3, 1, 8, 8)))
    finally:
        rec.uninstall()
    assert own() == before
    called = {rec.names[i] for i in rec.name}
    assert "qnet.QNetwork.forward" in called
    assert {f"snn.{label}.step" for label, _ in spans.populations(net)} \
        <= called


@pytest.mark.parametrize("variant", ABLATION_MATRIX)
def test_probe_counts_without_failures(variant):
    net = QNetwork(TINY.network_config(0, variant))
    rng = np.random.default_rng(0)
    bev, lidar = rng.random((2, 3, 1, 8, 8))
    tally = workloads.Tally()
    out = counts.probe(net, bev, lidar, tally)
    assert tally.failed == 0, tally.errors
    assert tally.attempted > 0
    assert set(out) == set(counts.metric_names())
    assert out["autodiff.mults"] > 0


# Exact `counts.probe` values of every variant on TINY for the probe batch
# above: multiplications, synaptic operations and firing rates per stage.
# Graph size may fall with autodiff changes and is not pinned.  A kernel
# rewrite that keeps these counts keeps what the cost tables report.
COUNT_PINS = json.loads(
    (Path(__file__).parent / "probe_count_pins.json").read_text())


@pytest.mark.parametrize("variant", ABLATION_MATRIX)
def test_probe_counts_pinned(variant):
    net = QNetwork(TINY.network_config(0, variant))
    rng = np.random.default_rng(0)
    bev, lidar = rng.random((2, 3, 1, 8, 8))
    out = counts.probe(net, bev, lidar, workloads.Tally())
    assert {k: out[k] for k in COUNT_PINS[variant]} == COUNT_PINS[variant]


def test_graph_mb_counts_what_the_forward_retains():
    """`counts.graph_size` reports every buffer the graph keeps: its MiB
    equals the array memory tracemalloc sees a forward retain, plus the
    parameter buffers that backward rules saved (allocated before the
    forward, so tracemalloc does not see them).  What separates the two is
    the parameters no rule reads (biases, positional tables) and the input
    images a rule saves, about 10 KiB here, so a buffer the count misses
    fails this at well under 1 MiB."""
    net = QNetwork(NetworkConfig(obs_hw=(16, 16)))
    bev, lidar = np.random.default_rng(0).random((2, 8, 1, 16, 16))
    arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(arrays)
        q, _ = net.forward(bev, lidar)
        after = tracemalloc.take_snapshot().filter_traces(arrays)
    finally:
        tracemalloc.stop()
    retained = sum(s.size_diff for s in after.compare_to(before, "filename"))
    params = sum(p.value.nbytes for p in net.parameters())
    _, mib = counts.graph_size(q)
    assert retained > 2 ** 22
    assert mib * 2 ** 20 == pytest.approx(retained + params, abs=2 ** 16)
