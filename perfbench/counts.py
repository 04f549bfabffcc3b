"""Exact per-layer counts from a probe forward on a fixed batch.

Counts repeat bit for bit from run to run, so they can be compared across
commits:

* ``mults``: the program's own multiplication counter (``ad.count_mults``),
  armed around the encoder, each spiking population's ``step`` and the
  decoder stage; a second forward arms it around the whole forward, and the
  stage counts must sum to it.
* ``synops``: accumulate-only synaptic operations.  For every matmul or
  conv inside a population whose input entries all lie in {-1, 0, 1}:
  input nonzeros times fan-out (for a conv, nonzero im2col taps times
  output channels).  Real-valued inputs are multiply-accumulates and count
  under ``mults`` only.
* ``firing_rate``: nonzero fraction of a population's output over all T
  steps and the batch.
* ``graph_nodes`` / ``graph_mb``: autodiff nodes reachable from the Q output
  through ``Tensor.parents``, and the distinct array buffers they hold
  (node values plus arrays captured by backward closures).
"""

from __future__ import annotations

import numpy as np

from sfqn import autodiff as ad
from sfqn import fuzzy, qnet
from spans import POPULATIONS, Patch, populations

STAGES = ("encode",) + POPULATIONS + ("decode",)


def metric_names() -> list[str]:
    names = ["autodiff.mults", "autodiff.graph_nodes", "autodiff.graph_mb",
             "fuzzy.encode_mults", "fuzzy.encode_firing_rate",
             "fuzzy.decode_mults"]
    for p in POPULATIONS:
        names += [f"snn.{p}.mults", f"snn.{p}.synops", f"snn.{p}.firing_rate"]
    return names


def _is_spike(v: np.ndarray) -> bool:
    return bool(np.all((v == 0.0) | (v == 1.0) | (v == -1.0)))


def _matmul_synops(av: np.ndarray, b, *_) -> int:
    return int(np.count_nonzero(av)) * ad.as_tensor(b).shape[-1]


def _conv_synops(xv: np.ndarray, kernels, stride: int = 1,
                 padding: int = 0) -> int:
    if xv.ndim == 3:
        xv = xv[None]
    c_out, _, k, _ = ad.as_tensor(kernels).shape
    h_out, w_out = ad.conv2d_extents(xv.shape[2], xv.shape[3], k, stride,
                                     padding)
    nz = np.pad(xv != 0.0, ((0, 0), (0, 0), (padding, padding),
                            (padding, padding)))
    taps = sum(int(np.count_nonzero(
        nz[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride]))
        for i in range(k) for j in range(k))
    return taps * c_out


def graph_size(out: ad.Tensor) -> tuple[int, float]:
    """(node count, MiB of distinct buffers) of the graph behind `out`."""
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [out]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        held = [t.value]
        if t._backward is not None and t._backward.__closure__:
            held += [cell.cell_contents for cell in t._backward.__closure__]
        for arr in held:
            if isinstance(arr, np.ndarray):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                buffers[id(arr)] = arr.nbytes
        stack.extend(t.parents)
    return len(seen), sum(buffers.values()) / 2 ** 20


def probe(net: qnet.QNetwork, bev: np.ndarray, lidar: np.ndarray,
          tally) -> dict[str, float]:
    """Count metrics for one forward of `net` on (bev, lidar).

    Cross-checks go to `tally`: the stage mults must sum to the
    whole-forward count, and `qnet.count_multiplications` must report
    analytic equal to measured for the encoder and the first conv.
    """
    stats = {s: {"mults": 0, "synops": 0, "fired": 0, "size": 0}
             for s in STAGES}
    current: list[str] = []

    def stage(name, fn):
        def run(*args, **kwargs):
            current.append(name)
            try:
                with ad.count_mults() as counter:
                    out = fn(*args, **kwargs)
            finally:
                current.pop()
            st = stats[name]
            st["mults"] += counter.mults
            for t in out if isinstance(out, list) else [out]:
                st["fired"] += int(np.count_nonzero(t.value))
                st["size"] += t.value.size
            return out
        return run

    def synops(kernel, count):
        def run(a, b, *rest):
            if current:
                av = ad.as_tensor(a).value
                if _is_spike(av):
                    stats[current[-1]]["synops"] += count(av, b, *rest)
            return kernel(a, b, *rest)
        return run

    patch = Patch()
    try:
        patch.set(ad, "matmul", synops(ad.matmul, _matmul_synops))
        patch.set(ad, "conv2d", synops(ad.conv2d, _conv_synops))
        patch.set(fuzzy, "fuzzy_encode", stage("encode", fuzzy.fuzzy_encode))
        patch.set(fuzzy, "accumulate_population",
                  stage("decode", fuzzy.accumulate_population))
        patch.set(fuzzy.NeuralDecoder, "__call__",
                  stage("decode", fuzzy.NeuralDecoder.__call__))
        for label, layer in populations(net):
            patch.set(layer, "step", stage(label, layer.step))
        net.forward(bev, lidar)
    finally:
        patch.restore()

    with ad.count_mults() as whole:
        q, _ = net.forward(bev, lidar)
    nodes, mib = graph_size(q)
    staged = sum(st["mults"] for st in stats.values())
    tally.check(staged == whole.mults,
                f"stage mults sum to {staged}, whole forward counts "
                f"{whole.mults}")
    for part, rec in qnet.count_multiplications(net).items():
        if isinstance(rec, dict):
            tally.check(rec["analytic"] == rec["measured"],
                        f"count_multiplications {part}: analytic "
                        f"{rec['analytic']} != measured {rec['measured']}")

    def rate(st):
        return st["fired"] / st["size"] if st["size"] else 0.0

    out = {"autodiff.mults": whole.mults, "autodiff.graph_nodes": nodes,
           "autodiff.graph_mb": mib,
           "fuzzy.encode_mults": stats["encode"]["mults"],
           "fuzzy.encode_firing_rate": rate(stats["encode"]),
           "fuzzy.decode_mults": stats["decode"]["mults"]}
    for p in POPULATIONS:
        out[f"snn.{p}.mults"] = stats[p]["mults"]
        out[f"snn.{p}.synops"] = stats[p]["synops"]
        out[f"snn.{p}.firing_rate"] = rate(stats[p])
    return out
