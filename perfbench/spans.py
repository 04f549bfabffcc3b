"""Run-time span recording around the public callables of each sfqn layer.

Nothing in ``src/`` is edited: `Patch` replaces module functions, class
methods and per-instance ``step`` methods with wrappers while a traced
phase runs, and puts the originals back afterwards.  Each call becomes one
span (name, start, end, parent); spans are kept in memory as parallel
arrays and written out when the run ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

import numpy as np

from sfqn import autodiff as ad
from sfqn import fuzzy, highway, qnet, snn, train

AUTODIFF_OPS = ("add", "sub", "mul", "div", "relu", "exp", "minimum",
                "maximum", "tsum", "tmean", "reshape", "transpose", "concat",
                "matmul", "conv2d", "surrogate_spike", "surrogate_spike_below",
                "layernorm")

POPULATIONS = ("m1.conv0", "m1.conv1", "m1.conv2", "m2.conv0", "m2.conv1",
               "m2.conv2", "m1.emb", "m2.emb", "cfl", "head")

LAYERS = ("autodiff", "qnet", "fuzzy", "snn", "train", "highway")


def populations(net: qnet.QNetwork):
    """(label, layer) for every spiking population, in POPULATIONS order."""
    for mod in ("m1", "m2"):
        for i, block in enumerate(net.convs[mod]):
            yield f"{mod}.conv{i}", block
    for mod in ("m1", "m2"):
        yield f"{mod}.emb", net.emb[mod]
    yield "cfl", net.cfl
    yield "head", net.head


def traced_callables(nets):
    """(owner, attribute, span name) for every callable the traced run wraps."""
    for op in AUTODIFF_OPS:
        yield ad, op, f"autodiff.{op}"
    yield ad.Tensor, "backward", "autodiff.Tensor.backward"
    for fn in ("fuzzy_encode", "membership_eval", "if_spike_train",
               "accumulate_population"):
        yield fuzzy, fn, f"fuzzy.{fn}"
    yield fuzzy.MembershipBank, "abc", "fuzzy.MembershipBank.abc"
    yield fuzzy.NeuralDecoder, "__call__", "fuzzy.NeuralDecoder.__call__"
    yield snn.Neuron, "step", "snn.Neuron.step"
    for net in nets:                     # online and target share span names
        for label, layer in populations(net):
            yield layer, "step", f"snn.{label}.step"
    for meth in ("forward", "q_values", "copy_parameters_from"):
        yield qnet.QNetwork, meth, f"qnet.QNetwork.{meth}"
    for fn in ("train_step", "bellman_target", "select_action", "evaluate",
               "evaluate_policy"):
        yield train, fn, f"train.{fn}"
    for meth in ("push", "sample"):
        yield train.ReplayBuffer, meth, f"train.ReplayBuffer.{meth}"
    for meth in ("step", "zero_grad"):
        yield train.Adam, meth, f"train.Adam.{meth}"
    for meth in ("reset", "step", "observe", "render_bev", "render_lidar_grid"):
        yield highway.HighwayEnv, meth, f"highway.HighwayEnv.{meth}"


class Patch:
    """Replaces attributes of modules, classes or instances; `restore`
    undoes every replacement in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        own = vars(owner)
        self._saved.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, had_own, old = self._saved.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


class Recorder:
    """In-memory span store: parallel arrays of name id, parent index and
    start/end times in nanoseconds."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self._patch = Patch()

    def wrap(self, span: str, fn):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        name, parent, start, end, open_ = (self.name, self.parent, self.start,
                                           self.end, self._open)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0)
            open_.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()

        return traced

    def install(self, nets) -> None:
        for owner, attr, span in traced_callables(nets):
            self._patch.set(owner, attr, self.wrap(span, getattr(owner, attr)))

    def uninstall(self) -> None:
        self._patch.restore()

    def save(self, path) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64))

    # -- summaries ------------------------------------------------------------

    def table(self, unit_span: str, scope_span: str | None) -> dict:
        """Per span name: calls, inclusive ms and self ms, each per unit.

        A unit is one `unit_span` call (an update, an act or an env step).
        With `scope_span`, only spans inside a `scope_span` call count.
        """
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e6
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ms = dur - child
        inside = np.ones(len(dur), dtype=bool)
        if scope_span is not None:
            root = names == self._ids.get(scope_span, -1)
            inside = root.copy()
            safe_parent = np.where(has_parent, parent, 0)
            while True:                  # parents precede children
                grown = root | (has_parent & inside[safe_parent])
                if np.array_equal(grown, inside):
                    break
                inside = grown
        units = int(np.count_nonzero(names == self._ids.get(unit_span, -1)))
        per = 1.0 / max(units, 1)
        n = len(self.names)
        calls = np.bincount(names[inside], minlength=n) * per
        incl = np.bincount(names[inside], weights=dur[inside], minlength=n) * per
        slf = np.bincount(names[inside], weights=self_ms[inside],
                          minlength=n) * per
        return {"units": units, "rows": {
            self.names[i]: {"calls": float(calls[i]), "incl_ms": float(incl[i]),
                            "self_ms": float(slf[i])}
            for i in range(n) if calls[i] > 0}}
