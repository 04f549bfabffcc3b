"""Minimal dense-array reverse-mode autodiff.

Values are numpy arrays of rank <= 4: float64, except spikes, which are
int8 (`SPIKE_DTYPE`, one byte per spike and per saved copy of it).  An op
on spikes alone keeps int8 (a sum of two spike tensors holds small exact
integers); any other op gives float64, and BLAS products and reductions
read an int8 operand through a float64 copy in its memory layout, so
results are bitwise those of float64 spikes.

A `Tensor` holds a value; each Tensor that takes a gradient also has a
graph node (`_Node`) that holds its gradient, its parents' nodes and its
backward rule, never a value.  A backward rule holds exactly the arrays it
reads (saved operands, masks, membranes, patches) and the nodes it
accumulates into, never an operand Tensor, so the graph keeps only what
backward reads: an interior value no rule reads goes as soon as the
forward drops its Tensor.
`Tensor.backward()` walks the graph once in reverse topological order and
accumulates gradients (shared subexpressions sum).  The walk consumes the
graph: each interior node drops its gradient, rule and parent links once it
has passed its gradient on, so saved arrays are freed during the walk and a
graph runs backward once.  A Tensor takes a gradient exactly when it has
a node; constants (inputs wrapped by `as_tensor`, Tensors built only from
constants, and values computed inside `no_grad()`) take none, not even
from a later graph: an op whose operands take none returns a constant
before it builds a node or a backward rule (`_unary`, `_binary`).  Spike
nonlinearities get a hard forward (Heaviside) with an arctangent surrogate
derivative that is computed only when backward runs.  `spike_recurrence`
runs a whole (L)IF membrane recurrence over T steps as one node, with
backpropagation through time in its backward, and `triangular_membership`
evaluates a bank of triangular membership functions as one node.

A process-global multiplication counter can be armed with `count_mults()`;
the dense kernels (matmul, conv2d, triangular membership eval) report the
number of scalar multiplications they execute while it is armed; `conv2d`
computes only the samples whose input holds a nonzero but counts the dense
operation.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Sequence

import numpy as np

MAX_RANK = 4


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class NumericError(ArithmeticError):
    """Non-finite value produced by a forward pass."""


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

# The dtype of spikes: exact 0/1 (and -1 for ternary neurons) at one byte.
SPIKE_DTYPE = np.int8


def _as_array(value) -> np.ndarray:
    """int8 spikes as they are, anything else as float64."""
    arr = np.asarray(value)
    if arr.dtype != SPIKE_DTYPE:
        arr = arr.astype(np.float64, copy=False)
    if arr.ndim > MAX_RANK:
        raise ShapeError(f"rank {arr.ndim} exceeds maximum {MAX_RANK}")
    return arr


class MultCounter:
    """Scalar multiplications executed by instrumented kernels inside one
    `count_mults()` block."""

    def __init__(self):
        self.mults = 0


class _Flags:
    """Process-wide switches set by the `no_grad` and `count_mults` context
    managers."""
    grad = True
    counter: MultCounter | None = None


@contextlib.contextmanager
def _set_flag(name: str, value):
    """Set one `_Flags` switch for the duration of a block and restore its
    previous value on exit, also after an exception; yields `value`."""
    prev = getattr(_Flags, name)
    setattr(_Flags, name, value)
    try:
        yield value
    finally:
        setattr(_Flags, name, prev)


def no_grad():
    """Ops inside the block record no graph nodes, so the outputs are
    constants, also in later graphs, and no graph is kept alive."""
    return _set_flag("grad", False)


def count_mults():
    """Count the block's multiplications into the `MultCounter` it binds;
    a nested block counts alone, and the outer one resumes after it."""
    return _set_flag("counter", MultCounter())


def record_mults(n: int) -> None:
    c = _Flags.counter
    if c is not None:
        c.mults += int(n)


class _Node:
    """Graph record of a Tensor that takes a gradient: its accumulated
    `grad`, its parents' nodes and its backward rule.  It holds no value
    (`value` reads None), so the graph keeps an array only where a backward
    rule saved it."""

    __slots__ = ("grad", "parents", "_backward")
    value = None

    def __init__(self, parents: tuple["_Node", ...] = (),
                 backward: Callable[[np.ndarray], None] | None = None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self._backward = backward


class Tensor:
    """A value, and the graph node of a value that takes a gradient.

    A Tensor takes a gradient exactly when it has a node, and is otherwise
    a constant.  A leaf is a parameter unless built with `constant=True`;
    an op output is built from its operands' nodes (None for a constant,
    and for every operand inside `no_grad`) and has a node only if one of
    them is one.  `grad`, `parents` and `_backward` read the node, and a
    backward rule holds only the arrays it reads, never a Tensor, so an
    interior value no rule reads goes when the forward drops the Tensor."""

    __slots__ = ("value", "name", "_node")

    def __init__(self, value, parents: Sequence[_Node | None] = (),
                 backward: Callable[[np.ndarray], None] | None = None,
                 name: str | None = None, constant: bool = False):
        self.value = _as_array(value)
        if any(parents):                # an operand takes a gradient
            self._node = _Node(tuple(p for p in parents if p), backward)
        else:                           # a leaf is a parameter unless constant
            self._node = None if parents or constant else _Node()
        self.name = name

    constant = property(lambda self: self._node is None)

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = g
        elif g is not None:
            raise ValueError("a constant takes no gradient")

    @property
    def parents(self) -> tuple["_Node", ...]:
        return () if self._node is None else self._node.parents

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        return None if self._node is None else self._node._backward

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def check_finite(self) -> "Tensor":
        if not np.all(np.isfinite(self.value)):
            raise NumericError(f"non-finite values in tensor {self.name or ''}")
        return self

    # -- graph traversal ----------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of self w.r.t. every reachable parent.

        Visits each node exactly once in reverse topological order and
        consumes the graph as it goes: once an interior node (one with
        parents) has passed its gradient on, it drops its gradient, its
        backward closure and its parent links, so the arrays its closure
        saved are freed during the walk.  Leaves keep `.grad`.  Backward
        therefore runs once per graph; a second `backward()` that reaches a
        consumed node raises `ValueError`.  A `seed` must have the output's
        shape (`ShapeError` otherwise).
        """
        if (root := self._node) is None:
            raise ValueError("backward() of a constant, which has no graph")
        if seed is None:
            if self.value.size != 1:
                raise ShapeError("backward() without seed requires a scalar output")
            seed = np.ones(self.value.shape)
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != self.value.shape:
            raise ShapeError(f"backward() seed of shape {seed.shape} for an "
                             f"output of shape {self.value.shape}")
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))

        for node in topo:
            node.grad = None
        root.grad = seed

        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node.parents:
                node.grad, node._backward, node.parents = None, _consumed, ()

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, name={self.name!r})"


def _consumed(g) -> None:
    """Backward rule left on an interior node after backward passed it."""
    raise ValueError("backward() reached a node of a graph that an earlier "
                     "backward() consumed; run the forward again to get a "
                     "new graph")


def as_tensor(x) -> Tensor:
    """`x` itself if it is a Tensor, else `x` as a constant."""
    return x if isinstance(x, Tensor) else Tensor(x, constant=True)


class Module:
    """A layer whose parameters are found by walking its attributes in
    assignment order (dict attributes in insertion order): every `Tensor`
    attribute is a parameter, named by its Tensor name.
    """

    def named_parameters(self) -> dict[str, Tensor]:
        return {item.name: item for value in vars(self).values()
                for item in (value.values() if isinstance(value, dict)
                             else (value,))
                if isinstance(item, Tensor)}

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())


def _f64(v: np.ndarray) -> np.ndarray:
    """`v` itself if float64, else a float64 copy in `v`'s memory layout, so
    that BLAS reads an int8 operand exactly as it read a float64 one."""
    return v.astype(np.float64, copy=False)


def _grad_node(t: Tensor) -> _Node | None:
    """The node that `t`'s gradient accumulates into, or None if `t` takes
    none (a constant, or any operand inside `no_grad`)."""
    return t._node if _Flags.grad else None


def _acc(node: _Node, g: np.ndarray) -> None:
    """Lazily accumulate a gradient contribution into `node`."""
    node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def _unary(a: Tensor, out_val: np.ndarray, grad,
           x: np.ndarray | None = None, y: np.ndarray | None = None) -> Tensor:
    """Output of a one-operand op, as `_binary` with one operand: its
    gradient is `grad(g, x, y)`, accumulated as it is."""
    na = _grad_node(a)
    if na is None:
        return Tensor(out_val, constant=True)

    def backward(g):
        _acc(na, grad(g, x, y))

    return Tensor(out_val, (na,), backward)


def _binary(a: Tensor, b: Tensor, out_val: np.ndarray, grad_a, grad_b,
            x: np.ndarray | None = None, y: np.ndarray | None = None) -> Tensor:
    """Output of a broadcasting binary op or `matmul`.  `grad_a(g, x, y)`
    and `grad_b(g, x, y)` are the operands' gradients at the output's shape,
    from the arrays `x` and `y` the op saves for them; each is summed down
    to its operand's shape and accumulated only if that operand takes one.
    If neither does, the output is a constant and no rule is built; else
    the rule holds `x` and `y` itself, the graph's only copy of them."""
    na, nb = _grad_node(a), _grad_node(b)
    if na is None and nb is None:
        return Tensor(out_val, constant=True)
    shape_a, shape_b = a.value.shape, b.value.shape

    def backward(g):
        if na is not None:
            _acc(na, _unbroadcast(grad_a(g, x, y), shape_a))
        if nb is not None:
            _acc(nb, _unbroadcast(grad_b(g, x, y), shape_b))

    return Tensor(out_val, (na, nb), backward)


def _upstream(g, x, y):
    return g


def _times_x(g, x, y):
    return g * x


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value + b.value, _upstream, _upstream)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value - b.value, _upstream, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    """Saves each operand only for the other operand's gradient."""
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value * b.value, lambda g, x, y: g * y,
                   _times_x, None if b.constant else a.value,
                   None if a.constant else b.value)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _binary(a, b, a.value / b.value, lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y ** 2),
                   None if b.constant else a.value, b.value)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.value > 0  # derivative 0 at exactly 0 (left limit)
    return _unary(a, np.where(mask, a.value, 0.0), _times_x, mask)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_val = np.exp(a.value)
    return _unary(a, out_val, _times_x, out_val)


def minimum(a, b) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.value <= b.value
    return _binary(a, b, np.where(take_a, a.value, b.value),
                   _times_x, lambda g, x, y: g * ~x, take_a)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.value >= b.value
    return _binary(a, b, np.where(take_a, a.value, b.value),
                   _times_x, lambda g, x, y: g * ~x, take_a)


# ---------------------------------------------------------------------------
# reductions / shaping
# ---------------------------------------------------------------------------

def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.value.shape
    return _unary(a, a.value.sum(axis=axis, dtype=np.float64),
                  lambda g, x, y: np.broadcast_to(
                      g if axis is None else np.expand_dims(g, axis), shape))


def tmean(a) -> Tensor:
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.value.size)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    in_shape = a.value.shape
    return _unary(a, a.value.reshape(shape),
                  lambda g, x, y: g.reshape(in_shape))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    return _unary(a, a.value.transpose(axes),
                  lambda g, x, y: g.transpose(x), np.argsort(axes))


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_val = np.concatenate([t.value for t in tensors], axis=axis)
    splits = np.cumsum([t.value.shape[axis] for t in tensors])[:-1]
    nodes = [_grad_node(t) for t in tensors]
    if not any(nodes):
        return Tensor(out_val, constant=True)

    def backward(g):
        for node, piece in zip(nodes, np.split(g, splits, axis=axis)):
            if node is not None:
                _acc(node, piece)

    return Tensor(out_val, nodes, backward)


# ---------------------------------------------------------------------------
# dense kernels
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product; supports stacked (batched) operands via np.matmul."""
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError("matmul requires rank >= 2 operands")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.value.shape} @ {b.value.shape}")
    out_val = np.matmul(_f64(a.value), _f64(b.value))
    record_mults(out_val.size // out_val.shape[-1] * a.value.shape[-1]
                 * b.value.shape[-1])
    shared = b.value.ndim == 2          # a shared weight: one GEMM
    # each operand is saved only for the other one's gradient
    return _binary(a, b, out_val,
                   lambda g, x, y: np.matmul(g, np.swapaxes(_f64(y), -1, -2)),
                   lambda g, x, y: (_f64(x).reshape(-1, x.shape[-1]).T
                                    @ g.reshape(-1, g.shape[-1]) if shared
                                    else np.matmul(np.swapaxes(_f64(x), -1, -2),
                                                   g)),
                   None if b.constant else a.value,
                   None if a.constant else b.value)


# Elements per block of `spike_recurrence` and of the `conv2d` backward: a
# block's buffers (256 KiB each in float64) stay in a 2 MiB per-core L2
# cache while they are reused.
SPIKE_BLOCK = 1 << 15


def conv2d_extents(h: int, w: int, l: int, stride: int, padding: int):
    """Output extents of an l x l kernel at the given stride/padding;
    `ShapeError` unless l >= 1, stride >= 1, padding >= 0 and the kernel
    fits."""
    if l < 1 or stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs kernel >= 1, stride >= 1 and "
                         f"padding >= 0, got kernel {l}, stride {stride}, "
                         f"padding {padding}")
    h_out = (h + 2 * padding - l) // stride + 1
    w_out = (w + 2 * padding - l) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"kernel {l} exceeds padded input {h}x{w} (p={padding})")
    return h_out, w_out


@functools.lru_cache(maxsize=None)
def _patch_index(c: int, h: int, w: int, l: int, stride: int,
                 padding: int) -> np.ndarray:
    """`conv2d`'s patch-index map of one geometry, built once, read-only."""
    h_out, w_out = conv2d_extents(h, w, l, stride, padding)
    taps = np.arange(l)[:, None]
    r = (stride * np.arange(h_out) + taps - padding)[:, None, :, None]
    q = (stride * np.arange(w_out) + taps - padding)[None, :, None, :]
    cell = np.arange(c)[:, None, None, None, None] * (h * w) + r * w + q
    inside = (r >= 0) & (r < h) & (q >= 0) & (q < w)
    idx = np.where(inside, cell, c * h * w).reshape(c * l * l, h_out * w_out)
    idx.flags.writeable = False
    return idx


def conv2d(x, kernels, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding, as im2col + GEMM.

    `x` is (C,H,W) or batched (B,C,H,W); `kernels` is (C_out,C,l,l).  One
    patch-index map per geometry sends patch entry (c*l*l + i*l + j,
    oh*Wo + ow) to the flat index of x[c, oh*s+i-p, ow*s+j-p] in its
    sample, or, for a tap in the padding, to a zero slot after the sample's
    C*H*W values.  Forward gathers the patch matrix along it with `np.take`,
    only for the live samples (those with a nonzero or NaN input), and runs
    one GEMM per live sample; a dead sample's output is exact zeros.  The zero-padded slots and
    the patches keep the input's dtype, so the patches of spikes that the
    kernel gradient reads are int8.  The multiplication count
    is that of the dense operation.  Backward computes the kernel gradient
    from the live samples' patches; the input gradient covers every sample
    and runs over blocks of whole samples, about SPIKE_BLOCK patch entries
    each: per block one GEMM writes the patch gradients into a reused
    buffer, and one `np.bincount` through a block-sized index adds each
    input cell's taps in kernel order.
    """
    x, kernels = as_tensor(x), as_tensor(kernels)
    if x.value.ndim not in (3, 4) or kernels.value.ndim != 4:
        raise ShapeError("conv2d expects (B,C,H,W) input and (Cout,C,l,l) kernels")
    c_out, c_k, l, l2 = kernels.value.shape
    b, (c, h, w) = (x.shape[0] if x.value.ndim == 4 else 1), x.shape[-3:]
    if l != l2 or c != c_k:
        raise ShapeError(f"conv2d kernels {kernels.shape} are not square "
                         f"or do not match the {c} input channels")
    h_out, w_out = conv2d_extents(h, w, l, stride, padding)

    idx = _patch_index(c, h, w, l, stride, padding)
    rows = x.value.reshape(b, c * h * w)
    live = np.flatnonzero(rows.any(axis=1))       # NaN counts as nonzero
    dense = live.size == b
    slots = np.zeros((live.size, c * h * w + 1),  # last slot: the zero pad
                     x.value.dtype)
    slots[:, :-1] = rows if dense else rows[live]
    cols = np.take(slots, idx, axis=1)            # (live, C*l*l, Ho*Wo)
    kmat = kernels.value.reshape(c_out, c * l * l)
    out = np.matmul(kmat, _f64(cols))             # (live, Cout, Ho*Wo)
    if not dense:                                 # dead rows give exact zeros
        out, live_out = np.zeros((b,) + out.shape[1:]), out
        out[live] = live_out
    record_mults(out.size * kmat.shape[1])
    out = out.reshape(x.shape[:-3] + (c_out, h_out, w_out))
    nx, nk = _grad_node(x), _grad_node(kernels)
    if nx is None and nk is None:
        return Tensor(out, constant=True)
    x_shape = x.value.shape

    def backward(g):
        gmat = g.reshape(b, c_out, h_out * w_out)
        if nk is not None:
            # the axis-0 sum adds slice by slice, so leaving out the dead
            # rows' all-zero slices changes no bit
            _acc(nk, np.matmul(gmat if dense else gmat[live],
                               _f64(cols).transpose(0, 2, 1)).sum(0)
                 .reshape(c_out, c, l, l))
        if nx is None:
            return
        n = c * h * w + 1
        step = max(1, min(b, SPIKE_BLOCK // idx.size))
        index = (idx + n * np.arange(step)[:, None, None]).ravel()
        dcols = np.empty((step,) + idx.shape)
        dx = np.empty((b, n - 1))
        for lo in range(0, b, step):
            m = min(step, b - lo)
            np.matmul(kmat.T, gmat[lo:lo + m], out=dcols[:m])
            dx[lo:lo + m] = np.bincount(
                index[:m * idx.size], weights=dcols[:m].ravel(),
                minlength=m * n).reshape(m, n)[:, :-1]
        _acc(nx, dx.reshape(x_shape))

    return Tensor(out, (nx, nk), backward)


# ---------------------------------------------------------------------------
# spike nonlinearity
# ---------------------------------------------------------------------------

def arctan_surrogate_grad(u: np.ndarray, alpha: float,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Derivative of (1/pi) arctan(pi*alpha*u/2) + 1/2 at u (u = v - threshold).

    With `out` (which may be `u` itself) every step writes there and
    nothing is allocated."""
    z = np.multiply(math.pi * alpha / 2.0, u, out=out)
    np.square(z, out=z)
    return np.divide(alpha / 2.0, np.add(z, 1.0, out=z), out=z)


def split_steps(shape, t_steps: int) -> tuple[int, ...]:
    """(T*B, ...) -> (T, B, ...): row t*B + b is step t of sample b."""
    if t_steps < 1:
        raise ShapeError(f"simulation window of {t_steps} steps is empty")
    if not shape or shape[0] % t_steps:
        raise ShapeError(f"leading axis of {tuple(shape)} is not a multiple "
                         f"of {t_steps} steps")
    return (t_steps, shape[0] // t_steps) + tuple(shape[1:])


def _fire(v: np.ndarray, theta: float, out: np.ndarray,
          below: bool = False) -> None:
    """Spikes of membrane `v` into `out`: v >= theta (v <= theta if
    `below`)."""
    (np.less_equal if below else np.greater_equal)(v, theta, out=out)


def surrogate_spike(u, threshold: float = 1.0, alpha: float = 2.0) -> Tensor:
    """Heaviside(u - threshold) forward (>= fires), arctangent surrogate backward."""
    if alpha <= 0:
        raise ValueError("surrogate alpha must be positive")
    u = as_tensor(u)
    out_val = np.empty(u.shape, SPIKE_DTYPE)
    _fire(u.value, threshold, out_val)
    return _unary(u, out_val, lambda g, x, y: g * arctan_surrogate_grad(
        x - threshold, alpha), u.value)


def surrogate_spike_below(u, threshold: float, alpha: float = 2.0) -> Tensor:
    """Heaviside(threshold - u): fires 1 when u <= threshold (ternary
    negative arm), as `surrogate_spike` of -u at -threshold."""
    return surrogate_spike(-as_tensor(u), -threshold, alpha)


def spike_recurrence(x, t_steps: int, theta_pos: float = 1.0,
                     theta_neg: float | None = None, tau: float | None = None,
                     alpha: float = 2.0, repeat: bool = False) -> Tensor:
    """Spikes of one neuron population driven for `t_steps` steps.

    `x` holds the input current of every step, T-major: row t*B + b is step
    t of sample b.  With `repeat`, `x` is one (B, ...) current that drives
    every step, and its gradient sums the steps' in order 0..T-1.  The
    membrane starts at 0 and, per step,
    v <- v + (x_t - v)/tau (LIF), or v <- v + x_t with `tau=None` (IF);
    a spike fires at v >= theta_pos and subtracts theta_pos.  With
    `theta_neg`, the reset membrane then emits -1 at v <= theta_neg and
    subtracts theta_neg.  This is the per-step graph of `surrogate_spike`
    and `surrogate_spike_below` fused into one node, whose backward runs
    backpropagation through time with the arctangent surrogate derivative,
    reset path included.

    One inner loop runs all T steps over one block of whole samples (about
    SPIKE_BLOCK neurons) before the next, writing into the output or into
    block-sized float64 buffers reused across blocks and steps.  Forward
    runs it for the spikes.  The node keeps the pre-threshold membranes,
    or under `repeat` only the drive, from which backward reruns the loop
    to rebuild one block's membranes into a (T, block) buffer; it keeps
    nothing, and builds no backward rule, if `x` takes no gradient.
    Backward rebuilds each reset membrane from its pre-threshold one by the
    forward's fire and subtract, and writes each step's input gradient over
    that step's membrane once it has read it for the last time.  The
    per-element operations and their order are those of the per-step graph,
    so results are bitwise equal to it.
    """
    if alpha <= 0:
        raise ValueError("surrogate alpha must be positive")
    x = as_tensor(x)
    shape = split_steps((t_steps * x.shape[0],) + x.shape[1:]
                        if repeat and x.shape else x.shape, t_steps)
    decay = None if tau is None else 1.0 / tau
    # blocks of whole samples, `step` samples (about SPIKE_BLOCK neurons) each
    step = max(1, min(shape[1], SPIKE_BLOCK // max(1, math.prod(shape[2:]))))
    blocks = [slice(b, min(b + step, shape[1]))
              for b in range(0, shape[1], step)]

    def run(xb, v, tmp, s, pres=None, out=None):
        """All T steps of one block of n samples from (T, n, ...) input `xb`
        into (n, ...) buffers; membranes to `pres`, spikes to `out`, if set."""
        v.fill(0.0)
        for t, x_t in enumerate(xb):
            pre = v if pres is None else pres[t]
            if decay is None:
                np.add(v, x_t, out=pre)
            else:
                np.multiply(np.subtract(x_t, v, out=tmp), decay, out=tmp)
                np.add(v, tmp, out=pre)
            _fire(pre, theta_pos, s)
            np.subtract(pre, np.multiply(s, theta_pos, out=tmp), out=v)
            if theta_neg is not None:
                _fire(v, theta_neg, tmp, below=True)
                np.subtract(s, tmp, out=s)
                np.subtract(v, np.multiply(tmp, theta_neg, out=tmp), out=v)
            if out is not None:
                out[t] = s

    # both are views, also of a non-contiguous input
    xs = np.broadcast_to(x.value, shape) if repeat else x.value.reshape(shape)
    spikes = np.empty(shape, SPIKE_DTYPE)
    nx = _grad_node(x)
    pre_pos = None if nx is None or repeat else np.empty(shape)
    bufs = np.empty((3, step) + shape[2:])
    for blk in blocks:
        run(xs[:, blk], *bufs[:, :blk.stop - blk.start],
            None if pre_pos is None else pre_pos[:, blk], spikes[:, blk])
    spikes = spikes.reshape((-1,) + shape[2:])
    if nx is None:
        return Tensor(spikes, constant=True)
    x_shape = x.value.shape

    def grad(g, saved, _):
        # `saved` is the drive under `repeat`, else the membranes; each
        # step's input gradient overwrites that step's membrane (rebuilt
        # under `repeat`), which backward has then read for the last time
        g = g.reshape(shape)
        dx = np.empty(x_shape) if repeat else saved
        bufs = np.empty((4, step) + shape[2:])
        rebuilt = np.empty((t_steps, step) + shape[2:]) if repeat else None
        for blk in blocks:
            n = blk.stop - blk.start
            dv, ds, tmp, mid = bufs[:, :n]
            if repeat:
                pres = dxs = rebuilt[:, :n]
                run(np.broadcast_to(saved, shape)[:, blk], dv, ds, tmp, pres)
            else:
                pres = dxs = saved[:, blk]
            dv.fill(0.0)               # dL/d(membrane after step t)
            for t in reversed(range(t_steps)):
                if theta_neg is not None:
                    _fire(pres[t], theta_pos, mid)          # the reset membrane
                    np.subtract(pres[t], np.multiply(mid, theta_pos, out=mid),
                                out=mid)
                    np.subtract(np.negative(g[t, blk], out=ds),
                                np.multiply(dv, theta_neg, out=tmp), out=ds)
                    np.subtract(theta_neg, mid, out=tmp)
                    np.multiply(ds, arctan_surrogate_grad(tmp, alpha, tmp),
                                out=ds)
                    np.subtract(dv, ds, out=dv)
                np.subtract(g[t, blk], np.multiply(dv, theta_pos, out=tmp),
                            out=ds)
                np.subtract(pres[t], theta_pos, out=tmp)
                np.multiply(ds, arctan_surrogate_grad(tmp, alpha, tmp), out=ds)
                np.add(dv, ds, out=dv)
                if decay is None:
                    np.copyto(dxs[t], dv)
                else:
                    np.multiply(dv, decay, out=dxs[t])
                    np.subtract(dv, dxs[t], out=dv)
            if repeat:
                np.copyto(dx[blk], dxs[0])
                for d in dxs[1:]:
                    np.add(dx[blk], d, out=dx[blk])
        return dx.reshape(x_shape)

    return _unary(x, spikes, grad, x.value if repeat else pre_pos)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def layernorm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gv = gamma.value
    out_val = xhat * gv + beta.value
    nx, ng, nb = _grad_node(x), _grad_node(gamma), _grad_node(beta)
    if nx is None and ng is None and nb is None:
        return Tensor(out_val, constant=True)
    shape_g, shape_b = gv.shape, beta.value.shape

    def backward(g):
        if ng is not None:
            _acc(ng, _unbroadcast(g * xhat, shape_g))
        if nb is not None:
            _acc(nb, _unbroadcast(g, shape_b))
        if nx is not None:
            gx = g * gv
            _acc(nx, inv * (gx - gx.mean(axis=-1, keepdims=True)
                            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return Tensor(out_val, (nx, ng, nb), backward)


# ---------------------------------------------------------------------------
# triangular membership
# ---------------------------------------------------------------------------

def triangular_membership(p, a, b, c) -> Tensor:
    """Membership degrees relu(min((p-a)/(b-a), (c-p)/(c-b))) of the
    constant points `p` under triangles (a, b, c), as one node.

    `a`, `b` and `c` broadcast against `p`, say (N, 1, ...) banks against
    (1, ...) points.  The forward runs the elementwise steps of that
    composition of `sub`, `div`, `minimum` and `relu` in their order, so a
    tie goes to the rising edge and a degree of exactly 0 passes no
    gradient.  The rule keeps a copy of the points and the three bank
    values; backward recomputes the edges and masks from them and hands a,
    b and c each the two terms the composed rules hand them, so degrees and
    gradients are bitwise those of the composition.
    """
    a, b, c = as_tensor(a), as_tensor(b), as_tensor(c)
    pv = _as_array(p)
    av, bv, cv = a.value, b.value, c.value
    up, down = (pv - av) / (bv - av), (cv - pv) / (cv - bv)
    m = np.where(up <= down, up, down)
    out_val = np.where(m > 0, m, 0.0)
    na, nb, nc = _grad_node(a), _grad_node(b), _grad_node(c)
    if na is None and nb is None and nc is None:
        return Tensor(out_val, constant=True)
    pts = np.array(pv)                  # the caller may change its points

    def backward(g):
        x1, y1, x2, y2 = pts - av, bv - av, cv - pts, cv - bv
        up, down = x1 / y1, x2 / y2
        take = up <= down
        drop = ~take
        # `relu`'s mask m > 0 of m = where(take, up, down), built from
        # bool arrays, which is faster than `where` on floats
        g = g * ((take & (up > 0)) | (drop & (down > 0)))
        del up, down
        g_up, g_down = g * take, g * drop                   # `minimum`
        del g, take, drop
        # `div`, then `sub`: the rising edge's numerator p - a hands a one
        # term and its denominator b - a hands a and b one each; the
        # falling edge's c - p and c - b do the same for c and b
        g_y1 = _unbroadcast(-g_up * x1 / (y1 ** 2), y1.shape)
        g_a = _unbroadcast(-(g_up / y1), av.shape)
        del g_up, x1
        g_y2 = _unbroadcast(-g_down * x2 / (y2 ** 2), y2.shape)
        g_c = _unbroadcast(g_down / y2, cv.shape)
        del g_down, x2
        if na is not None:
            _acc(na, g_a + _unbroadcast(-g_y1, av.shape))
        if nb is not None:
            _acc(nb, _unbroadcast(g_y1, bv.shape)
                 + _unbroadcast(-g_y2, bv.shape))
        if nc is not None:
            _acc(nc, g_c + _unbroadcast(g_y2, cv.shape))

    return Tensor(out_val, (na, nb, nc), backward)
