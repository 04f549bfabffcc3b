"""Reference implementations that the tests check the system against.

None of these run in training, evaluation or the benchmark:
- `soft_spikes` makes every spike op forward the smooth arctangent
  surrogate, so that finite differences see the function whose derivative
  the surrogate backward computes;
- `grad_check` compares reverse mode with central finite differences
  (criterion 5);
- `centroid_positions` and `decode_centroid` are the discrete centroid
  defuzzifier that the neural decoder learns (criterion 6);
- `ternary_scores_addonly` computes ternary attention scores with
  additions only.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable

import numpy as np

from sfqn import autodiff as ad
from sfqn.autodiff import NumericError, Tensor


@contextlib.contextmanager
def soft_spikes(alpha: float = 2.0):
    """Spike ops forward (1/pi) arctan(pi*alpha*u/2) + 1/2 of u = v - theta
    (theta - v for the negative arm) in place of the hard threshold, and
    spikes are float64, since they are not binary; both are restored on
    exit, also after an exception."""
    def fire(v, theta, out, below=False):
        u = theta - v if below else v - theta
        np.copyto(out, np.arctan(math.pi * alpha * u / 2.0) / math.pi + 0.5)

    hard, dtype = ad._fire, ad.SPIKE_DTYPE
    ad._fire, ad.SPIKE_DTYPE = fire, np.float64
    try:
        yield
    finally:
        ad._fire, ad.SPIKE_DTYPE = hard, dtype


def grad_check(f: Callable[[Tensor], Tensor], x: np.ndarray,
               step: float = 1e-3) -> float:
    """Max relative error between reverse-mode and central finite differences.

    `f` maps a Tensor to a scalar Tensor.  Where the analytic path goes
    through surrogate spikes, this checks against the surrogate derivative
    (the graph's own backward), which is the documented contract.
    """
    x = np.asarray(x, dtype=np.float64)
    xt = Tensor(x.copy())
    out = f(xt)
    out.check_finite()
    out.backward()
    analytic = xt.grad.copy()

    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(Tensor(x.copy())).value)
        flat[i] = orig - step
        fm = float(f(Tensor(x.copy())).value)
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError("non-finite output during finite differencing")
        numeric.reshape(-1)[i] = (fp - fm) / (2 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def centroid_positions(m: int) -> np.ndarray:
    """Fixed uniform defuzzification grid on [-1, 1]."""
    if m == 1:
        return np.zeros(1)
    return np.linspace(-1.0, 1.0, m)


def decode_centroid(lam, positions) -> np.ndarray:
    """Discrete centroid defuzzification per action.

    `lam` has shape (A, M) or flat (A*M,) with per-action blocks; an action
    with zero total mass decodes to the midpoint of the position grid.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if np.any(np.diff(positions) <= 0) and positions.size > 1:
        raise ValueError("positions must be strictly increasing")
    lam = np.asarray(lam.value if isinstance(lam, Tensor) else lam,
                     dtype=np.float64)
    if lam.ndim == 1:
        lam = lam.reshape(-1, positions.size)
    mass = lam.sum(axis=-1)
    midpoint = 0.5 * (positions[0] + positions[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        q = (lam * positions).sum(axis=-1) / mass
    return np.where(mass == 0.0, midpoint, q)


def ternary_scores_addonly(q: np.ndarray, k: np.ndarray):
    """Attention scores Q K^T computed with additions only.

    Entries of q (n,d) and k (m,d) must lie in {-1,0,+1}; returns the raw
    integer score matrix and the number of multiplications used (always 0).
    Reference path for the energy argument; tests compare it to the float
    matmul result.
    """
    for arr in (q, k):
        if not np.all(np.isin(arr, (-1.0, 0.0, 1.0))):
            raise ValueError("ternary score path requires entries in {-1,0,1}")
    # score = #(matching nonzero signs) - #(opposite signs), per (i, j)
    qe, ke = q[:, None, :], k[None, :, :]
    nonzero = qe != 0.0
    same = np.sum((qe == ke) & nonzero, axis=-1)
    opposite = np.sum((qe == -ke) & nonzero, axis=-1)
    return (same - opposite).astype(np.float64), 0
