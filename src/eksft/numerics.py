"""Dense float64 kernels with hand-written backward passes.

Every kernel here is a pure function of numpy arrays: float64 in, float64
out, no hidden state. Backward functions take the upstream gradient plus
whatever the forward cached and return gradients for each differentiable
input. `grad_check` is the finite-difference harness used to verify all of
them (and the full model on top of them).

Reductions rely on numpy's fixed evaluation order, so identical inputs give
bit-identical outputs run to run.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import DimensionError, NumericError

F64 = np.float64

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LAYER_NORM_EPS = 1e-5


def require_finite(name: str, arr: np.ndarray) -> None:
    """Raise NumericError if arr contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")


def as_f64(arr) -> np.ndarray:
    return np.asarray(arr, dtype=F64)


# -----------------------------------------------------------------------------
# matmul
# -----------------------------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (..., m, k) and b (k, n)."""
    a = as_f64(a)
    b = as_f64(b)
    if a.ndim < 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects a (...,m,k) and b (k,n); got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    return a @ b


def matmul_backward(
    grad_out: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(grad_out * (a @ b)) w.r.t. a and b."""
    grad_out = as_f64(grad_out)
    grad_a = grad_out @ b.T
    # Collapse any leading batch dimensions of a into the contraction.
    grad_b = np.tensordot(a, grad_out, axes=(tuple(range(a.ndim - 1)), tuple(range(grad_out.ndim - 1))))
    return grad_a, grad_b


# -----------------------------------------------------------------------------
# log-softmax
# -----------------------------------------------------------------------------


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log softmax over the last axis, stabilized by max subtraction."""
    z = as_f64(z)
    if z.shape[-1] < 2:
        raise DimensionError(f"log_softmax needs last dimension >= 2, got shape {z.shape}")
    require_finite("log_softmax input", z)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_backward(grad_out: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """dz for y = log_softmax(z): grad_out - softmax(z) * sum(grad_out)."""
    probs = np.exp(log_probs)
    return grad_out - probs * grad_out.sum(axis=-1, keepdims=True)


# -----------------------------------------------------------------------------
# layer norm
# -----------------------------------------------------------------------------


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LAYER_NORM_EPS
) -> tuple[np.ndarray, tuple]:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Returns (out, cache) where cache feeds layer_norm_backward.
    """
    x = as_f64(x)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise DimensionError(
            f"layer_norm gain/bias shapes {gain.shape}/{bias.shape} do not match feature dim {x.shape[-1:]}"
        )
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv, gain)


def layer_norm_backward(grad_out: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dgain, dbias)."""
    xhat, inv, gain = cache
    reduce_axes = tuple(range(grad_out.ndim - 1))
    dbias = grad_out.sum(axis=reduce_axes)
    dgain = (grad_out * xhat).sum(axis=reduce_axes)
    dxhat = grad_out * gain
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dgain, dbias


# -----------------------------------------------------------------------------
# gelu
# -----------------------------------------------------------------------------


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-error-linear unit: x * Phi(x)."""
    x = as_f64(x)
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d/dx gelu(x) = Phi(x) + x * phi(x)."""
    phi = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return grad_out * (cdf + x * phi)


# -----------------------------------------------------------------------------
# embedding lookup
# -----------------------------------------------------------------------------


def embedding_lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Gather rows of table (V, d) by integer ids (any shape)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError(
            f"embedding ids out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    return table[ids]


def embedding_lookup_backward(grad_out: np.ndarray, ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Scatter-add grad rows back to the table; repeated ids accumulate."""
    d = grad_out.shape[-1]
    dtable = np.zeros((vocab_size, d), dtype=F64)
    np.add.at(dtable, np.asarray(ids).reshape(-1), grad_out.reshape(-1, d))
    return dtable


# -----------------------------------------------------------------------------
# finite-difference gradient check
# -----------------------------------------------------------------------------


def grad_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    h: float = 1e-4,
    coords: Sequence[int] | None = None,
) -> float:
    """Compare f's analytic gradient against central finite differences.

    f maps a flat float64 vector to (scalar value, gradient of same shape).
    Returns max over checked coordinates of
    |analytic - fd| / (|fd| + 1e-8). `coords` restricts the check to a
    subset of coordinates (all by default); use this when evaluating f is
    expensive and the coordinate count is large.
    """
    point = as_f64(point).reshape(-1)
    _, analytic = f(point)
    analytic = as_f64(analytic).reshape(-1)
    if analytic.shape != point.shape:
        raise DimensionError(f"gradient shape {analytic.shape} does not match point {point.shape}")
    if coords is None:
        coords = range(point.size)
    worst = 0.0
    for i in coords:
        bumped = point.copy()
        bumped[i] = point[i] + h
        up, _ = f(bumped)
        bumped[i] = point[i] - h
        down, _ = f(bumped)
        fd = (up - down) / (2.0 * h)
        rel = abs(analytic[i] - fd) / (abs(fd) + 1e-8)
        if rel > worst:
            worst = rel
    return float(worst)


def informative_coords(
    grad: np.ndarray, k: int, rng: np.random.Generator, floor: float = 1e-4
) -> np.ndarray:
    """Coordinates worth finite-difference checking: |grad| above `floor`.

    At h=1e-4 a central difference of an O(1) loss carries ~1e-12 of rounding
    noise and ~(h^2/6)*f''' of truncation error, so coordinates with tiny
    true gradients measure oracle error rather than the formula under test.
    Picks k seeded coordinates among the informative ones (the single
    largest-|grad| coordinate always included).
    """
    flat = np.abs(np.asarray(grad).reshape(-1))
    candidates = np.nonzero(flat >= floor)[0]
    if candidates.size == 0:
        return np.array([int(flat.argmax())])
    if candidates.size <= k:
        return candidates
    chosen = set(rng.choice(candidates, size=k - 1, replace=False).tolist())
    chosen.add(int(flat.argmax()))
    return np.sort(np.fromiter(chosen, dtype=np.int64))
