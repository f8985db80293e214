"""Dense float64 kernels with hand-written backward passes.

Every kernel here is a pure function of numpy arrays: float64 in, float64
out, no hidden state. Backward functions take the upstream gradient plus
whatever the forward cached and return gradients for each differentiable
input. `entropy` and `kl` are the one implementation of the per-token
entropy and KL that selection, the objective and the sampler all use.

Reductions rely on numpy's fixed evaluation order, so identical inputs give
bit-identical outputs run to run.
"""

from __future__ import annotations

import math

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
# entropy and KL of log-probability rows
# -----------------------------------------------------------------------------


def prob_weighted(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """p * x with the convention 0 * x == 0 (x = -inf included), without NaN warnings."""
    return p * np.where(p > 0.0, x, 0.0)


def entropy(log_probs: np.ndarray) -> np.ndarray:
    """Shannon entropy -sum(p log p) in nats of each row of log_probs (..., V), unclamped."""
    return -np.sum(prob_weighted(np.exp(log_probs), log_probs), axis=-1)


def kl(log_probs: np.ndarray, ref_log_probs: np.ndarray) -> np.ndarray:
    """KL(p || q) = sum(p (log p - log q)) in nats per row of aligned (..., V) arrays.

    No clamping: roundoff can leave a row a hair below zero.
    """
    if log_probs.shape != ref_log_probs.shape:
        raise DimensionError(
            f"policy/reference shapes differ: {log_probs.shape} vs {ref_log_probs.shape}"
        )
    return np.sum(prob_weighted(np.exp(log_probs), log_probs - ref_log_probs), axis=-1)


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


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian-error-linear unit: x * Phi(x).

    Returns (out, Phi(x)); the cdf feeds gelu_backward, so the backward calls
    no erf. Halving is exact, so x * (0.5 * (1 + erf)) is the same rounded
    product as 0.5 * x * (1 + erf).
    """
    x = as_f64(x)
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def gelu_backward(grad_out: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx gelu(x) = Phi(x) + x * phi(x), with Phi(x) = cdf from `gelu`."""
    phi = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
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
