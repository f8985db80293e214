"""Shared fixtures, batch helpers and the finite-difference (FD) tooling."""

import numpy as np
import pytest

from eksft import model as mdl
from eksft import numerics as nk
from eksft import objective as obj
from eksft import selection as sel


@pytest.fixture
def tiny_config():
    return mdl.ModelConfig(vocab_size=11, d_model=16, n_layers=2, n_heads=2, context_len=8, seed=3)


def random_log_probs(rng: np.random.Generator, v: int, scale: float = 2.0) -> np.ndarray:
    z = rng.normal(0.0, scale, size=v)
    z -= z.max()
    return z - np.log(np.exp(z).sum())


def random_batch(rng: np.random.Generator, cfg: mdl.ModelConfig, batch: int = 2, length: int = 6):
    ids = rng.integers(0, cfg.vocab_size, size=(batch, length))
    ids[:, 0] = 1
    targets = rng.integers(0, cfg.vocab_size, size=(batch, length))
    valid = rng.random((batch, length)) < 0.8
    valid[:, 1] = True  # at least one valid token per sequence
    return ids, targets, valid


def conditioned_point(cfg: mdl.ModelConfig, seed: int) -> mdl.ParameterSet:
    """Random weights at a scale where finite differences are well behaved."""
    params = mdl.init(cfg)
    for name in params.tensors:
        if params.tensors[name].ndim == 2:
            params.tensors[name] *= 10.0
    return params


def pinned_objective(method, logits0, reference_logits, targets, valid, *,
                     lambda_h=0.05, lambda_kl=0.05, **dispatch):
    """logits -> `ObjectiveTerms` (normalized loss and logit gradient) through
    `objective_sums`, the code that training runs, with the method's
    stop-gradient constants (mask, DFT weights) pinned at logits0, as a
    finite-difference oracle needs."""
    lp0 = nk.log_softmax(logits0)
    ref_lp = nk.log_softmax(reference_logits)
    stats = sel.stats_from_log_probs(lp0, ref_lp, valid)
    constants = obj.stop_gradient_constants(method, lp0, targets, valid, stats, **dispatch)

    def objective(logits):
        return obj.objective_sums(
            nk.log_softmax(logits), ref_lp, targets, constants, lambda_h, lambda_kl
        )

    return objective


def ce_grad_rows(probs, targets) -> np.ndarray:
    """softmax - onehot(y) for each row of probs (n, V), read off the logit
    gradient that training uses before it divides by N_sup: the NLL sum's gradient
    (`objective.nll_sum`) on a (1, n, V) batch whose logits are log(probs), -1e3
    where a prob is 0. Row i's entry at targets[i] is p_hat_y - 1 of that same softmax."""
    with np.errstate(divide="ignore"):
        logits = np.maximum(np.log(np.atleast_2d(np.asarray(probs, dtype=np.float64))), -1e3)[None]
    y = np.atleast_1d(np.asarray(targets))[None]
    return obj.nll_sum(nk.log_softmax(logits), y, np.ones(y.shape, bool))[1][0]


def ce_grad_sq_norm(probs_row, target: int) -> float:
    """||softmax - onehot(y)||^2 of one position, from `ce_grad_rows`."""
    row = ce_grad_rows(probs_row, [target])[0]
    return float(row @ row)


# -----------------------------------------------------------------------------
# finite-difference tooling
# -----------------------------------------------------------------------------


def grad_check(f, point: np.ndarray, h: float = 1e-4, coords=None) -> float:
    """Compare f's analytic gradient against central finite differences.

    f maps a flat float64 vector to (scalar value, gradient of same shape).
    Returns max over checked coordinates of |analytic - fd| / (|fd| + 1e-8).
    `coords` restricts the check to a subset of coordinates (all by default).
    """
    point = np.asarray(point, dtype=np.float64).reshape(-1)
    _, analytic = f(point)
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)
    assert analytic.shape == point.shape, f"gradient {analytic.shape} vs point {point.shape}"
    worst = 0.0
    for i in range(point.size) if coords is None else coords:
        bumped = point.copy()
        bumped[i] = point[i] + h
        up, _ = f(bumped)
        bumped[i] = point[i] - h
        down, _ = f(bumped)
        fd = (up - down) / (2.0 * h)
        worst = max(worst, abs(analytic[i] - fd) / (abs(fd) + 1e-8))
    return float(worst)


def informative_coords(grad: np.ndarray, k: int, rng: np.random.Generator,
                       floor: float = 1e-4) -> np.ndarray:
    """k seeded coordinates with |grad| >= floor, the largest-|grad| one always included.

    At h=1e-4 a central difference of an O(1) loss carries ~1e-12 of rounding
    noise and ~(h^2/6)*f''' of truncation error, so coordinates with tiny
    true gradients measure oracle error rather than the formula under test.
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


def model_fd_worst(params: mdl.ParameterSet, ids: np.ndarray, objective, k: int, coord_seed,
                   h: float = 1e-4) -> float:
    """Worst FD error, at k informative coordinates drawn by default_rng(coord_seed),
    of the parameter gradient that model `backward` makes of objective(forward(params, ids)),
    where `objective` maps logits to an `ObjectiveTerms` (its `total` and `dlogits`)."""

    def f(flat):
        p = mdl.ParameterSet(params.config, flat)
        logits, cache = mdl.forward(p, ids)
        terms = objective(logits)
        return terms.total, mdl.backward(p, cache, terms.dlogits)

    _, g = f(params.flat)
    coords = informative_coords(g, k, np.random.default_rng(coord_seed))
    return grad_check(f, params.flat, h=h, coords=coords)
