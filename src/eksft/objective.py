"""Training objectives with analytic logit gradients.

Five methods share one objective: a (possibly weighted) NLL mean over the
supervised positions, with an entropy bonus and a KL penalty, each a mean
over the regularized positions. `METHODS` names, per method, the
hyper-parameters it reads: none for sft and dft, rho (the Top-K ratio) for
eksft, drop_fraction for random_mask, and the weights lambda_h and
lambda_kl for the three that regularize. `objective_terms`, the one entry
point of training, computes it for one batch (one optimizer step) in two
parts:

  * `stop_gradient_constants` picks, per method, the supervised and
    regularized (B, L) position sets and the DFT weights; eksft and
    random_mask read the batch's token statistics, the record array of
    `selection.stats_from_log_probs`, which `ObjectiveTerms.stats` keeps;
  * `objective_sums`, the differentiable core, returns the normalized loss
    ce_sum/N_sup - l_H * h_sum/N_reg + l_KL * kl_sum/N_reg and its exact
    gradient w.r.t. the logits, d_ce_sum/N_sup + d_reg_sum/N_reg, for those
    constants; training runs one model `backward` on it. It is a function
    of the logits alone, so it computes the regularized rows' entropy and
    KL again rather than take them from the statistics: the
    finite-difference checks then probe exactly the path that trains, and
    selection's KL_FLOOR clamp never reaches the loss.

The per-row entropy and KL are `numerics.entropy` and `numerics.kl`, the
same kernels that rank tokens in `selection`; their logit gradients are
analytic, and the finite-difference checks test them through this module.

Per-token logit gradients used here:
  nll:      softmax(z) - onehot(y)
  entropy:  dH/dz_j  = -p_j (log p_j + H)
  kl:       dKL/dz_j =  p_j (log p_j - log q_j - KL)     (q = reference, fixed)

`nll_sum` is the one log-likelihood gradient: DFT weights it by p(y) and the
RL update (`train._rl_update`) by -dL/dlog p(y), of either sign (REINFORCE).

The selection mask, the DFT weight, and the reference distribution are all
treated as constants during differentiation, so gradients at masked
positions contain no one-hot target term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nk
from . import selection as sel
from .errors import ConfigError, InputError
from .selection import MaskSet

# method -> the SftConfig fields its objective reads, besides those every method reads
METHODS = {
    "sft": (),
    "eksft": ("rho", "lambda_h", "lambda_kl"),
    "dft": (),
    "random_mask": ("drop_fraction", "lambda_h", "lambda_kl"),
    "global_reg": ("lambda_h", "lambda_kl"),
}


# -----------------------------------------------------------------------------
# per-position building blocks (sums, not means)
# -----------------------------------------------------------------------------


def _validate_batch(logits: np.ndarray, targets: np.ndarray, valid_mask: np.ndarray) -> None:
    if logits.ndim != 3:
        raise InputError(f"logits must be (B, L, V), got shape {logits.shape}")
    if targets.shape != logits.shape[:2] or valid_mask.shape != logits.shape[:2]:
        raise InputError(
            f"targets {targets.shape} / valid_mask {valid_mask.shape} do not match logits {logits.shape}"
        )
    if valid_mask.any():
        v = logits.shape[-1]
        seen = targets[valid_mask]
        if seen.min() < 0 or seen.max() >= v:
            raise InputError(f"targets out of range [0, {v})")


def nll_sum(
    log_probs: np.ndarray,
    targets: np.ndarray,
    where: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Sum of (optionally weighted) -log p(y) over `where`; gradient w.r.t. logits.

    weights, one per position of `where` in row-major order, may be negative.
    """
    bi, li = np.nonzero(where)
    d = np.zeros_like(log_probs)
    y = targets[bi, li]
    nll = -log_probs[bi, li, y]
    rows = np.exp(log_probs[bi, li])
    rows[np.arange(bi.size), y] -= 1.0
    if weights is not None:
        nll = weights * nll
        rows = weights[:, None] * rows
    d[bi, li] = rows
    return float(nll.sum()), d


def _regularizer_sums(log_probs, ref_log_probs, where, lambda_h, lambda_kl):
    """Sums over `where` of the per-row entropy and KL(policy || reference), and
    the gradient of -lambda_h * H + lambda_kl * KL w.r.t. the policy logits."""
    bi, li = np.nonzero(where)
    lp, rlp = log_probs[bi, li], ref_log_probs[bi, li]
    h, kl, p = nk.entropy(lp), nk.kl(lp, rlp), np.exp(lp)
    d = np.zeros_like(log_probs)
    d[bi, li] = (lambda_h * nk.prob_weighted(p, lp + h[:, None])
                 + lambda_kl * nk.prob_weighted(p, lp - rlp - kl[:, None]))
    return float(h.sum()), float(kl.sum()), d


# -----------------------------------------------------------------------------
# the objective: stop-gradient constants, then the differentiable sums
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Constants:
    """Stop-gradient inputs of the objective, fixed before differentiation."""

    supervised: np.ndarray  # (B, L) bool: positions in the NLL sum
    regularized: np.ndarray | None  # (B, L) bool: positions in the entropy/KL sums
    weights: np.ndarray | None  # DFT: one weight per supervised position, row-major
    mask: MaskSet | None  # the selection behind `regularized` (eksft, random_mask)


@dataclass
class ObjectiveTerms:
    """One batch's objective, normalized: total = ce - l_H * h + l_KL * kl.

    An empty position set contributes zero: ce is 0 when nothing is
    supervised, h and kl are 0 when nothing is regularized.
    """

    total: float
    ce: float  # ce_sum / N_sup
    h: float  # h_sum / N_reg
    kl: float  # kl_sum / N_reg
    n_sup: int  # N_sup
    dlogits: np.ndarray | None  # d total / d logits; None: nothing to back-propagate
    mask: MaskSet | None = None
    stats: np.recarray | None = None  # `selection.stats_from_log_probs`, set by objective_terms


def stop_gradient_constants(
    method: str,
    log_probs: np.ndarray,
    targets: np.ndarray,
    valid_mask: np.ndarray,
    stats: np.recarray,
    *,
    rho: float = 0.2,
    drop_fraction: float = 0.1,
    rng: np.random.Generator | None = None,
) -> Constants:
    """The method's supervised set, regularized set and DFT weights.

    eksft regularizes its Top-K union mask and random_mask a uniform draw of
    the same size rule; both supervise the rest. global_reg supervises and
    regularizes every valid token; sft and dft supervise every valid token.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    if method == "global_reg":
        return Constants(valid_mask, valid_mask, None, None)
    if method in ("sft", "dft"):
        weights = None
        if method == "dft":
            bi, li = np.nonzero(valid_mask)
            weights = np.exp(log_probs[bi, li, targets[bi, li]])
        return Constants(valid_mask, None, weights, None)

    if method == "eksft":
        mask = sel.build_mask(stats, rho)
    else:
        if rng is None:
            raise ConfigError("random_mask needs an rng")
        if not (0.0 <= drop_fraction < 1.0):
            raise ConfigError(f"drop_fraction must lie in [0, 1), got {drop_fraction}")
        n = len(stats)
        k = sel.selected_count(drop_fraction, n)
        chosen = np.zeros(n, dtype=bool)
        if k:
            chosen[rng.choice(n, size=k, replace=False)] = True
        mask = MaskSet(chosen, chosen)
    regularized = np.zeros_like(valid_mask)
    regularized[valid_mask] = mask.m_union
    return Constants(valid_mask & ~regularized, regularized, None, mask)


def objective_sums(
    log_probs: np.ndarray,
    ref_log_probs: np.ndarray,
    targets: np.ndarray,
    constants: Constants,
    lambda_h: float,
    lambda_kl: float,
) -> ObjectiveTerms:
    """The normalized loss and its logit gradient, for fixed constants.

    The logit gradient is d_ce_sum/N_sup + d_reg_sum/N_reg, or None when the
    batch supervises nothing and has no regularizer gradient.
    """
    ce_sum, d_ce_sum = nll_sum(log_probs, targets, constants.supervised, constants.weights)
    n_sup = int(constants.supervised.sum())
    reg = constants.regularized
    n_reg = 0 if reg is None else int(reg.sum())
    ce = ce_sum / n_sup if n_sup else 0.0
    dlogits = d_ce_sum / n_sup if n_sup else None
    h = kl = 0.0
    if n_reg:
        h_sum, kl_sum, d_reg_sum = _regularizer_sums(log_probs, ref_log_probs, reg,
                                                     lambda_h, lambda_kl)
        h, kl = h_sum / n_reg, kl_sum / n_reg
        if lambda_h != 0.0 or lambda_kl != 0.0:
            d_reg = d_reg_sum / n_reg
            dlogits = d_reg if dlogits is None else dlogits + d_reg
    total = ce - lambda_h * h + lambda_kl * kl
    return ObjectiveTerms(total, ce, h, kl, n_sup, dlogits, constants.mask)


def objective_terms(
    method: str,
    logits: np.ndarray,
    reference_logits: np.ndarray,
    targets: np.ndarray,
    valid_mask: np.ndarray,
    *,
    rho: float = 0.2,
    lambda_h: float = 0.05,
    lambda_kl: float = 0.05,
    drop_fraction: float = 0.1,
    rng: np.random.Generator | None = None,
) -> ObjectiveTerms:
    """The normalized objective of one batch for any supported method."""
    if lambda_h < 0 or lambda_kl < 0:
        raise ConfigError(f"regularizer weights must be >= 0, got {lambda_h}, {lambda_kl}")
    _validate_batch(logits, targets, valid_mask)
    log_probs = nk.log_softmax(logits)
    ref_log_probs = nk.log_softmax(reference_logits)
    stats = sel.stats_from_log_probs(log_probs, ref_log_probs, valid_mask)
    constants = stop_gradient_constants(
        method, log_probs, targets, valid_mask, stats,
        rho=rho, drop_fraction=drop_fraction, rng=rng,
    )
    terms = objective_sums(log_probs, ref_log_probs, targets, constants, lambda_h, lambda_kl)
    terms.stats = stats
    return terms
