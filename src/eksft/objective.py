"""Training objectives with analytic logit gradients.

Five methods share one objective: a (possibly weighted) NLL sum over the
supervised positions, plus entropy and KL sums over the regularized
positions. `objective_terms`, the one entry point of training, computes it
for a micro-batch in two parts:

  * `stop_gradient_constants` picks, per method, the supervised and
    regularized (B, L) position sets and the DFT weights;
  * `objective_sums`, the differentiable core, returns the sums and their
    exact gradients w.r.t. the logits for those constants.

`normalize_step` normalizes an optimizer step's G micro-batch sums once, in
logit space: the loss is ce_sum/N_sup - l_H * h_sum/N_reg + l_KL * kl_sum/N_reg
(counts summed over the step) and a micro-batch's logit gradient is
d_ce_sum/N_sup + d_reg_sum/N_reg, on which training runs one model `backward`.

The per-row entropy and KL are `numerics.entropy` and `numerics.kl`, the
same kernels that rank tokens in `selection`; their logit gradients are
analytic, and the finite-difference checks test them through this module.

Per-token logit gradients used here:
  nll:      softmax(z) - onehot(y)
  entropy:  dH/dz_j  = -p_j (log p_j + H)
  kl:       dKL/dz_j =  p_j (log p_j - log q_j - KL)     (q = reference, fixed)

The selection mask, the DFT weight, and the reference distribution are all
treated as constants during differentiation, so gradients at masked
positions contain no one-hot target term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nk
from . import selection as sel
from .errors import ConfigError, InputError
from .selection import MaskSet, TokenStats

METHODS = ("sft", "eksft", "dft", "random_mask", "global_reg")


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


def _nll_sum(
    log_probs: np.ndarray,
    targets: np.ndarray,
    where: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Sum of (optionally weighted) -log p(y) over `where`; gradient w.r.t. logits."""
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


def _entropy_sum(log_probs: np.ndarray, where: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of per-row entropies over `where`; gradient w.r.t. logits."""
    bi, li = np.nonzero(where)
    d = np.zeros_like(log_probs)
    lp = log_probs[bi, li]
    h = nk.entropy(lp)
    d[bi, li] = -nk.prob_weighted(np.exp(lp), lp + h[:, None])
    return float(h.sum()), d


def _kl_sum(
    log_probs: np.ndarray, ref_log_probs: np.ndarray, where: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sum of per-row KL(policy || reference) over `where`; gradient w.r.t. policy logits."""
    bi, li = np.nonzero(where)
    d = np.zeros_like(log_probs)
    lp = log_probs[bi, li]
    rlp = ref_log_probs[bi, li]
    kl = nk.kl(lp, rlp)
    d[bi, li] = nk.prob_weighted(np.exp(lp), lp - rlp - kl[:, None])
    return float(kl.sum()), d


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
    """Unnormalized per-micro-batch pieces of one objective; see `normalize_step`."""

    ce_sum: float
    n_sup: int
    d_ce_sum: np.ndarray
    h_sum: float
    kl_sum: float
    n_reg: int
    d_reg_sum: np.ndarray | None  # grad of (-l_H * h_sum + l_KL * kl_sum), already weighted
    lambda_h: float
    lambda_kl: float
    mask: MaskSet | None = None
    stats: list[TokenStats] = field(default_factory=list)


def stop_gradient_constants(
    method: str,
    log_probs: np.ndarray,
    targets: np.ndarray,
    valid_mask: np.ndarray,
    stats: list[TokenStats],
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
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
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
        mask = MaskSet(chosen, chosen, chosen, k, n)
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
    """NLL, entropy and KL sums with their logit gradients, for fixed constants."""
    ce_sum, d_ce_sum = _nll_sum(log_probs, targets, constants.supervised, constants.weights)
    reg = constants.regularized
    n_reg = 0 if reg is None else int(reg.sum())
    h_sum = kl_sum = 0.0
    d_reg_sum: np.ndarray | None = None
    if n_reg:
        h_sum, dh = _entropy_sum(log_probs, reg)
        kl_sum, dkl = _kl_sum(log_probs, ref_log_probs, reg)
        if lambda_h != 0.0 or lambda_kl != 0.0:
            d_reg_sum = -lambda_h * dh + lambda_kl * dkl
    return ObjectiveTerms(
        ce_sum=ce_sum,
        n_sup=int(constants.supervised.sum()),
        d_ce_sum=d_ce_sum,
        h_sum=h_sum,
        kl_sum=kl_sum,
        n_reg=n_reg,
        d_reg_sum=d_reg_sum,
        lambda_h=lambda_h,
        lambda_kl=lambda_kl,
        mask=constants.mask,
    )


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
    """Sum-form loss pieces for one micro-batch of any supported method."""
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


@dataclass(frozen=True)
class StepObjective:
    """One optimizer step's objective, normalized over all its micro-batches."""

    total: float  # ce - l_H * h + l_KL * kl
    ce: float  # ce_sum / N_sup
    h: float  # h_sum / N_reg
    kl: float  # kl_sum / N_reg
    n_sup: int  # N_sup
    dlogits: list[np.ndarray | None]  # per micro-batch; None: nothing to back-propagate


def normalize_step(terms: list[ObjectiveTerms]) -> StepObjective:
    """Normalize a step's micro-batch sums once; an empty position set contributes zero.

    A micro-batch's logit gradient is d_ce_sum/N_sup + d_reg_sum/N_reg, or None
    when it supervises nothing and has no regularizer gradient.
    """
    n_sup = sum(t.n_sup for t in terms)
    n_reg = sum(t.n_reg for t in terms)
    ce = sum(t.ce_sum for t in terms) / n_sup if n_sup else 0.0
    h = sum(t.h_sum for t in terms) / n_reg if n_reg else 0.0
    kl = sum(t.kl_sum for t in terms) / n_reg if n_reg else 0.0
    dlogits = []
    for t in terms:
        d = t.d_ce_sum / n_sup if t.n_sup else None
        if t.d_reg_sum is not None:
            d_reg = t.d_reg_sum / n_reg
            d = d_reg if d is None else d + d_reg
        dlogits.append(d)
    total = ce - terms[0].lambda_h * h + terms[0].lambda_kl * kl
    return StepObjective(total, ce, h, kl, n_sup, dlogits)

