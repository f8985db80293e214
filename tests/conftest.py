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


def normalized(terms: obj.ObjectiveTerms) -> tuple[float, np.ndarray]:
    """Per-batch loss and logit gradient of sum-form terms, normalized as train_sft does.

    loss = ce_sum/n_sup - l_H * h_sum/n_reg + l_KL * kl_sum/n_reg; an empty
    position set has zero sums and contributes nothing.
    """
    n_sup, n_reg = max(terms.n_sup, 1), max(terms.n_reg, 1)
    d = terms.d_ce_sum / n_sup
    if terms.d_reg_sum is not None:
        d = d + terms.d_reg_sum / n_reg
    total = obj.compose_total(
        terms.ce_sum / n_sup, terms.h_sum / n_reg, terms.kl_sum / n_reg,
        terms.lambda_h, terms.lambda_kl,
    )
    return total, d


def pinned_objective(method, logits0, reference_logits, targets, valid, *,
                     lambda_h=0.05, lambda_kl=0.05, **dispatch):
    """logits -> (normalized loss, logit gradient) through `objective_sums`, the
    core that training runs, with the method's stop-gradient constants (mask,
    DFT weights) pinned at logits0, as a finite-difference oracle needs."""
    lp0 = nk.log_softmax(logits0)
    ref_lp = nk.log_softmax(reference_logits)
    stats = sel.stats_from_log_probs(lp0, ref_lp, valid)
    constants = obj.stop_gradient_constants(method, lp0, targets, valid, stats, **dispatch)

    def loss(logits):
        terms = obj.objective_sums(
            nk.log_softmax(logits), ref_lp, targets, constants, lambda_h, lambda_kl
        )
        return normalized(terms)

    return loss
