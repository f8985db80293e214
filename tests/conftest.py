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


def single_step(terms: obj.ObjectiveTerms) -> tuple[float, np.ndarray | None]:
    """(loss, logit gradient) of a step of one micro-batch, by `objective.normalize_step`."""
    step = obj.normalize_step([terms])
    return step.total, step.dlogits[0]


def pinned_objective(method, logits0, reference_logits, targets, valid, *,
                     lambda_h=0.05, lambda_kl=0.05, **dispatch):
    """logits -> (normalized loss, logit gradient) through `objective_sums` and
    `normalize_step`, the code that training runs, with the method's
    stop-gradient constants (mask, DFT weights) pinned at logits0, as a
    finite-difference oracle needs."""
    lp0 = nk.log_softmax(logits0)
    ref_lp = nk.log_softmax(reference_logits)
    stats = sel.stats_from_log_probs(lp0, ref_lp, valid)
    constants = obj.stop_gradient_constants(method, lp0, targets, valid, stats, **dispatch)

    def loss(logits):
        terms = obj.objective_sums(
            nk.log_softmax(logits), ref_lp, targets, constants, lambda_h, lambda_kl
        )
        return single_step(terms)

    return loss
