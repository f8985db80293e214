import math

import numpy as np
import pytest

from eksft import model as mdl
from eksft import numerics as nk
from eksft import objective as obj
from eksft import selection as sel
from eksft.errors import ConfigError, InputError

from conftest import (ce_grad_sq_norm, conditioned_point, grad_check, model_fd_worst,
                      pinned_objective, random_batch, single_step)


def _logits_from_probs(rows):
    """Logit rows whose log-softmax reproduces log(p) to float precision."""
    return np.log(np.asarray(rows, dtype=np.float64))


def _terms(method, logits, targets, valid, reference=None, **kw):
    ref = logits if reference is None else reference
    return obj.objective_terms(method, logits, ref, targets, valid, **kw)


def _masked(valid, positions):
    """Constants that regularize `positions` and supervise the rest of `valid`."""
    reg = np.zeros_like(valid)
    for b, t in positions:
        reg[b, t] = True
    return obj.Constants(valid & ~reg, reg, None, None)


def _sums(logits, constants, reference=None, targets=None, lambda_h=0.05, lambda_kl=0.05):
    lp = nk.log_softmax(logits)
    ref_lp = lp if reference is None else nk.log_softmax(reference)
    if targets is None:
        targets = np.zeros(logits.shape[:2], dtype=int)
    return obj.objective_sums(lp, ref_lp, targets, constants, lambda_h, lambda_kl)


def _fd_logits(loss, logits):
    """Worst FD error of a logits -> (loss, dlogits) function."""

    def f(flat):
        v, d = loss(flat.reshape(logits.shape))
        return v, d.reshape(-1)

    return grad_check(f, logits.reshape(-1))


def test_sft_loss_perfect_model_is_zero():
    logits = np.zeros((1, 3, 6))
    targets = np.array([[1, 2, 3]])
    logits[0, np.arange(3), targets[0]] = 60.0  # probability ~1 on each target
    loss, d = single_step(_terms("sft", logits, targets, np.ones((1, 3), bool)))
    assert loss <= 1e-12
    assert np.max(np.abs(d)) <= 1e-12


def test_sft_loss_uniform_is_log_v():
    logits = np.zeros((2, 4, 32))
    targets = np.zeros((2, 4), dtype=int)
    loss, _ = single_step(_terms("sft", logits, targets, np.ones((2, 4), bool)))
    assert loss == pytest.approx(math.log(32), abs=1e-12)


def test_sft_zero_valid_gives_empty_terms():
    terms = _terms("sft", np.zeros((1, 2, 4)), np.zeros((1, 2), int), np.zeros((1, 2), bool))
    assert terms.n_sup == 0 and terms.ce_sum == 0.0 and terms.n_reg == 0
    assert not terms.d_ce_sum.any() and terms.d_reg_sum is None
    assert terms.stats == []


def test_sft_logit_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(0)
    logits = rng.normal(0, 2, size=(1, 1, 9))
    targets = np.array([[4]])
    valid = np.ones((1, 1), bool)
    _, d = single_step(_terms("sft", logits, targets, valid))
    p = np.exp(nk.log_softmax(logits))[0, 0]
    e = np.zeros(9)
    e[4] = 1.0
    assert np.allclose(d[0, 0], p - e, atol=1e-15)
    assert _fd_logits(lambda z: single_step(_terms("sft", z, targets, valid)), logits) <= 1e-5


def test_masked_ce_hand_case():
    # two valid tokens with log-probs -1 and -2; masking the second leaves 1.0
    rows = np.zeros((1, 2, 4))
    p1 = np.full(4, (1 - math.exp(-1)) / 3.0)
    p1[0] = math.exp(-1)
    p2 = np.full(4, (1 - math.exp(-2)) / 3.0)
    p2[0] = math.exp(-2)
    rows[0, 0] = np.log(p1)
    rows[0, 1] = np.log(p2)
    terms = _sums(rows, _masked(np.ones((1, 2), bool), [(0, 1)]))
    assert terms.n_sup == 1
    assert terms.ce_sum == pytest.approx(1.0, abs=1e-12)


def test_masked_ce_empty_mask_equals_sft():
    rng = np.random.default_rng(1)
    logits = rng.normal(0, 2, size=(2, 5, 7))
    targets = rng.integers(0, 7, size=(2, 5))
    valid = rng.random((2, 5)) < 0.7
    valid[0, 0] = True
    sft = _terms("sft", logits, targets, valid)
    terms = _sums(logits, _masked(valid, []), targets=targets)
    assert terms.ce_sum == sft.ce_sum and terms.n_sup == sft.n_sup
    assert np.array_equal(terms.d_ce_sum, sft.d_ce_sum)
    assert terms.n_reg == 0 and terms.d_reg_sum is None


def test_masked_ce_full_mask_returns_zero():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(1, 3, 5))
    targets = rng.integers(0, 5, size=(1, 3))
    valid = np.ones((1, 3), bool)
    terms = _terms("eksft", logits, targets, valid, reference=rng.normal(size=(1, 3, 5)), rho=1.0)
    assert terms.n_sup == 0 and terms.n_reg == 3
    assert terms.ce_sum == 0.0
    assert np.all(terms.d_ce_sum == 0.0)


def test_entropy_reg_uniform_rows():
    terms = _sums(np.zeros((1, 2, 16)), _masked(np.ones((1, 2), bool), [(0, 0), (0, 1)]))
    assert terms.h_sum / terms.n_reg == pytest.approx(math.log(16), abs=1e-12)


def test_entropy_reg_peaked_rows_near_zero():
    logits = np.zeros((1, 2, 16))
    logits[:, :, 0] = 80.0
    terms = _sums(logits, _masked(np.ones((1, 2), bool), [(0, 0), (0, 1)]))
    assert terms.h_sum / terms.n_reg <= 1e-12


def test_entropy_reg_gradient_formula_and_fd():
    rng = np.random.default_rng(3)
    logits = rng.normal(0, 2, size=(1, 3, 8))
    valid = np.ones((1, 3), bool)
    # nothing supervised: the loss is -mean entropy over the two regularized rows
    constants = obj.Constants(np.zeros_like(valid), _masked(valid, [(0, 0), (0, 2)]).regularized,
                              None, None)
    _, d = single_step(_sums(logits, constants, lambda_h=1.0, lambda_kl=0.0))
    lp = nk.log_softmax(logits)
    p = np.exp(lp)
    for (b, t) in [(0, 0), (0, 2)]:
        h = -(p[b, t] * lp[b, t]).sum()
        expected = -p[b, t] * (lp[b, t] + h) / 2.0  # d(mean entropy) over the 2 rows
        assert np.allclose(-d[b, t], expected, atol=1e-14)
    assert np.all(d[0, 1] == 0.0)
    loss = lambda z: single_step(_sums(z, constants, lambda_h=1.0, lambda_kl=0.0))  # noqa: E731
    assert _fd_logits(loss, logits) <= 1e-5


def test_kl_reg_zero_at_identity_with_zero_gradient():
    rng = np.random.default_rng(4)
    logits = rng.normal(0, 2, size=(1, 2, 6))
    valid = np.ones((1, 2), bool)
    terms = _sums(logits, _masked(valid, [(0, 0), (0, 1)]), reference=logits.copy(),
                  lambda_h=0.0, lambda_kl=1.0)
    assert terms.kl_sum == 0.0
    assert np.max(np.abs(terms.d_reg_sum)) <= 1e-15


def test_kl_reg_gradient_fd():
    rng = np.random.default_rng(5)
    logits = rng.normal(0, 2, size=(2, 3, 6))
    ref = rng.normal(0, 2, size=(2, 3, 6))
    valid = np.ones((2, 3), bool)
    reg = _masked(valid, [(0, 1), (1, 0), (1, 2)]).regularized
    constants = obj.Constants(np.zeros_like(valid), reg, None, None)
    loss = lambda z: single_step(  # noqa: E731
        _sums(z, constants, reference=ref, lambda_h=0.0, lambda_kl=1.0))
    assert _fd_logits(loss, logits) <= 1e-5


def test_kl_reg_shape_mismatch():
    with pytest.raises(InputError):
        obj.objective_terms("eksft", np.zeros((1, 2, 6)), np.zeros((1, 2, 7)),
                            np.zeros((1, 2), int), np.ones((1, 2), bool))


def test_eksft_reduces_to_sft():
    rng = np.random.default_rng(6)
    logits = rng.normal(0, 2, size=(2, 4, 9))
    ref = rng.normal(0, 2, size=(2, 4, 9))
    targets = rng.integers(0, 9, size=(2, 4))
    valid = np.ones((2, 4), bool)
    sft = _terms("sft", logits, targets, valid, reference=ref)
    eksft = _terms("eksft", logits, targets, valid, reference=ref,
                   rho=0.0, lambda_h=0.0, lambda_kl=0.0)
    assert np.array_equal(eksft.d_ce_sum, sft.d_ce_sum)
    assert eksft.d_reg_sum is None
    sft_val, sft_d = single_step(sft)
    total, d = single_step(eksft)
    assert abs(total - sft_val) <= 1e-12
    assert np.array_equal(d, sft_d)
    assert eksft.mask.k == 0


def test_eksft_rejects_negative_weights():
    z = np.zeros((1, 2, 6))
    with pytest.raises(ConfigError):
        obj.objective_terms("eksft", z, z, np.zeros((1, 2), int), np.ones((1, 2), bool),
                            rho=0.2, lambda_h=-0.1, lambda_kl=0.0)


def test_eksft_breakdown_recomposes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        logits = rng.normal(0, 2, size=(2, 5, 8))
        ref = rng.normal(0, 2, size=(2, 5, 8))
        targets = rng.integers(0, 8, size=(2, 5))
        valid = rng.random((2, 5)) < 0.8
        valid[:, 0] = True
        terms = _terms("eksft", logits, targets, valid, reference=ref,
                       rho=0.3, lambda_h=0.05, lambda_kl=0.07)
        total, _ = single_step(terms)
        ce, h, kl = terms.ce_sum / terms.n_sup, terms.h_sum / terms.n_reg, terms.kl_sum / terms.n_reg
        assert abs(total - (ce - 0.05 * h + 0.07 * kl)) <= 1e-12
        assert terms.n_sup + terms.n_reg == int(valid.sum())
        assert terms.n_reg == int(terms.mask.m_union.sum())


def test_eksft_masked_gradient_is_label_free():
    rng = np.random.default_rng(8)
    for trial in range(10):
        logits = rng.normal(0, 2, size=(2, 6, 9))
        ref = rng.normal(0, 2, size=(2, 6, 9))
        targets = rng.integers(0, 9, size=(2, 6))
        valid = rng.random((2, 6)) < 0.9
        valid[:, 0] = True
        kw = dict(reference=ref, rho=0.3, lambda_h=0.05, lambda_kl=0.05)
        t1 = _terms("eksft", logits, targets, valid, **kw)
        if not t1.mask.m_union.any():
            continue
        permuted = targets.copy()
        masked = np.zeros_like(valid)
        masked[valid] = t1.mask.m_union
        permuted[masked] = rng.integers(0, 9, size=int(masked.sum()))
        t2 = _terms("eksft", logits, permuted, valid, **kw)
        assert np.array_equal(t1.mask.m_union, t2.mask.m_union)
        bd1, d1 = single_step(t1)
        bd2, d2 = single_step(t2)
        assert np.array_equal(d1, d2)
        assert bd1 == bd2


def test_eksft_full_model_fd(tiny_config):
    worst = 0.0
    for seed in range(5):
        params = conditioned_point(tiny_config, seed)
        rng = np.random.default_rng([seed, 7])
        ids, targets, valid = random_batch(rng, tiny_config)
        ref_params = conditioned_point(tiny_config, seed)
        for name in ref_params.tensors:
            ref_params.tensors[name] = ref_params.tensors[name] + rng.normal(
                0, 0.02, ref_params.tensors[name].shape
            )
        ref_logits = mdl.forward(ref_params, ids, want_cache=False)[0]
        logits0 = mdl.forward(params, ids, want_cache=False)[0]
        loss = pinned_objective("eksft", logits0, ref_logits, targets, valid, rho=0.2)
        worst = max(worst, model_fd_worst(params, ids, loss, 40, [seed, 8]))
    assert worst <= 1e-5


def test_dft_perfect_model_is_zero():
    logits = np.zeros((1, 2, 6))
    targets = np.array([[1, 2]])
    logits[0, [0, 1], targets[0]] = 60.0
    loss, _ = single_step(_terms("dft", logits, targets, np.ones((1, 2), bool)))
    assert loss <= 1e-12


def test_dft_weight_vanishes_for_hard_tokens():
    # target probability 1e-6: the gradient row scales by ~1e-6
    p = np.full(5, (1 - 1e-6) / 4.0)
    p[0] = 1e-6
    logits = _logits_from_probs([[p]])
    targets = np.zeros((1, 1), int)
    valid = np.ones((1, 1), bool)
    loss, d = single_step(_terms("dft", logits, targets, valid))
    assert loss == pytest.approx(1e-6 * -math.log(1e-6), rel=1e-9)
    assert np.max(np.abs(d)) <= 2e-6


def test_dft_fd_with_frozen_weights():
    rng = np.random.default_rng(9)
    logits = rng.normal(0, 2, size=(2, 4, 7))
    targets = rng.integers(0, 7, size=(2, 4))
    valid = np.ones((2, 4), bool)
    loss = pinned_objective("dft", logits, logits, targets, valid)
    assert _fd_logits(loss, logits) <= 1e-5


def test_random_mask_zero_drop_is_plain_ce():
    rng = np.random.default_rng(10)
    logits = rng.normal(0, 2, size=(2, 4, 6))
    ref = rng.normal(0, 2, size=(2, 4, 6))
    targets = rng.integers(0, 6, size=(2, 4))
    valid = np.ones((2, 4), bool)
    terms = _terms("random_mask", logits, targets, valid, reference=ref,
                   drop_fraction=0.0, rng=np.random.default_rng(0))
    sft_val, sft_d = single_step(_terms("sft", logits, targets, valid, reference=ref))
    total, d = single_step(terms)
    assert total == sft_val
    assert np.array_equal(d, sft_d)
    assert terms.mask.k == 0


def test_random_mask_size_and_determinism():
    rng = np.random.default_rng(11)
    logits = rng.normal(0, 2, size=(3, 10, 6))
    ref = rng.normal(0, 2, size=(3, 10, 6))
    targets = rng.integers(0, 6, size=(3, 10))
    valid = rng.random((3, 10)) < 0.8
    n_valid = int(valid.sum())
    for drop in (0.07, 0.10, 0.28, 0.55):
        k = sel.selected_count(drop, n_valid)
        masks = []
        for seed in range(10):
            terms = _terms("random_mask", logits, targets, valid, reference=ref,
                           drop_fraction=drop, rng=np.random.default_rng(seed))
            assert int(terms.mask.m_union.sum()) == terms.n_reg == terms.mask.k == k
            assert terms.n_sup == n_valid - k
            masks.append(terms.mask.m_union)
        again = _terms("random_mask", logits, targets, valid, reference=ref,
                       drop_fraction=drop, rng=np.random.default_rng(4)).mask
        assert np.array_equal(again.m_union, masks[4])
        assert len({m.tobytes() for m in masks}) > 1


def test_random_mask_rejects_bad_fraction():
    z = np.zeros((1, 2, 6))
    with pytest.raises(ConfigError):
        obj.objective_terms("random_mask", z, z, np.zeros((1, 2), int), np.ones((1, 2), bool),
                            drop_fraction=1.0, rng=np.random.default_rng(0))


def test_global_reg_reduces_to_sft():
    rng = np.random.default_rng(12)
    logits = rng.normal(0, 2, size=(2, 4, 6))
    ref = rng.normal(0, 2, size=(2, 4, 6))
    targets = rng.integers(0, 6, size=(2, 4))
    valid = np.ones((2, 4), bool)
    total, d = single_step(_terms("global_reg", logits, targets, valid, reference=ref,
                                   lambda_h=0.0, lambda_kl=0.0))
    sft_val, sft_d = single_step(_terms("sft", logits, targets, valid, reference=ref))
    assert total == sft_val
    assert np.array_equal(d, sft_d)


def test_global_reg_kl_zero_at_identity():
    rng = np.random.default_rng(13)
    logits = rng.normal(0, 2, size=(1, 3, 6))
    targets = rng.integers(0, 6, size=(1, 3))
    terms = _terms("global_reg", logits, targets, np.ones((1, 3), bool))
    assert terms.kl_sum == 0.0


def test_global_reg_fd():
    rng = np.random.default_rng(14)
    logits = rng.normal(0, 2, size=(2, 3, 6))
    ref = rng.normal(0, 2, size=(2, 3, 6))
    targets = rng.integers(0, 6, size=(2, 3))
    valid = np.ones((2, 3), bool)
    loss = lambda z: single_step(_terms("global_reg", z, targets, valid, reference=ref))  # noqa: E731
    assert _fd_logits(loss, logits) <= 1e-5


# -----------------------------------------------------------------------------
# stop-gradient constants picked by the method dispatch
# -----------------------------------------------------------------------------


def _batch(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0, 2, size=(3, 7, 8))
    ref = rng.normal(0, 2, size=(3, 7, 8))
    targets = rng.integers(0, 8, size=(3, 7))
    valid = rng.random((3, 7)) < 0.7
    valid[:, 0] = True
    return logits, ref, targets, valid


def _constants(method, logits, ref, targets, valid, **kw):
    lp = nk.log_softmax(logits)
    stats = sel.stats_from_log_probs(lp, nk.log_softmax(ref), valid)
    return obj.stop_gradient_constants(method, lp, targets, valid, stats, **kw), lp, stats


def test_selection_and_objective_share_one_kernel():
    """global_reg regularizes exactly the valid set, so its entropy and KL sums
    are the sums (same numpy reduction) of the stats that selection ranks."""
    rng = np.random.default_rng(25)
    for _ in range(50):
        b, length, v = (int(x) for x in rng.integers([1, 1, 2], [5, 12, 65]))
        logits = rng.normal(0, 2, size=(b, length, v))
        ref = rng.normal(0, 2, size=(b, length, v))
        targets = rng.integers(0, v, size=(b, length))
        valid = rng.random((b, length)) < 0.8
        valid[0, 0] = True
        terms = _terms("global_reg", logits, targets, valid, reference=ref)
        assert terms.n_reg == len(terms.stats) == int(valid.sum())
        assert terms.h_sum == float(np.sum([s.entropy for s in terms.stats]))
        assert terms.kl_sum == float(np.sum([s.kl for s in terms.stats]))


def test_dft_weights_are_target_probabilities():
    logits, ref, targets, valid = _batch(20)
    c, lp, _ = _constants("dft", logits, ref, targets, valid)
    bi, li = np.nonzero(valid)
    assert np.array_equal(c.weights, np.exp(lp[bi, li, targets[bi, li]]))
    assert np.array_equal(c.supervised, valid) and c.regularized is None and c.mask is None


def test_global_reg_regularizes_every_valid_token():
    logits, ref, targets, valid = _batch(21)
    c, _, _ = _constants("global_reg", logits, ref, targets, valid)
    assert np.array_equal(c.supervised, valid) and np.array_equal(c.regularized, valid)
    assert c.weights is None
    terms = _terms("global_reg", logits, targets, valid, reference=ref)
    assert terms.n_sup == terms.n_reg == int(valid.sum())


def test_eksft_mask_is_build_mask():
    logits, ref, targets, valid = _batch(22)
    for rho in (0.1, 0.2, 0.33):
        c, _, stats = _constants("eksft", logits, ref, targets, valid, rho=rho)
        expected = sel.build_mask(stats, rho)
        for name in ("m_entropy", "m_kl", "m_union"):
            assert np.array_equal(getattr(c.mask, name), getattr(expected, name))
        assert np.array_equal(c.regularized[valid], expected.m_union)
        assert not c.regularized[~valid].any()
        assert np.array_equal(c.supervised, valid & ~c.regularized)


def test_objective_terms_is_the_core_at_dispatch_constants():
    logits, ref, targets, valid = _batch(23)
    for method in obj.METHODS:
        kw = dict(rho=0.2, drop_fraction=0.1)
        terms = _terms(method, logits, targets, valid, reference=ref,
                       rng=np.random.default_rng(5), **kw)
        pinned = pinned_objective(method, logits, ref, targets, valid,
                                  rng=np.random.default_rng(5), **kw)
        total, d = single_step(terms)
        pinned_total, pinned_d = pinned(logits)
        assert pinned_total == total and np.array_equal(pinned_d, d)


def test_normalize_step_splits_like_one_batch():
    """Two micro-batches normalized together give the logit gradient of one batch."""
    logits, ref, targets, valid = _batch(24)
    valid[2] = False  # the second micro-batch's last row has no valid token
    for method in ("sft", "dft", "global_reg"):
        whole = obj.normalize_step([_terms(method, logits, targets, valid, reference=ref)])
        parts = obj.normalize_step([
            _terms(method, logits[sl], targets[sl], valid[sl], reference=ref[sl])
            for sl in (slice(0, 2), slice(2, 3))
        ])
        assert parts.dlogits[1] is None
        assert np.array_equal(parts.dlogits[0], whole.dlogits[0][:2])
        assert not whole.dlogits[0][2].any()
        assert parts.n_sup == whole.n_sup
        for name in ("total", "ce", "h", "kl"):
            assert getattr(parts, name) == pytest.approx(getattr(whole, name), abs=1e-12)
    # nothing supervised: the regularizer gradient alone, over the step's N_reg
    a = _terms("eksft", logits[:1], targets[:1], valid[:1], reference=ref[:1], rho=1.0)
    b = _terms("eksft", logits[1:2], targets[1:2], valid[1:2], reference=ref[1:2], rho=1.0)
    step = obj.normalize_step([a, b])
    assert a.n_sup == b.n_sup == 0
    assert np.array_equal(step.dlogits[0], a.d_reg_sum / (a.n_reg + b.n_reg))


def test_ce_grad_norm_bound_and_limits():
    rng = np.random.default_rng(15)
    v = 11
    # bound holds for random distributions
    alphas = rng.uniform(0.1, 3.0, size=(100_000, v))
    p = rng.dirichlet(np.ones(v), size=1)  # warm up
    p = np.stack([rng.dirichlet(a) for a in alphas[:2000]])  # sampled subset per-row alphas
    y = rng.integers(0, v, size=p.shape[0])
    sq = (p * p).sum(axis=1) + 1.0 - 2.0 * p[np.arange(p.shape[0]), y]
    assert np.all(sq <= 2.0 * (1.0 - p[np.arange(p.shape[0]), y]) + 1e-15)
    # near-uniform limit
    u = np.full(v, 1.0 / v)
    assert ce_grad_sq_norm(u, 3) == pytest.approx(1.0 - 1.0 / v, abs=1e-12)
    # high-confidence limit with the leftover mass on one competitor
    for eps in (1e-2, 1e-3):
        row = np.zeros(v)
        row[0] = 1.0 - eps
        row[1] = eps
        assert ce_grad_sq_norm(row, 0) == pytest.approx(2.0 * eps**2, abs=10 * eps**3)
