import dataclasses
import math

import numpy as np
import pytest

from eksft import model as mdl
from eksft import objective as obj
from eksft import tasks
from eksft import train as tr
from eksft.errors import ConfigError, InputError, NumericError

from conftest import grad_check


def small_model_config(seed=0):
    return mdl.ModelConfig(vocab_size=32, d_model=32, n_layers=2, n_heads=2, context_len=48, seed=seed)


def small_dataset(n=16, seed=1):
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=n, n_rl=0, n_eval=0, seed=seed)
    return tasks.generate_splits(spec)["sft"]


# -----------------------------------------------------------------------------
# AdamW
# -----------------------------------------------------------------------------


def _scalar_params():
    cfg = small_model_config()
    params = mdl.init(cfg)
    return params


def test_adamw_zero_grad_no_decay_leaves_params():
    params = _scalar_params()
    before = {k: v.copy() for k, v in params.tensors.items()}
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    tr.adamw_step(params, grads, tr.adamw_init(params), lr=0.1)
    for k in before:
        assert np.array_equal(params.tensors[k], before[k])


def test_adamw_first_step_closed_form():
    params = _scalar_params()
    g = 0.37
    grads = {k: np.full_like(v, g) for k, v in params.tensors.items()}
    before = params.tensors["tok_emb"].copy()
    tr.adamw_step(params, grads, tr.adamw_init(params), lr=1e-3)
    # t=1: m_hat = g, v_hat = g^2 -> update = lr * g / (|g| + eps)
    expected = before - 1e-3 * g / (abs(g) + 1e-8)
    assert np.allclose(params.tensors["tok_emb"], expected, atol=1e-15)


def test_adamw_weight_decay_shrinks_zero_grad_weight():
    params = _scalar_params()
    before = params.tensors["head.w"].copy()
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    tr.adamw_step(params, grads, tr.adamw_init(params), lr=0.01, weight_decay=0.1)
    assert np.allclose(params.tensors["head.w"], before - 0.01 * 0.1 * before, atol=1e-15)


def test_adamw_rejects_nonfinite_gradient():
    params = _scalar_params()
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    grads["head.w"][0, 0] = np.nan
    with pytest.raises(NumericError) as exc:
        tr.adamw_step(params, grads, tr.adamw_init(params), lr=0.01)
    assert "head.w" in str(exc.value)


# -----------------------------------------------------------------------------
# supervised loop
# -----------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        tr.SftConfig(method="nope")
    with pytest.raises(ConfigError):
        tr.SftConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        tr.SftConfig(rho=1.5)
    with pytest.raises(ConfigError):
        tr.RlConfig(clip_low=1.5)
    with pytest.raises(ConfigError):
        tr.RlConfig(rollout_group_size=1)
    with pytest.raises(ConfigError):
        tr.SftConfig(weight_decay=-1.0)
    with pytest.raises(ConfigError):
        tr.RlConfig(weight_decay=-0.5)
    with pytest.raises(ConfigError):
        tr.RlConfig(max_gen_len=-3)
    with pytest.raises(ConfigError):
        tr.RlConfig(max_gen_len=0)
    tr.SftConfig(weight_decay=0.0)
    tr.RlConfig(weight_decay=0.0, max_gen_len=1)


def test_overfit_single_sample():
    cfg = small_model_config(seed=5)
    params = mdl.init(cfg)
    reference = mdl.snapshot_reference(params)
    dataset = small_dataset(n=1, seed=2)
    config = tr.SftConfig(method="sft", learning_rate=1e-2, epochs=200, grad_accum=1,
                          batch_size=1, seed=0)
    params, records = tr.train_sft(params, reference, dataset, config)
    assert len(records) == 200
    assert records[-1].ce_masked < 0.01


def test_eksft_rho0_lambda0_bit_identical_to_sft(tmp_path):
    dataset = small_dataset(n=8, seed=3)
    runs = {}
    for method in ("sft", "eksft"):
        cfg = small_model_config(seed=9)
        params = mdl.init(cfg)
        reference = mdl.snapshot_reference(params)
        config = tr.SftConfig(method=method, learning_rate=3e-3, epochs=2, grad_accum=2,
                              batch_size=2, rho=0.0, lambda_h=0.0, lambda_kl=0.0, seed=4)
        params, records = tr.train_sft(params, reference, dataset, config,
                                       run_dir=tmp_path / method)
        runs[method] = (params, records)
    p_sft, r_sft = runs["sft"]
    p_ek, r_ek = runs["eksft"]
    for name in p_sft.tensors:
        assert np.array_equal(p_sft.tensors[name], p_ek.tensors[name])
    for a, b in zip(r_sft, r_ek):
        assert a.loss_total == b.loss_total
        assert a.ce_masked == b.ce_masked
    blob_sft = (tmp_path / "sft" / "checkpoints" / "final.weights.bin").read_bytes()
    blob_ek = (tmp_path / "eksft" / "checkpoints" / "final.weights.bin").read_bytes()
    assert blob_sft == blob_ek


def test_training_run_deterministic(tmp_path):
    dataset = small_dataset(n=8, seed=3)
    outs = []
    for name in ("a", "b"):
        cfg = small_model_config(seed=7)
        params = mdl.init(cfg)
        reference = mdl.snapshot_reference(params)
        config = tr.SftConfig(method="eksft", learning_rate=3e-3, epochs=2, grad_accum=1,
                              batch_size=4, rho=0.2, lambda_h=0.05, lambda_kl=0.05, seed=7)
        tr.train_sft(params, reference, dataset, config, run_dir=tmp_path / name)
        outs.append(tmp_path / name)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    assert (outs[0] / "mask_dump.jsonl").read_bytes() == (outs[1] / "mask_dump.jsonl").read_bytes()
    assert (outs[0] / "checkpoints" / "final.weights.bin").read_bytes() == (
        outs[1] / "checkpoints" / "final.weights.bin"
    ).read_bytes()


def test_rejects_overlong_sample():
    cfg = mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, context_len=8, seed=0)
    params = mdl.init(cfg)
    reference = mdl.snapshot_reference(params)
    dataset = small_dataset(n=2, seed=2)  # samples are longer than 8 tokens
    from eksft.errors import LengthError

    with pytest.raises(LengthError):
        tr.train_sft(params, reference, dataset, tr.SftConfig())


@pytest.mark.parametrize("method", ["sft", "eksft", "dft", "random_mask", "global_reg"])
def test_grad_accumulation_matches_concatenated_batch(method):
    """G accumulated micro-batches == one step on the concatenated batch.

    The concatenated side reuses one forward/backward over all sequences but
    builds masks and sums per micro-chunk, exactly as accumulation does.
    """
    cfg = small_model_config(seed=11)
    dataset = small_dataset(n=4, seed=5)
    config = tr.SftConfig(method=method, learning_rate=1e-3, epochs=1, grad_accum=2,
                          batch_size=2, rho=0.3, lambda_h=0.05, lambda_kl=0.05,
                          drop_fraction=0.25, seed=13)

    params_a = mdl.init(cfg)
    reference = mdl.snapshot_reference(params_a)
    params_a, _ = tr.train_sft(params_a, reference, dataset, config)

    # manual concatenated step with per-chunk masks
    params_b = mdl.init(cfg)
    opt = tr.adamw_init(params_b)
    order = np.random.default_rng([config.seed, 1]).permutation(len(dataset))
    batch = [dataset[i] for i in order]
    inputs, targets, valid = tr.batchify(batch)
    logits, cache = mdl.forward(params_b, inputs)
    ref_logits = reference.logits(inputs)
    d_ce = np.zeros_like(logits)
    d_reg = np.zeros_like(logits)
    ce_n = reg_n = 0
    has_reg = False
    for micro, lo in enumerate(range(0, 4, 2)):
        sl = slice(lo, lo + 2)
        rng = (
            np.random.default_rng([config.seed, 2, 0, micro])
            if method == "random_mask"
            else None
        )
        terms = obj.objective_terms(
            method, logits[sl], ref_logits[sl], targets[sl], valid[sl],
            rho=config.rho, lambda_h=config.lambda_h, lambda_kl=config.lambda_kl,
            drop_fraction=config.drop_fraction, rng=rng,
        )
        d_ce[sl] = terms.d_ce_sum
        ce_n += terms.n_sup
        if terms.d_reg_sum is not None:
            d_reg[sl] = terms.d_reg_sum
            has_reg = True
        reg_n += terms.n_reg
    grads = mdl.backward(params_b, cache, d_ce)
    for k in grads:
        grads[k] /= ce_n
    if has_reg and reg_n:
        reg_grads = mdl.backward(params_b, cache, d_reg)
        for k in grads:
            grads[k] += reg_grads[k] / reg_n
    tr.adamw_step(params_b, grads, opt, config.learning_rate)

    for name in params_a.tensors:
        assert np.max(np.abs(params_a.tensors[name] - params_b.tensors[name])) <= 1e-9


@pytest.mark.parametrize("method,kw", [
    ("sft", {}), ("eksft", {}), ("dft", {}), ("random_mask", {}), ("global_reg", {}),
    ("eksft", dict(rho=1.0, lambda_h=0.0, lambda_kl=0.0)),  # no micro-batch has a gradient
], ids=["sft", "eksft", "dft", "random_mask", "global_reg", "eksft_nothing_to_backprop"])
def test_backward_runs_once_per_micro_batch(monkeypatch, method, kw):
    """One step of two micro-batches: one backward for each that has a gradient."""
    calls = []
    backward = mdl.backward
    monkeypatch.setattr(mdl, "backward", lambda *a: calls.append(1) or backward(*a))
    params = mdl.init(small_model_config(seed=11))
    config = tr.SftConfig(method=method, learning_rate=1e-3, epochs=1, grad_accum=2,
                          batch_size=2, seed=13, **kw)
    tr.train_sft(params, mdl.snapshot_reference(params), small_dataset(n=4, seed=5), config)
    assert len(calls) == (0 if kw else 2)


# -----------------------------------------------------------------------------
# RL pieces
# -----------------------------------------------------------------------------


def test_group_advantages_uniform_rewards():
    assert np.array_equal(tr.group_advantages([1.0, 1.0, 1.0, 1.0]), np.zeros(4))


def test_group_advantages_two_point():
    a = tr.group_advantages([1.0, 0.0])
    assert a[0] == pytest.approx(1.0, abs=1e-7)
    assert a[1] == pytest.approx(-1.0, abs=1e-7)


def test_group_advantages_centered():
    rng = np.random.default_rng(0)
    for _ in range(100):
        r = rng.random(rng.integers(2, 20))
        assert abs(tr.group_advantages(r).mean()) <= 1e-9


def test_group_advantages_needs_two():
    with pytest.raises(InputError):
        tr.group_advantages([1.0])


def test_clipped_pg_ratio_one_centered_advantages():
    lp = np.array([-1.0, -2.0, -0.5, -0.3])
    adv = np.array([1.0, -1.0, 0.5, -0.5])
    loss, d = tr.clipped_pg_loss(lp, lp.copy(), adv, 0.2, 0.28)
    assert loss == pytest.approx(-float(adv.mean()), abs=1e-12)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_clipped_pg_positive_advantage_clips_high():
    old = np.array([0.0])
    new = np.array([math.log(1.5)])  # ratio 1.5 > 1 + 0.28
    adv = np.array([2.0])
    loss, d = tr.clipped_pg_loss(new, old, adv, 0.2, 0.28)
    assert loss == pytest.approx(-1.28 * 2.0, abs=1e-12)
    assert d[0] == 0.0  # clipped branch active, no gradient


def test_clipped_pg_zero_advantages():
    new = np.array([0.3, -0.2])
    old = np.array([0.0, 0.0])
    loss, d = tr.clipped_pg_loss(new, old, np.zeros(2), 0.2, 0.28)
    assert loss == 0.0
    assert np.all(d == 0.0)


def test_clipped_pg_nonfinite_ratio():
    with pytest.raises(NumericError):
        tr.clipped_pg_loss(np.array([1e6]), np.array([-1e6]), np.array([1.0]), 0.2, 0.28)


def test_clipped_pg_gradient_fd():
    rng = np.random.default_rng(3)
    old = rng.normal(-1, 0.3, size=12)
    adv = rng.normal(0, 1, size=12)
    new0 = old + rng.normal(0, 0.05, size=12)  # keep ratios off the clip edges

    def f(flat):
        return tr.clipped_pg_loss(flat, old, adv, 0.2, 0.28)

    assert grad_check(f, new0) <= 1e-5


# -----------------------------------------------------------------------------
# RL loop
# -----------------------------------------------------------------------------


def _rl_setup(seed=0, n_prompts=4):
    cfg = small_model_config(seed=seed)
    params = mdl.init(cfg)
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=0, n_rl=n_prompts, n_eval=0, seed=8)
    prompts = tasks.generate_splits(spec)["rl_prompts"]
    return params, prompts


def test_rl_all_rewards_one_leaves_params_unchanged():
    params, prompts = _rl_setup()
    before = {k: v.copy() for k, v in params.tensors.items()}
    config = tr.RlConfig(total_steps=2, rollout_group_size=4, prompts_per_step=2,
                         max_gen_len=6, seed=1)
    params, records = tr.train_rl(params, prompts, lambda s, t: True, config)
    for k in before:
        assert np.array_equal(params.tensors[k], before[k])
    assert all(r.zero_variance_frac == 1.0 for r in records)
    assert all(r.mean_reward == 1.0 for r in records)


def test_rl_deterministic_runs():
    curves = []
    for _ in range(2):
        params, prompts = _rl_setup(seed=2)
        config = tr.RlConfig(learning_rate=1e-4, total_steps=3, rollout_group_size=4,
                             prompts_per_step=2, max_gen_len=8, seed=5)
        _, records = tr.train_rl(params, prompts, tasks.verify, config)
        curves.append([(r.mean_reward, r.pg_loss) for r in records])
    assert curves[0] == curves[1]


def test_rl_verifier_exception_scores_zero(caplog):
    params, prompts = _rl_setup(seed=3)

    def bad_verifier(sample, toks):
        raise RuntimeError("boom")

    config = tr.RlConfig(total_steps=1, rollout_group_size=4, prompts_per_step=2,
                         max_gen_len=4, seed=0)
    with caplog.at_level("WARNING"):
        _, records = tr.train_rl(params, prompts, bad_verifier, config)
    assert records[0].mean_reward == 0.0
    assert any("verifier raised" in r.message for r in caplog.records)


def test_rl_writes_metrics(tmp_path):
    params, prompts = _rl_setup(seed=4)
    config = tr.RlConfig(learning_rate=1e-4, total_steps=2, rollout_group_size=4,
                         prompts_per_step=2, max_gen_len=6, seed=2)
    tr.train_rl(params, prompts, tasks.verify, config, run_dir=tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(tr.RL_METRICS_COLUMNS)
    assert len(lines) == 3
    assert (tmp_path / "checkpoints" / "final.manifest.json").exists()
