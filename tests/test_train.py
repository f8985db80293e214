import csv
import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from eksft import evaluation as ev
from eksft import model as mdl
from eksft import numerics as nk
from eksft import objective as obj
from eksft import tasks
from eksft import train as tr
from eksft.errors import ConfigError, InputError, NumericError

from conftest import conditioned_point, grad_check, informative_coords


def small_model_config(seed=0):
    return mdl.ModelConfig(vocab_size=32, d_model=32, n_layers=2, n_heads=2, context_len=48, seed=seed)


def small_dataset(n=16, seed=1):
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=n, n_rl=0, n_eval=0, seed=seed)
    return tasks.generate_splits(spec)["sft"]


def _pairs(samples):
    return [(s.prompt_tokens, s.response_tokens) for s in samples]


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
    tr.adamw_step(params, np.zeros_like(params.flat), tr.adamw_init(params), lr=0.1)
    for k in before:
        assert np.array_equal(params.tensors[k], before[k])


def test_adamw_first_step_closed_form():
    params = _scalar_params()
    g = 0.37
    before = params.tensors["tok_emb"].copy()
    tr.adamw_step(params, np.full_like(params.flat, g), tr.adamw_init(params), lr=1e-3)
    # t=1: m_hat = g, v_hat = g^2 -> update = lr * g / (|g| + eps)
    expected = before - 1e-3 * g / (abs(g) + 1e-8)
    assert np.allclose(params.tensors["tok_emb"], expected, atol=1e-15, rtol=0)


def test_adamw_weight_decay_shrinks_zero_grad_weight():
    params = _scalar_params()
    before = params.tensors["head.w"].copy()
    tr.adamw_step(params, np.zeros_like(params.flat), tr.adamw_init(params), lr=0.01,
                  weight_decay=0.1)
    assert np.allclose(params.tensors["head.w"], before - 0.01 * 0.1 * before, atol=1e-15, rtol=0)


def test_adamw_rejects_nonfinite_gradient():
    params = _scalar_params()
    grad = np.zeros_like(params.flat)
    mdl.ParameterSet(params.config, grad).tensors["head.w"][0, 0] = np.nan
    with pytest.raises(NumericError) as exc:
        tr.adamw_step(params, grad, tr.adamw_init(params), lr=0.01)
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
    tr.SftConfig(learning_rate=1, rho=1)  # a float field takes an int
    tr.RlConfig(temperature=2)


def test_float_field_given_as_an_integer_is_stored_as_a_float():
    """So `learning_rate: 1` and `--lr 1` record one config.json, and one run id."""
    sft, rl = tr.SftConfig(learning_rate=1, rho=1, lambda_h=0), tr.RlConfig(temperature=2)
    for config in (sft, rl, tasks.TaskSpec(), mdl.ModelConfig()):
        for f in dataclasses.fields(config):
            assert type(getattr(config, f.name)) is type(f.default), f.name
    assert dataclasses.asdict(sft) == dataclasses.asdict(
        tr.SftConfig(learning_rate=1.0, rho=1.0, lambda_h=0.0))


@pytest.mark.parametrize("cls, name, value", [
    (tr.SftConfig, "epochs", 2.5), (tr.SftConfig, "batch_size", True),
    (tr.SftConfig, "learning_rate", True), (tr.SftConfig, "rho", "0.2"),
    (tr.SftConfig, "method", 1), (tr.SftConfig, "supervise_prompt", 1),
    (tr.RlConfig, "total_steps", 3.0), (tr.RlConfig, "temperature", None),
    (tasks.TaskSpec, "modulus", True), (mdl.ModelConfig, "d_model", 16.0),
])
def test_config_field_of_another_type_is_refused_by_name(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**{name: value})


def test_overfit_single_sample():
    cfg = small_model_config(seed=5)
    params = mdl.init(cfg)
    reference = mdl.snapshot_reference(params)
    dataset = small_dataset(n=1, seed=2)
    config = tr.SftConfig(method="sft", learning_rate=1e-2, epochs=200, batch_size=1, seed=0)
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
        config = tr.SftConfig(method=method, learning_rate=3e-3, epochs=2,
                              batch_size=4, rho=0.0, lambda_h=0.0, lambda_kl=0.0, seed=4)
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
        config = tr.SftConfig(method="eksft", learning_rate=3e-3, epochs=2, batch_size=4,
                              rho=0.2, lambda_h=0.05, lambda_kl=0.05, seed=7)
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


@pytest.mark.parametrize("method", obj.METHODS)
def test_method_table_names_exactly_the_fields_that_act(method):
    """A method field changes the trained weights iff objective.METHODS lists it."""
    other = {"rho": 0.5, "lambda_h": 0.5, "lambda_kl": 0.5, "drop_fraction": 0.5}
    assert set(other) == {n for names in obj.METHODS.values() for n in names}
    dataset = small_dataset(n=4, seed=5)

    def trained(**kw):
        params = mdl.init(small_model_config(seed=11))
        config = tr.SftConfig(method=method, learning_rate=1e-2, epochs=1, batch_size=2,
                              seed=13, **kw)
        return tr.train_sft(params, mdl.snapshot_reference(params), dataset, config)[0].flat

    default = trained()
    acts = {name for name, value in other.items()
            if not np.array_equal(trained(**{name: value}), default)}
    assert acts == set(obj.METHODS[method])


@pytest.mark.parametrize("method,kw", [
    ("sft", {}), ("eksft", {}), ("dft", {}), ("random_mask", {}), ("global_reg", {}),
    ("eksft", dict(rho=1.0, lambda_h=0.0, lambda_kl=0.0)),  # no batch has a gradient
], ids=["sft", "eksft", "dft", "random_mask", "global_reg", "eksft_nothing_to_backprop"])
def test_backward_runs_once_per_micro_batch(monkeypatch, method, kw):
    """A step is one batch: one policy forward, one objective call, one backward
    unless the batch has no gradient, then one AdamW update."""
    events = []
    forward, backward, objective_terms, adamw_step = (
        mdl.forward, mdl.backward, obj.objective_terms, tr.adamw_step)

    def recorded(name, fn):
        def call(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return call

    def recorded_forward(params, ids, want_cache=True, past=None):
        if want_cache:  # the reference's forwards want none
            events.append("forward")
        return forward(params, ids, want_cache, past)

    monkeypatch.setattr(mdl, "forward", recorded_forward)
    monkeypatch.setattr(mdl, "backward", recorded("backward", backward))
    monkeypatch.setattr(obj, "objective_terms", recorded("objective", objective_terms))
    monkeypatch.setattr(tr, "adamw_step", recorded("adamw", adamw_step))
    params = mdl.init(small_model_config(seed=11))
    config = tr.SftConfig(method=method, learning_rate=1e-3, epochs=2, batch_size=3,
                          seed=13, **kw)
    tr.train_sft(params, mdl.snapshot_reference(params), small_dataset(n=7, seed=5), config)
    step = ["forward", "objective", *([] if kw else ["backward"]), "adamw"]
    assert events == step * (2 * 3)


@pytest.mark.parametrize("method", obj.METHODS)
def test_reference_forward_once_per_run(monkeypatch, method):
    """ceil(N / batch_size) reference forwards per run, whatever the number of epochs is."""
    calls = []
    logits = mdl.ReferenceModel.logits
    monkeypatch.setattr(mdl.ReferenceModel, "logits",
                        lambda self, ids: calls.append(1) or logits(self, ids))
    dataset = small_dataset(n=7, seed=5)
    for epochs, batch_size, supervise_prompt in (
        (1, 2, False), (3, 3, False), (2, 1, True), (2, 7, True),
    ):
        calls.clear()
        params = mdl.init(mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                                          context_len=48, seed=2))
        config = tr.SftConfig(method=method, learning_rate=1e-3, epochs=epochs,
                              batch_size=batch_size, seed=1,
                              supervise_prompt=supervise_prompt)
        tr.train_sft(params, mdl.snapshot_reference(params), dataset, config)
        assert len(calls) == math.ceil(len(dataset) / batch_size)


def _spread_reference():
    """A reference whose attention and logits are far from uniform."""
    params = mdl.init(small_model_config(seed=4))
    rng = np.random.default_rng(0)
    for name in params.tensors:
        params.tensors[name] += rng.normal(0.0, 0.3, params.tensors[name].shape)
    return mdl.snapshot_reference(params)


def _mixed_lengths_dataset():
    """24 task samples (9-16 tokens) and 12 random ones of 3-49 tokens, up to context_len."""
    splits = tasks.generate_splits(tasks.TaskSpec(n_pretrain=12, n_sft=12, n_rl=0, n_eval=0, seed=6))
    rng = np.random.default_rng(3)
    long = [
        tasks.Sample("", "", "", (tasks.BOS, *rng.integers(3, 32, size=n // 2).tolist()),
                     (*rng.integers(3, 32, size=n - n // 2 - 2).tolist(), tasks.EOS))
        for n in [49, *rng.integers(3, 49, size=11).tolist()]
    ]
    return splits["pretrain"] + long + splits["sft"]


def _cached_reference_rows(reference, dataset, batch_size):
    """Each sample's rows of the chunked reference forward that train_sft runs."""
    chunks = []
    logits = mdl.ReferenceModel.logits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdl.ReferenceModel, "logits",
                   lambda self, ids: chunks.append(logits(self, ids)) or chunks[-1])
        config = tr.SftConfig(learning_rate=1e-3, epochs=1, batch_size=batch_size)
        tr.train_sft(mdl.init(reference.config), reference, dataset, config)
    rows = [chunk[r] for chunk in chunks for r in range(len(chunk))]
    return [row[: len(s.tokens) - 1] for row, s in zip(rows, dataset, strict=True)]


def test_reference_rows_match_any_batch():
    """Every sample's cached rows equal, bit for bit, its rows in batches of
    shuffled compositions and different padded lengths."""
    reference = _spread_reference()
    dataset = _mixed_lengths_dataset()
    lengths = {len(s.tokens) for s in dataset}
    assert len(lengths) >= 10 and max(lengths) == 49
    rows = _cached_reference_rows(reference, dataset, 5)
    assert [r.shape for r in rows] == [(len(s.tokens) - 1, 32) for s in dataset]
    padded = [set() for _ in dataset]
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(dataset))
        for batch_size in (1, 3, 7, len(dataset)):
            for m0 in range(0, len(order), batch_size):
                idx = order[m0 : m0 + batch_size]
                inputs, _, _ = tr.batchify(_pairs(dataset[i] for i in idx))
                logits = reference.logits(inputs)
                for row, i in enumerate(idx):
                    assert np.array_equal(logits[row, : len(rows[i])], rows[i])
                    padded[i].add(inputs.shape[1])
    # each sample but the longest sat in batches of at least two padded lengths
    longest = max(lengths)
    assert all(len(p) >= 2 for p, s in zip(padded, dataset) if len(s.tokens) < longest)


def test_train_sft_feeds_each_batch_its_reference_rows(monkeypatch):
    """The objective sees the reference logits of its batch at every real
    position, and zeros at the padding."""
    seen_ids, seen_ref = [], []
    forward, objective_terms = mdl.forward, obj.objective_terms

    def recorded_forward(params, ids, want_cache=True, past=None):
        if want_cache:
            seen_ids.append(np.array(ids))
        return forward(params, ids, want_cache, past)

    def recorded_objective(method, logits, ref_logits, *args, **kwargs):
        seen_ref.append(ref_logits)
        return objective_terms(method, logits, ref_logits, *args, **kwargs)

    monkeypatch.setattr(mdl, "forward", recorded_forward)
    monkeypatch.setattr(obj, "objective_terms", recorded_objective)
    reference = _spread_reference()
    params = mdl.init(small_model_config(seed=4))
    dataset = _mixed_lengths_dataset()
    config = tr.SftConfig(method="eksft", learning_rate=1e-3, epochs=2, batch_size=3, seed=7)
    tr.train_sft(params, reference, dataset, config)
    assert len(seen_ids) == len(seen_ref) == 2 * math.ceil(len(dataset) / 3)
    monkeypatch.setattr(mdl, "forward", forward)
    for ids, ref in zip(seen_ids, seen_ref):
        full = reference.logits(ids)
        for row, n in enumerate((ids != tasks.PAD).sum(axis=1)):
            assert np.array_equal(ref[row, :n], full[row, :n])
            assert not ref[row, n:].any()


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


def test_batchify_marks_exactly_the_generated_positions():
    """Rollout pairs of mixed lengths, as `_rl_update` packs them: valid marks the
    positions that predict a generated token, and the targets there are those tokens."""
    rng = np.random.default_rng(8)
    pairs = [
        ((tasks.BOS, *rng.integers(3, 32, size=n_prompt).tolist()),
         rng.integers(3, 32, size=n_gen).tolist())
        for n_prompt, n_gen in ((4, 1), (9, 6), (1, 12), (6, 3))
    ]
    inputs, targets, valid = tr.batchify(pairs)
    assert inputs.shape == targets.shape == valid.shape == (4, 15)
    rows, pos = np.nonzero(valid)
    expected = [(i, len(prompt) - 1 + j) for i, (prompt, gen) in enumerate(pairs)
                for j in range(len(gen))]
    assert list(zip(rows.tolist(), pos.tolist())) == expected
    assert targets[rows, pos].tolist() == [t for _, gen in pairs for t in gen]
    for i, (prompt, gen) in enumerate(pairs):
        n = len(prompt) + len(gen) - 1
        assert inputs[i, :n].tolist() == [*prompt, *gen][:-1]
        assert (inputs[i, n:] == tasks.PAD).all() and (targets[i, n:] == tasks.PAD).all()


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
    """Central differences of the surrogate against its gradient, with ratios off
    the clip edges: most inside the band, and every third at e^±0.6, outside
    it, where for some tokens the min takes the clipped term (zero gradient)
    and for others the unclipped one, so both branches of the min are checked."""
    rng = np.random.default_rng(3)
    old = rng.normal(-1, 0.3, size=12)
    adv = rng.normal(0, 1, size=12)
    delta = rng.normal(0, 0.05, size=12)
    delta[::3] = 0.6 * np.array([1.0, -1.0, 1.0, -1.0])
    new0 = old + delta
    ratio = np.exp(delta)
    unclipped, clipped = ratio * adv, np.clip(ratio, 0.8, 1.28) * adv
    assert np.any(clipped < unclipped) and np.any(unclipped < clipped)

    def f(flat):
        return tr.clipped_pg_loss(flat, old, adv, 0.2, 0.28)

    assert grad_check(f, new0) <= 1e-5


def _sampled_groups(params, samples, advantages, n, temperature, max_len):
    """`train_rl`'s groups for these prompts: n rows of each drawn by `sample_group`
    with a record, advantages[i] for the i-th row drawn."""
    groups, adv = [], np.asarray(advantages, dtype=np.float64)
    for j, s in enumerate(samples):
        record: list = []
        group = ev.sample_group(params, s.prompt_tokens, n, temperature, max_len,
                                np.random.default_rng([j, 1]), record)
        groups.append((s, group, adv[j * n : (j + 1) * n], record))
    return groups


def _rows(groups):
    """(sample, generated tokens, old log-probs, advantage) of every row, in order."""
    return [(s, g.tokens, g.logprobs, a) for s, group, adv, _ in groups
            for g, a in zip(group, adv)]


def _fd_groups(temperature):
    """Three prompts of two lengths at a conditioned point, rows that stop at
    EOS, one reward-uniform group, and the other longest rows at zero advantage."""
    cfg = mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=2, context_len=24, seed=6)
    params = conditioned_point(cfg, 6)
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=0, n_rl=3, n_eval=0, seed=8)
    samples = tasks.generate_splits(spec)["rl_prompts"]
    adv = np.random.default_rng(6).normal(0.0, 1.0, size=9)
    adv[[0, 1, 2, 7, 8]] = 0.0
    groups = _sampled_groups(params, samples, adv, 3, temperature, 10)
    rows = _rows(groups)
    row_lengths = [len(s.prompt_tokens) + len(toks) - 1 for s, toks, *_ in rows]
    assert max(row_lengths) > max(n for n, a in zip(row_lengths, adv) if a != 0.0)
    assert len({len(s.prompt_tokens) for s in samples}) > 1
    assert any(toks[-1] == tasks.EOS for _, toks, *_ in rows)
    return params, groups


def test_rl_update_gradient_matches_fd_of_the_clipped_surrogate(monkeypatch):
    """The gradient `_rl_update` hands to AdamW, at temperature 0.7, for groups
    that `sample_group` drew, against central differences of the token-mean
    clipped surrogate, computed here one row at a time through
    `model.forward`, with the sampled log-probs and the advantages held fixed.
    The prompts differ in length and some rows stop at EOS. One group's
    advantages are all zero, as a reward-uniform group's are, and so are those
    of the other longest rows, so the update trains a narrower batch than
    all rows; the surrogate still averages over every token. At the sampling
    parameters every ratio is 1, inside the band; `clipped_pg_loss`'s own tests
    check both branches of the min."""
    temperature = 0.7
    params, groups = _fd_groups(temperature)
    rows = _rows(groups)

    def new_logprobs(flat):
        p, out = mdl.ParameterSet(params.config, flat), []
        for s, toks, *_ in rows:
            ids = np.array([*s.prompt_tokens, *toks])
            logits = mdl.forward(p, ids[None, :-1])[0][0] / temperature
            lp = logits - special.logsumexp(logits, axis=-1, keepdims=True)
            out.append(lp[np.arange(len(s.prompt_tokens) - 1, len(ids) - 1), toks])
        return np.concatenate(out)

    old = np.concatenate([lps for _, _, lps, _ in rows])
    adv_tok = np.repeat([a for *_, a in rows], [len(toks) for _, toks, *_ in rows])

    def surrogate(flat):
        ratio = np.exp(new_logprobs(flat) - old)
        clipped = np.clip(ratio, 1.0 - tr.CLIP_LOW, 1.0 + tr.CLIP_HIGH)
        return float(-np.minimum(ratio * adv_tok, clipped * adv_tok).mean())

    grads = []
    monkeypatch.setattr(tr, "adamw_step", lambda p, grad, *a, **k: grads.append(grad.copy()))
    before = params.flat.copy()
    loss, update_tokens = tr._rl_update(params, tr.adamw_init(params), groups,
                                        tr.RlConfig(temperature=temperature))
    assert len(grads) == 1 and np.array_equal(params.flat, before)
    assert abs(loss - surrogate(params.flat)) <= 1e-12
    assert update_tokens == int(np.count_nonzero(adv_tok))

    coords = informative_coords(grads[0], 40, np.random.default_rng([6, 1]))
    assert grad_check(lambda flat: (surrogate(flat), grads[0]), params.flat, coords=coords) <= 1e-5


def test_rl_update_gradient_is_the_one_hot_chain_rule_through_log_softmax(monkeypatch):
    """`_rl_update` takes its logit gradient from `objective.nll_sum` weighted by
    -dL/dlog p. The oracle here is the formulation it replaced: scatter dL/dlog p
    into a one-hot row per token, apply log_softmax's backward
    g - softmax * sum(g), divide by T and add it at each trained position. The
    two round only the target logit's entry differently, so the logit and the
    parameter gradients agree within 1e-14 relative."""
    temperature = 0.7
    params, groups = _fd_groups(temperature)
    backward = mdl.backward
    seen = []

    def recorded_backward(p, cache, dlogits):
        seen.append((cache, dlogits))
        return backward(p, cache, dlogits)

    grads = []
    monkeypatch.setattr(mdl, "backward", recorded_backward)
    monkeypatch.setattr(tr, "adamw_step", lambda p, grad, *a, **k: grads.append(grad.copy()))
    tr._rl_update(params, tr.adamw_init(params), groups, tr.RlConfig(temperature=temperature))
    ((cache, dlogits),) = seen

    rows = _rows(groups)
    inputs, targets, valid = tr.batchify([(s.prompt_tokens, toks) for s, toks, _, a in rows
                                          if a != 0.0])
    kept = [(record, row) for _, _, adv, record in groups
            for row, a in enumerate(adv) if a != 0.0]
    stitched = mdl.stitch_cache(params, inputs, kept)
    log_probs = nk.log_softmax(nk.matmul(stitched["xf"], params.tensors["head.w"]) / temperature)
    old = np.concatenate([lps for _, _, lps, _ in rows])
    adv_tok = np.repeat([a for *_, a in rows], [len(toks) for _, toks, *_ in rows])
    _, d_lp = tr.clipped_pg_loss(old, old, adv_tok, tr.CLIP_LOW, tr.CLIP_HIGH)
    b, l = np.nonzero(valid)
    one_hot = np.zeros((b.size, log_probs.shape[-1]))
    one_hot[np.arange(b.size), targets[b, l]] = d_lp[adv_tok != 0.0]
    d_rows = one_hot - np.exp(log_probs[b, l]) * one_hot.sum(axis=-1, keepdims=True)
    oracle = np.zeros(log_probs.shape)
    np.add.at(oracle, (b, l), d_rows / temperature)

    assert np.array_equal(dlogits != 0.0, oracle != 0.0)
    assert np.abs(dlogits - oracle).max() <= 1e-14 * np.abs(oracle).max()
    expected = backward(params, cache, oracle)
    assert np.abs(grads[0] - expected).max() <= 1e-14 * np.abs(expected).max()


def test_rl_update_with_all_advantages_zero_runs_no_model(monkeypatch):
    """A step whose groups are all uniform has a zero gradient: `_rl_update` makes
    no forward, stitch, backward or AdamW step, trains no token and returns the
    surrogate at ratio 1, -0.0."""
    cfg = small_model_config(seed=2)
    params = mdl.init(cfg)
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=0, n_rl=2, n_eval=0, seed=8)
    samples = tasks.generate_splits(spec)["rl_prompts"]
    groups = _sampled_groups(params, samples, [0.0] * 6, 3, 1.0, 5)
    calls = []
    for module, name in ((mdl, "forward"), (mdl, "stitch_cache"), (mdl, "backward"),
                         (tr, "adamw_step")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    opt = tr.adamw_init(params)
    before = params.flat.copy()
    loss, update_tokens = tr._rl_update(params, opt, groups, tr.RlConfig())
    assert calls == []
    assert np.array_equal(params.flat, before) and opt.t == 0
    assert loss == 0.0 and math.copysign(1.0, loss) == -1.0
    assert update_tokens == 0


def test_rl_update_with_no_generated_token_is_zero(monkeypatch):
    """Prompts that fill the context generate nothing: `_rl_update` then has no
    token to average over, runs no surrogate and no model, and returns 0.0
    and no trained token, as `train_rl` records for such a step."""
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=0, n_rl=3, n_eval=0, seed=8)
    samples = tasks.generate_splits(spec)["rl_prompts"]
    width = max(len(s.prompt_tokens) for s in samples)
    cfg = mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, context_len=width)
    params = mdl.init(cfg)
    full = [s for s in samples if len(s.prompt_tokens) == width]
    groups = _sampled_groups(params, full, np.arange(2.0 * len(full)), 2, 1.0, 4)
    assert all(not g.tokens for _, group, *_ in groups for g in group)
    calls = []
    for module, name in ((tr, "clipped_pg_loss"), (mdl, "stitch_cache"), (mdl, "backward")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    loss, update_tokens = tr._rl_update(params, tr.adamw_init(params), groups, tr.RlConfig())
    assert calls == [] and update_tokens == 0
    assert loss == 0.0 and math.copysign(1.0, loss) == 1.0


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
    assert all(r.update_tokens == 0 for r in records)  # every step skipped


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


def test_one_update_per_rollout_batch_keeps_every_ratio_inside_the_clip_band(monkeypatch):
    """Why the clip band is a constant, not a setting: a rollout batch serves one
    update, made with the parameters that sampled it, so its new log-probs are
    the sampled ones and every importance ratio is exactly 1, even in groups
    whose rewards differ. A second update per rollout batch would be the change
    that lets the band bind."""
    calls = []
    pg_loss = tr.clipped_pg_loss
    monkeypatch.setattr(tr, "clipped_pg_loss", lambda *a: calls.append(a) or pg_loss(*a))
    params, prompts = _rl_setup(seed=2)
    before = params.flat.copy()
    config = tr.RlConfig(learning_rate=1e-2, total_steps=4, rollout_group_size=4,
                         prompts_per_step=2, max_gen_len=8, seed=5)
    _, records = tr.train_rl(params, prompts, lambda s, toks: len(toks) % 2 == 0, config)
    assert len(calls) == 4 and not np.array_equal(params.flat, before)
    assert sum(np.count_nonzero(adv) for _, _, adv, _, _ in calls) > 0  # groups not uniform
    # update_tokens counts the tokens the update trains: those whose advantage is nonzero
    assert [r.update_tokens for r in records] == [np.count_nonzero(a) for _, _, a, _, _ in calls]
    for new, old, _, c_l, c_h in calls:
        assert (c_l, c_h) == (tr.CLIP_LOW, tr.CLIP_HIGH)
        assert np.array_equal(new, old)


def test_rl_writes_metrics(tmp_path):
    params, prompts = _rl_setup(seed=4)
    config = tr.RlConfig(learning_rate=1e-4, total_steps=2, rollout_group_size=4,
                         prompts_per_step=2, max_gen_len=6, seed=2)
    tr.train_rl(params, prompts, tasks.verify, config, run_dir=tmp_path)
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert tr.RL_METRICS_COLUMNS == ["step", "pg_loss", "mean_reward", "zero_variance_frac",
                                     "mean_entropy", "mean_gen_len", "update_tokens"]
    assert lines[0] == ",".join(tr.RL_METRICS_COLUMNS)
    assert len(lines) == 3
    assert (tmp_path / "checkpoints" / "final.manifest.json").exists()


def test_rl_timings_split_sampling_and_update(tmp_path):
    """timings.csv of an RL run gives each step's seconds spent sampling and in the
    update; both lie within the step's seconds, and metrics.csv has none of them."""
    params, prompts = _rl_setup(seed=4)
    config = tr.RlConfig(learning_rate=1e-4, total_steps=3, rollout_group_size=4,
                         prompts_per_step=2, max_gen_len=6, seed=2)
    tr.train_rl(params, prompts, tasks.verify, config, run_dir=tmp_path)
    with open(tmp_path / "timings.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["step", "seconds", "sample_s", "update_s"]
        rows = [{k: float(v) for k, v in row.items()} for row in reader]
    assert [r["step"] for r in rows] == [0, 1, 2]
    for r in rows:
        assert r["sample_s"] > 0.0 and r["update_s"] >= 0.0
        assert r["sample_s"] + r["update_s"] <= r["seconds"]
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == ",".join(tr.RL_METRICS_COLUMNS)
