import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from eksft import evaluation as ev
from eksft import model as mdl
from eksft import numerics as nk
from eksft import objective as obj
from eksft import tasks
from eksft import train as tr
from eksft.errors import (
    ConfigError,
    InputError,
    LengthError,
    ManifestError,
    ShapeMismatchError,
    TruncatedBlobError,
)

from conftest import conditioned_point, model_fd_worst, random_batch


def test_init_deterministic(tiny_config):
    a = mdl.init(tiny_config)
    b = mdl.init(tiny_config)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_init_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        mdl.ModelConfig(d_model=63, n_heads=2)


def test_init_rejects_tiny_vocab():
    with pytest.raises(ConfigError):
        mdl.ModelConfig(vocab_size=4)


def test_init_weight_scale_matches_seeded_normal():
    cfg = mdl.ModelConfig(vocab_size=16, d_model=32, n_layers=2, n_heads=2, context_len=32, seed=11)
    params = mdl.init(cfg)
    weights = np.concatenate(
        [t.reshape(-1) for name, t in params.tensors.items() if t.ndim == 2]
    )
    # |N(0, s)| has mean s*sqrt(2/pi) and std s*sqrt(1 - 2/pi)
    s = mdl.INIT_STD
    expected = s * math.sqrt(2.0 / math.pi)
    tol = 3.0 * s * math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(weights.size)
    assert abs(np.abs(weights).mean() - expected) <= tol


def test_forward_causality(tiny_config):
    params = mdl.init(tiny_config)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, tiny_config.vocab_size, size=(1, 7))
    base, _ = mdl.forward(params, ids, want_cache=False)
    for t in range(1, 7):
        perturbed = ids.copy()
        perturbed[0, t] = (perturbed[0, t] + 1) % tiny_config.vocab_size
        out, _ = mdl.forward(params, perturbed, want_cache=False)
        assert np.array_equal(out[0, :t], base[0, :t])


def test_forward_batch_purity(tiny_config):
    params = mdl.init(tiny_config)
    ids = np.array([[1, 4, 5, 6], [1, 4, 5, 6], [1, 4, 5, 6]])
    out, _ = mdl.forward(params, ids, want_cache=False)
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[1], out[2])


def test_forward_rejects_bad_ids(tiny_config):
    params = mdl.init(tiny_config)
    with pytest.raises(InputError):
        mdl.forward(params, np.array([[0, 99]]))
    with pytest.raises(LengthError):
        mdl.forward(params, np.zeros((1, tiny_config.context_len + 1), dtype=int))


def test_forward_past_rejects_overlong_continuation(tiny_config):
    params = mdl.init(tiny_config)
    past = []
    mdl.forward(params, np.ones((2, tiny_config.context_len - 1), dtype=int),
                want_cache=False, past=past)
    mdl.forward(params, np.ones((2, 1), dtype=int), want_cache=False, past=past)
    with pytest.raises(LengthError):
        mdl.forward(params, np.ones((2, 1), dtype=int), want_cache=False, past=past)


@pytest.mark.parametrize("prefill", [1, 3, 9])
def test_incremental_forward_matches_full_prefix(prefill):
    cfg = mdl.ModelConfig(vocab_size=11, d_model=16, n_layers=2, n_heads=2, context_len=16, seed=5)
    params = conditioned_point(cfg, 5)
    rng = np.random.default_rng(prefill)
    for name in params.tensors:  # move the norm gains and biases off their init values too
        params.tensors[name] += rng.normal(0.0, 0.1, params.tensors[name].shape)
    ids = rng.integers(0, cfg.vocab_size, size=(3, cfg.context_len))
    past = []
    logits, cache = mdl.forward(params, ids[:, :prefill], want_cache=False, past=past)
    assert cache is None and len(past) == cfg.n_layers
    full, _ = mdl.forward(params, ids[:, :prefill], want_cache=False)
    assert np.array_equal(logits, full)
    for t in range(prefill, cfg.context_len):
        step, _ = mdl.forward(params, ids[:, t : t + 1], want_cache=False, past=past)
        full, _ = mdl.forward(params, ids[:, : t + 1], want_cache=False)
        assert step.shape == (3, 1, cfg.vocab_size)
        assert np.abs(step[:, 0] - full[:, -1]).max() <= 1e-12
    assert past[0][0].shape == (3, cfg.context_len, cfg.n_heads, cfg.head_dim)


def test_stitched_cache_gives_the_backward_of_a_full_forward():
    """`stitch_cache` over `sample_group` records gives `backward` the gradient that
    a forward over the padded batch gives, within 1e-12 relative on the flat
    vector. The head over the stitched `xf` gives the log-probs each token was
    sampled with, bit for bit, and those of that forward within 1e-12. The
    rows come from three prompts of different lengths: some stop at EOS, one
    fills the context, and some share histories. The gradient reaches every
    real position, prompt ones included; padding gets none."""
    cfg = mdl.ModelConfig(vocab_size=32, d_model=32, n_layers=2, n_heads=2, context_len=32, seed=7)
    params = mdl.init(cfg)
    rng = np.random.default_rng(7)
    for name in params.tensors:
        params.tensors[name] += rng.normal(0.0, 0.1, params.tensors[name].shape)
    params.tensors["head.w"] *= 3.0
    params.tensors["lnf.g"][0] = 0.0
    params.tensors["lnf.b"][0] = 1.0
    params.tensors["head.w"][0, tasks.EOS] = 3.0
    temperature = 0.8
    rows, pairs, drawn = [], [], []
    for j, text in enumerate(("1+2=", "12+34=", "9" * 20)):
        prompt = [tasks.BOS] + tasks.VOCAB.tokenize(text)
        record: list = []
        group = ev.sample_group(params, prompt, 8, temperature, 20, np.random.default_rng(j), record)
        for i, g in enumerate(group):
            if g.tokens and i != 3:  # a row the update would not train
                rows.append((record, i))
                pairs.append((prompt, g.tokens))
                drawn += g.logprobs
    lengths = [len(p) + len(t) for p, t in pairs]
    assert cfg.context_len in lengths
    # kept rows that share the node after their first token: one history, one cache row
    continued = [(tuple(p), t[0]) for p, t in pairs if len(t) > 1]
    assert len(set(continued)) < len(continued)
    assert any(t[-1] == tasks.EOS for _, t in pairs) and len({len(p) for p, _ in pairs}) == 3
    ids, targets, sampled = tr.batchify(pairs)
    real = np.arange(ids.shape[1]) < np.array(lengths)[:, None] - 1

    cache = mdl.stitch_cache(params, ids, rows)
    logits, full = mdl.forward(params, ids)
    assert cache["ids"] is ids
    stitched = nk.log_softmax(nk.matmul(cache["xf"], params.tensors["head.w"]) / temperature)
    b, l = np.nonzero(sampled)
    assert np.array_equal(stitched[b, l, targets[b, l]], drawn)
    log_probs = nk.log_softmax(logits / temperature)
    assert np.abs(stitched[sampled] - log_probs[sampled]).max() <= 1e-12
    dlogits = np.where(real[..., None], rng.normal(size=logits.shape), 0.0)
    want = mdl.backward(params, full, dlogits)
    got = mdl.backward(params, cache, dlogits)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_stitch_of_a_forwards_own_packing_gives_back_its_cache(tiny_config):
    """`pack_positions` then `stitch_cache`, each row the call's own, returns every
    field of a plain forward's cache bit for bit: one layout, `CACHE_FIELDS`,
    writes and reads the record."""
    params = mdl.init(tiny_config)
    ids = np.random.default_rng(3).integers(0, tiny_config.vocab_size, size=(3, 6))
    _, cache = mdl.forward(params, ids)  # fewer positions than context_len: padded keys
    calls = [(mdl.pack_positions(tiny_config, cache), np.arange(3))]
    stitched = mdl.stitch_cache(params, ids, [(calls, b) for b in range(3)])
    layer_names = list(mdl.CACHE_FIELDS["layer"])
    final_names = list(mdl.CACHE_FIELDS["final"])
    assert sorted(cache) == sorted(stitched) == sorted(["ids", "layers", *final_names])
    for name in final_names:
        assert np.array_equal(stitched[name], cache[name])
    assert len(stitched["layers"]) == len(cache["layers"]) == tiny_config.n_layers
    for got, want in zip(stitched["layers"], cache["layers"]):
        assert sorted(got) == sorted(want) == sorted(layer_names)
        for name in layer_names:
            assert np.array_equal(got[name], want[name]), name


def einsum_forward_backward(params: mdl.ParameterSet, ids: np.ndarray, dlogits=None):
    """Oracle: (logits, flat gradient or None) of `forward`/`backward` with the
    attention written as the six einsums of the queries-by-keys formulation."""
    cfg, t = params.config, params.tensors
    B, L = ids.shape
    H, dh, d = cfg.n_heads, cfg.head_dim, cfg.d_model
    scale = 1.0 / math.sqrt(dh)
    x = t["tok_emb"][ids] + t["pos_emb"][:L]
    bias = np.triu(np.full((L, L), -1e30), k=1)
    layers = []
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        h, ln1 = nk.layer_norm(x, t[p + "ln1.g"], t[p + "ln1.b"])
        qh, kh, vh = ((h @ t[p + w]).reshape(B, L, H, dh) for w in ("wq", "wk", "wv"))
        scores = np.einsum("blhd,bmhd->bhlm", qh, kh) * scale + bias
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        att = e / e.sum(axis=-1, keepdims=True)
        ctx = np.einsum("bhlm,bmhd->blhd", att, vh).reshape(B, L, d)
        x = x + ctx @ t[p + "wo"]
        h2, ln2 = nk.layer_norm(x, t[p + "ln2.g"], t[p + "ln2.b"])
        u = h2 @ t[p + "w1"]
        a, cdf = nk.gelu(u)
        x = x + a @ t[p + "w2"]
        layers.append((h, ln1, qh, kh, vh, att, ctx, ln2, h2, u, a, cdf))
    xf, lnf = nk.layer_norm(x, t["lnf.g"], t["lnf.b"])
    logits = xf @ t["head.w"]
    if dlogits is None:
        return logits, None

    grad = np.zeros_like(params.flat)
    g = mdl.ParameterSet(cfg, grad).tensors

    def linear_backward(dout, inp, w):
        g[w][...] = inp.reshape(-1, inp.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
        return dout @ t[w].T

    dx, g["lnf.g"][...], g["lnf.b"][...] = nk.layer_norm_backward(
        linear_backward(dlogits, xf, "head.w"), lnf)
    for i in reversed(range(cfg.n_layers)):
        p = f"layer{i}."
        h, ln1, qh, kh, vh, att, ctx, ln2, h2, u, a, cdf = layers[i]
        du = nk.gelu_backward(linear_backward(dx, a, p + "w2"), u, cdf)
        dx_mid, g[p + "ln2.g"][...], g[p + "ln2.b"][...] = nk.layer_norm_backward(
            linear_backward(du, h2, p + "w1"), ln2)
        dx = dx + dx_mid
        dctx_h = linear_backward(dx, ctx, p + "wo").reshape(B, L, H, dh)
        datt = np.einsum("blhd,bmhd->bhlm", dctx_h, vh)
        dvh = np.einsum("bhlm,blhd->bmhd", att, dctx_h)
        dscores = att * (datt - (att * datt).sum(axis=-1, keepdims=True))
        dqh = np.einsum("bhlm,bmhd->blhd", dscores, kh) * scale
        dkh = np.einsum("bhlm,blhd->bmhd", dscores, qh) * scale
        dh_sum = sum(linear_backward(dz.reshape(B, L, d), h, p + w)
                     for w, dz in (("wq", dqh), ("wk", dkh), ("wv", dvh)))
        dx_in, g[p + "ln1.g"][...], g[p + "ln1.b"][...] = nk.layer_norm_backward(dh_sum, ln1)
        dx = dx + dx_in
    g["pos_emb"][:L] = dx.sum(axis=0)
    g["tok_emb"][...] = nk.embedding_lookup_backward(dx, ids, cfg.vocab_size)
    return logits, grad


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_forward_and_backward_match_einsum_oracle():
    cfg = mdl.ModelConfig(vocab_size=32, d_model=64, n_layers=2, n_heads=4, context_len=48, seed=2)
    params = conditioned_point(cfg, 2)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, cfg.vocab_size, size=(8, 24))
    dlogits = rng.normal(size=(8, 24, cfg.vocab_size))
    logits, cache = mdl.forward(params, ids)
    want_logits, want_grad = einsum_forward_backward(params, ids, dlogits)
    assert _rel_err(logits, want_logits) <= 1e-12
    assert _rel_err(mdl.backward(params, cache, dlogits), want_grad) <= 1e-12

    # a past= decode step: 16 rows prefilled with 10 ids, then one id each
    ids = rng.integers(0, cfg.vocab_size, size=(16, 11))
    past = []
    mdl.forward(params, ids[:, :10], want_cache=False, past=past)
    step, _ = mdl.forward(params, ids[:, 10:], want_cache=False, past=past)
    assert _rel_err(step[:, 0], einsum_forward_backward(params, ids)[0][:, -1]) <= 1e-12


@pytest.mark.parametrize("keys", [8, 9, 16, 23, 33, 64])
def test_att_softmax_trailing_masked_keys_keep_row_bits(keys):
    """Keys-by-queries scores: appending masked keys to a row leaves its
    attention weights bit-identical, as a zero-padded batch needs."""
    rng = np.random.default_rng(keys)
    scores_t = rng.normal(0.0, 3.0, size=(2, 3, keys, 5))
    att = mdl._att_softmax(scores_t)
    assert att.shape == (2, 3, 5, keys)
    for extra in (1, 7, 40):
        padded = np.concatenate([scores_t, np.full((2, 3, extra, 5), -1e30)], axis=-2)
        att_padded = mdl._att_softmax(padded)
        assert np.array_equal(att_padded[..., :keys], att)
        assert not att_padded[..., keys:].any()


def test_full_nll_gradient_matches_fd(tiny_config):
    worst = 0.0
    for seed in range(5):
        params = conditioned_point(tiny_config, seed)
        rng = np.random.default_rng(seed)
        ids, targets, valid = random_batch(rng, tiny_config)

        def objective(logits):
            return obj.objective_terms("sft", logits, logits, targets, valid)

        worst = max(worst, model_fd_worst(params, ids, objective, 40, [seed, 1]))
    assert worst <= 1e-5


def test_tensors_are_views_into_flat(tiny_config):
    params = mdl.init(tiny_config)
    assert params.flat.shape == (sum(t.size for t in params.tensors.values()),)
    for i, (name, t) in enumerate(params.tensors.items()):
        assert t.flags.c_contiguous and np.shares_memory(t, params.flat)
        t.reshape(-1)[0] = 100.0 + i
        t += 1.0
        params.tensors[name] += 1.0  # stores back the same view
        assert params.flat[mdl.tensor_slices(tiny_config)[name]][0] == 102.0 + i
    assert np.array_equal(np.concatenate([t.reshape(-1) for t in params.tensors.values()]),
                          params.flat)


def test_rebinding_a_tensor_raises(tiny_config):
    params = mdl.init(tiny_config)
    with pytest.raises(TypeError):
        params.tensors["head.w"] = params.tensors["head.w"] + 1.0
    with pytest.raises(TypeError):
        params.tensors["head.w"] = params.tensors["head.w"].copy()
    with pytest.raises(TypeError):
        params.tensors["head.b"] = None  # no such tensor
    assert np.shares_memory(params.tensors["head.w"], params.flat)


def test_reference_views_are_read_only(tiny_config):
    params = mdl.init(tiny_config)
    ref = mdl.snapshot_reference(params)
    assert not ref.flat.flags.writeable and not np.shares_memory(ref.flat, params.flat)
    for name, t in ref.tensors.items():
        assert not t.flags.writeable and np.shares_memory(t, ref.flat)
        with pytest.raises(ValueError):
            ref.tensors[name] += 1.0
    params.flat += 1.0
    assert np.array_equal(ref.flat + 1.0, params.flat)


def test_reference_snapshot_kl_zero(tiny_config):
    params = mdl.init(tiny_config)
    ref = mdl.snapshot_reference(params)
    ids = np.array([[1, 4, 5, 6, 7]])
    logits, _ = mdl.forward(params, ids, want_cache=False)
    lp = nk.log_softmax(logits)
    assert np.allclose(nk.kl(lp, nk.log_softmax(ref.logits(ids))), 0.0)


def test_reference_immutable_after_update(tiny_config):
    params = mdl.init(tiny_config)
    ref = mdl.snapshot_reference(params)
    ids = np.array([[1, 4, 5, 6, 7]])
    before = ref.logits(ids)

    targets = np.array([[4, 5, 6, 7, 2]])
    valid = np.ones((1, 5), dtype=bool)
    logits, cache = mdl.forward(params, ids)
    d = obj.objective_terms("sft", logits, logits, targets, valid).dlogits
    grads = mdl.backward(params, cache, d)
    tr.adamw_step(params, grads, tr.adamw_init(params), lr=1e-2)

    assert np.array_equal(ref.logits(ids), before)
    with pytest.raises(ValueError):
        ref.tensors["tok_emb"][0, 0] = 1.0  # read-only arrays


def test_checkpoint_round_trip(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    mdl.save_checkpoint(params, tmp_path / "ckpt")
    loaded = mdl.load_checkpoint(tmp_path / "ckpt")
    assert np.array_equal(loaded.flat, params.flat)


def test_checkpoint_round_trip_is_idempotent(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    mdl.save_checkpoint(params, tmp_path / "a")
    once = mdl.load_checkpoint(tmp_path / "a")
    mdl.save_checkpoint(once, tmp_path / "b")
    twice = mdl.load_checkpoint(tmp_path / "b")
    for name in once.tensors:
        assert np.array_equal(once.tensors[name], twice.tensors[name])


def test_checkpoint_hash_mismatch(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    manifest_path, _ = mdl.save_checkpoint(params, tmp_path / "ckpt")
    manifest = json.loads(manifest_path.read_text())
    manifest["sha256"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="'sha256' = '0000"):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_rejects_a_flipped_blob_byte(tmp_path, tiny_config):
    _, weights_path = mdl.save_checkpoint(mdl.init(tiny_config), tmp_path / "ckpt")
    blob = bytearray(weights_path.read_bytes())
    blob[len(blob) // 3] ^= 1
    weights_path.write_bytes(bytes(blob))
    with pytest.raises(ManifestError, match="sha256"):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_refuses_a_float32_version_1_checkpoint(tmp_path, tiny_config):
    """The float32 format's manifest, written by hand: it differs from version 2 in
    several keys, and the error names the version first."""
    params = mdl.init(tiny_config)
    manifest_path, weights_path = mdl.checkpoint_paths(tmp_path / "ckpt")
    slices = mdl.tensor_slices(tiny_config)
    manifest = {
        "format_version": 1, "config": dataclasses.asdict(tiny_config),
        "config_hash": "0" * 64, "seed": tiny_config.seed, "run_id": "", "version": "1",
        "dtype": "<f4", "total_nbytes": 4 * params.flat.size,
        "tensors": [{"name": name, "shape": list(shape), "offset": 4 * slices[name].start,
                     "nbytes": 4 * (slices[name].stop - slices[name].start)}
                    for name, shape, _ in mdl.parameter_layout(tiny_config)],
    }
    manifest_path.write_text(json.dumps(manifest))
    weights_path.write_bytes(params.flat.astype("<f4").tobytes())
    with pytest.raises(ManifestError, match="'format_version' = 1"):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_loaded_checkpoint_trains_in_place(tmp_path, tiny_config):
    mdl.save_checkpoint(mdl.init(tiny_config), tmp_path / "ckpt")
    params = mdl.load_checkpoint(tmp_path / "ckpt")
    before = params.flat.copy()
    assert params.flat.flags.writeable
    ids = np.arange(8) % tiny_config.vocab_size
    logits, cache = mdl.forward(params, ids)
    grads = mdl.backward(params, cache, np.ones_like(logits))
    tr.adamw_step(params, grads, tr.adamw_init(params), lr=1e-2)
    assert not np.array_equal(params.flat, before)


@pytest.mark.parametrize("key, value", [
    ("dtype", "<f4"), ("format_version", 99), ("extra", 1),
])
def test_checkpoint_rejects_any_manifest_edit(tmp_path, tiny_config, key, value):
    params = mdl.init(tiny_config)
    manifest_path, _ = mdl.save_checkpoint(params, tmp_path / "ckpt")
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=f"'{key}' = {value!r}"):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_manifest_is_the_one_definition(tmp_path, tiny_config):
    manifest_path, weights_path = mdl.save_checkpoint(mdl.init(tiny_config), tmp_path / "ckpt")
    assert (manifest_path, weights_path) == mdl.checkpoint_paths(tmp_path / "ckpt")
    manifest = json.loads(manifest_path.read_text())
    digest = hashlib.sha256(weights_path.read_bytes()).hexdigest()
    assert manifest == mdl._manifest(tiny_config, digest)
    assert not {"version", "run_id", "seed", "config_hash"} & manifest.keys()
    assert manifest["total_nbytes"] == weights_path.stat().st_size


@pytest.mark.parametrize("text", ["5", "[]", '"x"', "null", '{"config": 5}', "{}",
                                  '{"config": {"d_model": 15}}', '{"config": {"n_heads": 0}}'])
def test_checkpoint_rejects_non_manifest_json(tmp_path, tiny_config, text):
    manifest_path, _ = mdl.save_checkpoint(mdl.init(tiny_config), tmp_path / "ckpt")
    manifest_path.write_text(text)
    with pytest.raises(ManifestError, match="holds no valid config"):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_corrupt_manifest(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    manifest_path, _ = mdl.save_checkpoint(params, tmp_path / "ckpt")
    manifest_path.write_text("{not json")
    with pytest.raises(ManifestError):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_truncated_blob(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    _, weights_path = mdl.save_checkpoint(params, tmp_path / "ckpt")
    data = weights_path.read_bytes()
    weights_path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedBlobError):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_missing_blob(tmp_path, tiny_config):
    _, weights_path = mdl.save_checkpoint(mdl.init(tiny_config), tmp_path / "ckpt")
    weights_path.unlink()
    with pytest.raises(TruncatedBlobError, match="missing weights blob"):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_overlong_blob(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    _, weights_path = mdl.save_checkpoint(params, tmp_path / "ckpt")
    weights_path.write_bytes(weights_path.read_bytes() + b"\0" * 4)
    with pytest.raises(TruncatedBlobError, match="manifest promises"):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_shape_mismatch(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    manifest_path, _ = mdl.save_checkpoint(params, tmp_path / "ckpt")
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"][0]["shape"] = [1, 1]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ShapeMismatchError):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_rejects_swapped_offsets(tmp_path, tiny_config):
    """wq and wk have the same size, so swapping their offsets keeps every byte count."""
    params = mdl.init(tiny_config)
    manifest_path, _ = mdl.save_checkpoint(params, tmp_path / "ckpt")
    manifest = json.loads(manifest_path.read_text())
    entries = {e["name"]: e for e in manifest["tensors"]}
    wq, wk = entries["layer0.wq"], entries["layer0.wk"]
    wq["offset"], wk["offset"] = wk["offset"], wq["offset"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ShapeMismatchError, match="layer0.wq"):
        mdl.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_round_trip_drift_below_threshold(tmp_path, tiny_config):
    """A round trip gives back the vector, so drift is exactly 0 at every threshold."""
    from eksft.analyze import DEFAULT_DRIFT_THRESHOLDS, parameter_drift

    params = mdl.init(tiny_config)
    mdl.save_checkpoint(params, tmp_path / "ckpt")
    report = parameter_drift(params, mdl.load_checkpoint(tmp_path / "ckpt"),
                             thresholds=(0.0, *DEFAULT_DRIFT_THRESHOLDS))
    assert report.global_mean_rel_change == 0.0
    assert set(report.global_frac_exceeding.values()) == {0.0}
    for t in report.per_tensor:
        assert t.mean_rel_change == 0.0 and set(t.frac_exceeding.values()) == {0.0}


def test_reference_survives_round_trip_bit_exact(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    ref = mdl.snapshot_reference(params)
    mdl.save_checkpoint(ref, tmp_path / "ref")
    loaded = mdl.load_checkpoint(tmp_path / "ref")
    assert np.array_equal(loaded.flat, ref.flat)
