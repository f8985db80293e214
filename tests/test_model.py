import json
import math

import numpy as np
import pytest

from eksft import model as mdl
from eksft import numerics as nk
from eksft import objective as obj
from eksft import train as tr
from eksft.errors import (
    ConfigError,
    InputError,
    LengthError,
    ManifestError,
    ShapeMismatchError,
    TruncatedBlobError,
)

from conftest import conditioned_point, model_fd_worst, random_batch, single_step


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


def test_forward_past_rejects_backward_cache(tiny_config):
    params = mdl.init(tiny_config)
    with pytest.raises(InputError):
        mdl.forward(params, np.ones((1, 3), dtype=int), past=[])


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


def test_full_nll_gradient_matches_fd(tiny_config):
    worst = 0.0
    for seed in range(5):
        params = conditioned_point(tiny_config, seed)
        rng = np.random.default_rng(seed)
        ids, targets, valid = random_batch(rng, tiny_config)

        def loss(logits):
            return single_step(obj.objective_terms("sft", logits, logits, targets, valid))

        worst = max(worst, model_fd_worst(params, ids, loss, 40, [seed, 1]))
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
    _, d = single_step(obj.objective_terms("sft", logits, logits, targets, valid))
    grads = mdl.backward(params, cache, d)
    tr.adamw_step(params, grads, tr.adamw_init(params), lr=1e-2)

    assert np.array_equal(ref.logits(ids), before)
    with pytest.raises(ValueError):
        ref.tensors["tok_emb"][0, 0] = 1.0  # read-only arrays


def test_checkpoint_round_trip(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    mdl.save_checkpoint(params, tmp_path / "ckpt")
    loaded = mdl.load_checkpoint(tmp_path / "ckpt")
    for name in params.tensors:
        assert np.array_equal(
            loaded.tensors[name], params.tensors[name].astype(np.float32).astype(np.float64)
        )


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
    manifest["config_hash"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ManifestError):
        mdl.load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("key, value", [
    ("dtype", "<f8"), ("format_version", 99), ("seed", 4), ("run_id", "x"), ("version", "2"),
    ("extra", 1),
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
    assert manifest == mdl._manifest(tiny_config)
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
    from eksft.analyze import parameter_drift

    params = mdl.init(tiny_config)
    mdl.save_checkpoint(params, tmp_path / "ckpt")
    loaded = mdl.load_checkpoint(tmp_path / "ckpt")
    report = parameter_drift(params, loaded, thresholds=(1e-3,))
    assert report.global_frac_exceeding[1e-3] == 0.0


def test_reference_survives_round_trip_bit_exact(tmp_path, tiny_config):
    params = mdl.init(tiny_config)
    ref = mdl.snapshot_reference(params)
    mdl.save_checkpoint(ref, tmp_path / "ref")
    loaded = mdl.load_checkpoint(tmp_path / "ref")
    for name in ref.tensors:
        assert np.array_equal(
            loaded.tensors[name].astype(np.float32), ref.tensors[name].astype(np.float32)
        )
