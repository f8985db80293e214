"""Tiny decoder-only transformer with hand-written backward.

Pre-norm blocks, learned absolute positions, separate output head, all math
in float64, weights in one flat vector (`ParameterSet`). `forward` returns
logits plus a cache; `backward` consumes the cache and a gradient w.r.t. the
logits and returns the parameter gradient as one flat vector. For
incremental decoding, `forward` also takes `past`, a list of per-layer (K, V)
arrays that the call extends in place: the new ids then sit at the positions
after the cached ones and attend to all of them. Checkpoints are a JSON
manifest plus the flat vector as one little-endian float32 blob; `_manifest`
is the one definition of the manifest, which a load must match whole.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import numerics as nk
from .errors import (
    ConfigError,
    InputError,
    LengthError,
    ManifestError,
    ShapeMismatchError,
    TruncatedBlobError,
)

INIT_STD = 0.02
CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 32
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    context_len: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 8:
            raise ConfigError(f"vocab_size must be >= 8, got {self.vocab_size}")
        for name in ("d_model", "n_layers", "n_heads", "context_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Fixed (name, shape, init kind) list; kind is one of normal/ones/zeros."""
    d, v, c = config.d_model, config.vocab_size, config.context_len
    layout: list[tuple[str, tuple[int, ...], str]] = [
        ("tok_emb", (v, d), "normal"),
        ("pos_emb", (c, d), "normal"),
    ]
    # Linear maps carry no biases (a key bias is exactly inert under the
    # row softmax; the rest add nothing at this scale). Norm affines do.
    for i in range(config.n_layers):
        p = f"layer{i}."
        layout += [
            (p + "ln1.g", (d,), "ones"),
            (p + "ln1.b", (d,), "zeros"),
            (p + "wq", (d, d), "normal"),
            (p + "wk", (d, d), "normal"),
            (p + "wv", (d, d), "normal"),
            (p + "wo", (d, d), "normal"),
            (p + "ln2.g", (d,), "ones"),
            (p + "ln2.b", (d,), "zeros"),
            (p + "w1", (d, 4 * d), "normal"),
            (p + "w2", (4 * d, d), "normal"),
        ]
    layout += [
        ("lnf.g", (d,), "ones"),
        ("lnf.b", (d,), "zeros"),
        ("head.w", (d, v), "normal"),
    ]
    return layout


def tensor_slices(config: ModelConfig) -> dict[str, slice]:
    """Each tensor's slice of a flat vector in `parameter_layout` order (the
    one place that knows the offsets)."""
    slices, start = {}, 0
    for name, shape, _ in parameter_layout(config):
        slices[name] = slice(start, start + math.prod(shape))
        start = slices[name].stop
    return slices


def _flat_size(config: ModelConfig) -> int:
    return sum(math.prod(shape) for _, shape, _ in parameter_layout(config))


class TensorViews(Mapping):
    """Name -> view mapping; `t[name] += x` stores back the same view, any other store raises."""

    def __init__(self, views: dict[str, np.ndarray]):
        self._views = views

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __setitem__(self, name: str, value) -> None:
        if name not in self._views or value is not self._views[name]:
            raise TypeError(f"tensor {name!r} is a view into the flat vector; write through it")


class ParameterSet:
    """All learnable weights: `flat`, one float64 vector in `parameter_layout`
    order, and `tensors`, each name's C-contiguous view into it. Write through
    a view (`+=`, `[...] =`); rebinding a name raises."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        size = _flat_size(config)
        if flat.dtype != nk.F64 or flat.shape != (size,) or not flat.flags.c_contiguous:
            raise ShapeMismatchError(f"parameters of {config} must be a contiguous float64 vector "
                                     f"of {size}, got {flat.dtype} {flat.shape}")
        self.config = config
        self.flat = flat
        slices = tensor_slices(config)
        self.tensors = TensorViews(
            {name: flat[slices[name]].reshape(shape) for name, shape, _ in parameter_layout(config)}
        )

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.config, self.flat.copy())

    def validate(self) -> None:
        nk.require_finite("parameters", self.flat)


class ReferenceModel(ParameterSet):
    """Frozen copy of a ParameterSet: its vector and every view are read-only."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        frozen = flat.copy()
        frozen.flags.writeable = False
        super().__init__(config, frozen)

    def logits(self, token_ids: np.ndarray) -> np.ndarray:
        out, _ = forward(self, token_ids, want_cache=False)
        return out


def init(config: ModelConfig) -> ParameterSet:
    """Seeded init: normal(0, 0.02) weights, unit norm gains, zero biases."""
    rng = np.random.default_rng(config.seed)
    params = ParameterSet(config, np.zeros(_flat_size(config)))
    for name, shape, kind in parameter_layout(config):
        if kind == "normal":
            params.tensors[name][...] = rng.normal(0.0, INIT_STD, size=shape)
        elif kind == "ones":
            params.tensors[name][...] = 1.0
    return params


def snapshot_reference(params: ParameterSet) -> ReferenceModel:
    """Copy params into an immutable reference model."""
    params.validate()
    return ReferenceModel(params.config, params.flat)


# -----------------------------------------------------------------------------
# forward / backward
# -----------------------------------------------------------------------------


def _check_ids(config: ModelConfig, token_ids: np.ndarray, offset: int = 0) -> np.ndarray:
    ids = np.asarray(token_ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise InputError(f"token ids must be (B, L), got shape {ids.shape}")
    if offset + ids.shape[1] > config.context_len:
        raise LengthError(
            f"sequence length {offset + ids.shape[1]} exceeds context_len {config.context_len}"
        )
    if ids.shape[1] == 0:
        raise InputError("empty sequence")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise InputError(
            f"token ids out of range [0, {config.vocab_size}): min={ids.min()}, max={ids.max()}"
        )
    return ids.astype(np.int64)


def _att_softmax(scores: np.ndarray) -> np.ndarray:
    # Masked entries sit at -1e30 and underflow to exactly 0 after the shift.
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(
    params: ParameterSet,
    token_ids: np.ndarray,
    want_cache: bool = True,
    past: list | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Causal forward pass: (B, L) ids -> (B, L, V) logits (+ backward cache).

    With `past` (a list, empty before the first call), the ids continue the
    P positions cached there: they take positions P..P+L-1 and attend to the
    cached keys and values, and each layer's (K, V) in `past` is extended by
    the new ones. Rows are independent, down to their bits: the projections
    are `numerics.matmul`, one dgemm whatever the row count, and attention
    and the reductions work row by row. So between calls a caller may repeat
    or re-index the rows of every (K, V) in `past`, as long as the next ids
    have one row per cached row. `backward` has no such path, so `past` needs
    want_cache=False.
    """
    if past is not None and want_cache:
        raise InputError("a forward with past cannot return a backward cache")
    cfg = params.config
    P = past[0][0].shape[1] if past else 0
    ids = _check_ids(cfg, token_ids, P)
    B, L = ids.shape
    t = params.tensors
    H, dh = cfg.n_heads, cfg.head_dim
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    x = nk.embedding_lookup(t["tok_emb"], ids) + t["pos_emb"][P : P + L]
    causal_bias = np.triu(np.full((L, P + L), -1e30), k=P + 1)[None, None, :, :]

    cache: dict | None = {"ids": ids, "layers": []} if want_cache else None
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        h, ln1_cache = nk.layer_norm(x, t[p + "ln1.g"], t[p + "ln1.b"])
        q = nk.matmul(h, t[p + "wq"])
        k = nk.matmul(h, t[p + "wk"])
        v = nk.matmul(h, t[p + "wv"])
        qh = q.reshape(B, L, H, dh)
        kh = k.reshape(B, L, H, dh)
        vh = v.reshape(B, L, H, dh)
        if past is not None:
            if P:
                kh = np.concatenate([past[i][0], kh], axis=1)
                vh = np.concatenate([past[i][1], vh], axis=1)
                past[i] = (kh, vh)
            else:
                past.append((kh, vh))
        scores = np.einsum("blhd,bmhd->bhlm", qh, kh) * inv_sqrt_dh + causal_bias
        att = _att_softmax(scores)
        ctx = np.einsum("bhlm,bmhd->blhd", att, vh).reshape(B, L, cfg.d_model)
        x = x + nk.matmul(ctx, t[p + "wo"])

        h2, ln2_cache = nk.layer_norm(x, t[p + "ln2.g"], t[p + "ln2.b"])
        u = nk.matmul(h2, t[p + "w1"])
        a, cdf = nk.gelu(u)
        x = x + nk.matmul(a, t[p + "w2"])

        if cache is not None:
            cache["layers"].append(
                {"ln1": ln1_cache, "h": h, "qh": qh, "kh": kh, "vh": vh, "att": att,
                 "ctx": ctx, "ln2": ln2_cache, "h2": h2, "u": u, "cdf": cdf}
            )

    xf, lnf_cache = nk.layer_norm(x, t["lnf.g"], t["lnf.b"])
    logits = nk.matmul(xf, t["head.w"])
    if cache is not None:
        cache["xf"] = xf
        cache["lnf"] = lnf_cache
    return logits, cache


def backward(params: ParameterSet, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """Map a logits gradient back to the parameter gradient, a flat vector in
    `parameter_layout` order, using the forward cache."""
    cfg = params.config
    t = params.tensors
    ids = cache["ids"]
    B, L = ids.shape
    H, dh = cfg.n_heads, cfg.head_dim
    inv_sqrt_dh = 1.0 / math.sqrt(dh)
    grad = np.zeros_like(params.flat)
    g = ParameterSet(cfg, grad).tensors

    dxf, g["head.w"][...] = nk.matmul_backward(dlogits, cache["xf"], t["head.w"])
    dx, g["lnf.g"][...], g["lnf.b"][...] = nk.layer_norm_backward(dxf, cache["lnf"])

    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"layer{i}."
        c = cache["layers"][i]

        # a = gelu(u) is not cached; u * cdf rebuilds it bit for bit
        da, g[p + "w2"][...] = nk.matmul_backward(dx, c["u"] * c["cdf"], t[p + "w2"])
        du = nk.gelu_backward(da, c["u"], c["cdf"])
        dh2, g[p + "w1"][...] = nk.matmul_backward(du, c["h2"], t[p + "w1"])
        dx_mid, g[p + "ln2.g"][...], g[p + "ln2.b"][...] = nk.layer_norm_backward(dh2, c["ln2"])
        dx = dx + dx_mid

        dctx, g[p + "wo"][...] = nk.matmul_backward(dx, c["ctx"], t[p + "wo"])
        dctx_h = dctx.reshape(B, L, H, dh)
        datt = np.einsum("blhd,bmhd->bhlm", dctx_h, c["vh"])
        dvh = np.einsum("bhlm,blhd->bmhd", c["att"], dctx_h)
        dscores = c["att"] * (datt - (c["att"] * datt).sum(axis=-1, keepdims=True))
        dqh = np.einsum("bhlm,bmhd->blhd", dscores, c["kh"]) * inv_sqrt_dh
        dkh = np.einsum("bhlm,blhd->bmhd", dscores, c["qh"]) * inv_sqrt_dh
        dq = dqh.reshape(B, L, cfg.d_model)
        dk = dkh.reshape(B, L, cfg.d_model)
        dv = dvh.reshape(B, L, cfg.d_model)

        dh_sum = np.zeros_like(c["h"])
        for w_name, dmat in ((p + "wq", dq), (p + "wk", dk), (p + "wv", dv)):
            dh_part, g[w_name][...] = nk.matmul_backward(dmat, c["h"], t[w_name])
            dh_sum += dh_part
        dx_in, g[p + "ln1.g"][...], g[p + "ln1.b"][...] = nk.layer_norm_backward(dh_sum, c["ln1"])
        dx = dx + dx_in

    g["pos_emb"][:L] = dx.sum(axis=0)
    g["tok_emb"][...] = nk.embedding_lookup_backward(dx, ids, cfg.vocab_size)
    return grad


# -----------------------------------------------------------------------------
# checkpoints: <prefix>.manifest.json + <prefix>.weights.bin (little-endian f32)
# -----------------------------------------------------------------------------


def checkpoint_paths(prefix: str | Path) -> tuple[Path, Path]:
    """(manifest path, weight blob path) of the checkpoint at `prefix`."""
    return Path(prefix).with_suffix(".manifest.json"), Path(prefix).with_suffix(".weights.bin")


def _manifest(config: ModelConfig) -> dict:
    """The manifest of every checkpoint of `config`: `save_checkpoint` writes it,
    and `load_checkpoint` accepts only a manifest equal to it."""
    slices = tensor_slices(config)
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(config),
        "config_hash": config.hash(),
        "seed": config.seed,
        "run_id": "",
        "version": "1",
        "dtype": "<f4",
        "total_nbytes": 4 * _flat_size(config),
        "tensors": [
            {"name": name, "shape": list(shape), "offset": 4 * slices[name].start,
             "nbytes": 4 * (slices[name].stop - slices[name].start)}
            for name, shape, _ in parameter_layout(config)
        ],
    }


def save_checkpoint(params: ParameterSet, prefix: str | Path) -> tuple[Path, Path]:
    """Write manifest + weight blob; returns (manifest_path, weights_path)."""
    params.validate()
    manifest_path, weights_path = checkpoint_paths(prefix)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(_manifest(params.config), indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    weights_path.write_bytes(params.flat.astype("<f4").tobytes())
    return manifest_path, weights_path


def load_checkpoint(prefix: str | Path) -> ParameterSet:
    """Load a checkpoint pair back into float64 parameters. The manifest must
    equal `_manifest` of the config it names, and the blob must have its length."""
    manifest_path, weights_path = checkpoint_paths(prefix)
    if not manifest_path.exists():
        raise ManifestError(f"missing manifest {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        config = ModelConfig(**manifest["config"])
    except (ValueError, TypeError, KeyError, ConfigError) as e:
        raise ManifestError(f"manifest {manifest_path} holds no valid config: "
                            f"{type(e).__name__}: {e}") from e
    expected = _manifest(config)
    if manifest != expected:
        key = next(k for k in sorted(manifest.keys() | expected.keys())
                   if manifest.get(k) != expected.get(k))
        if key == "tensors" and isinstance(manifest[key], list):
            i, got, want = next((i, a, b) for i, (a, b) in
                                enumerate(zip_longest(manifest[key], expected[key])) if a != b)
            raise ShapeMismatchError(f"manifest tensor entry {i} is {got}; the config's layout has {want}")
        raise ManifestError(f"manifest {manifest_path} has {key!r} = {manifest.get(key)!r}; "
                            f"a checkpoint of its config has {expected.get(key)!r}")

    if not weights_path.exists():
        raise TruncatedBlobError(f"missing weights blob {weights_path}")
    blob = weights_path.read_bytes()
    if len(blob) != expected["total_nbytes"]:
        raise TruncatedBlobError(
            f"weights blob has {len(blob)} bytes, manifest promises {expected['total_nbytes']}")
    params = ParameterSet(config, np.frombuffer(blob, dtype="<f4").astype(nk.F64))
    params.validate()
    return params
