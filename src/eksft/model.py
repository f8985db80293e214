"""Tiny decoder-only transformer with hand-written backward.

Pre-norm blocks, learned absolute positions, separate output head, all math
in float64, weights in one flat vector (`ParameterSet`). `forward` returns
logits plus a cache; `backward` consumes the cache and a gradient w.r.t. the
logits and returns the parameter gradient as one flat vector. Attention is
numpy's stacked BLAS `@` over (B, H, ·, ·) views, one gemm per row and head.
Its scores are keys-by-queries (B, H, M, L), so the softmax reduces over the
strided key axis, which sums keys in order: a row padded with masked keys
keeps its bits (see `_att_softmax`). For
incremental decoding, `forward` also takes `past`, a list of per-layer (K, V)
arrays that the call extends in place: the new ids then sit at the positions
after the cached ones and attend to all of them. `CACHE_FIELDS` is the one
layout of the backward cache: by it `pack_positions` packs such a call's
new positions into one array, and `stitch_cache` gathers the positions of
whole rows from these into the cache `backward` reads, with no forward.
Checkpoints are a JSON
manifest plus the flat vector's own bytes, one little-endian float64 blob,
both written by `files`; `_manifest` is the one definition of the manifest,
which a load must match whole, and it holds the blob's sha256.
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

from . import files
from . import numerics as nk
from .errors import (ConfigError, InputError, LengthError, ManifestError, ShapeMismatchError,
                     TruncatedBlobError, check_field_types)

INIT_STD = 0.02
CHECKPOINT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 32
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    context_len: int = 128
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
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


def _att_softmax(scores_t: np.ndarray) -> np.ndarray:
    """Softmax over the keys of keys-by-queries scores (..., M, L); returns the
    (..., L, M) attention as a view. Reducing over the strided axis -2 sums the
    keys in order, so trailing masked keys (exact zeros after the shift) leave a
    row's bits as they are; a reduction over a contiguous last axis would be
    pairwise and regroup them."""
    # Masked entries sit at -1e30 and underflow to exactly 0 after the shift.
    e = np.exp(scores_t - scores_t.max(axis=-2, keepdims=True))
    return (e / e.sum(axis=-2, keepdims=True)).swapaxes(-1, -2)


# The arrays `backward` reads, in packed order, per layer and after the last one, with
# widths (`_fields`): d_model, one column, 4 * d_model, or n_heads rows of context_len keys.
CACHE_FIELDS = {
    "layer": {"xhat1": "d", "inv1": "1", "h": "d", "q": "d", "k": "d", "v": "d", "att": "HC",
              "ctx": "d", "xhat2": "d", "inv2": "1", "h2": "d", "u": "4d", "cdf": "4d"},
    "final": {"xf": "d", "xhatf": "d", "invf": "1"},
}


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
    have one row per cached row. The cache of a call with `past` holds its L
    new positions, with their attention over all P + L keys; `backward` does
    not read it as it is, but `pack_positions` packs it for `stitch_cache`.
    """
    cfg = params.config
    P = past[0][0].shape[1] if past else 0
    ids = _check_ids(cfg, token_ids, P)
    B, L = ids.shape
    t = params.tensors
    H, dh = cfg.n_heads, cfg.head_dim
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    x = nk.embedding_lookup(t["tok_emb"], ids) + t["pos_emb"][P : P + L]
    # keys-by-queries: key m is masked for query l when m > P + l; one query masks no key
    causal_bias_t = np.tril(np.full((P + L, L), -1e30), k=-(P + 1)) if L > 1 else None

    cache: dict | None = {"ids": ids, "layers": []} if want_cache else None
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        h, (xhat1, inv1, _) = nk.layer_norm(x, t[p + "ln1.g"], t[p + "ln1.b"])
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
        # (B, H, ·, dh) views for stacked BLAS products, one gemm per (row, head)
        qt, kt, vt = (z.transpose(0, 2, 1, 3) for z in (qh, kh, vh))
        scores_t = (kt @ qt.swapaxes(-1, -2)) * inv_sqrt_dh
        if causal_bias_t is not None:
            scores_t += causal_bias_t
        att = _att_softmax(scores_t)
        ctx = (att @ vt).transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        x = x + nk.matmul(ctx, t[p + "wo"])

        h2, (xhat2, inv2, _) = nk.layer_norm(x, t[p + "ln2.g"], t[p + "ln2.b"])
        u = nk.matmul(h2, t[p + "w1"])
        a, cdf = nk.gelu(u)
        x = x + nk.matmul(a, t[p + "w2"])

        if cache is not None:
            cache["layers"].append({"xhat1": xhat1, "inv1": inv1, "h": h, "q": q, "k": k, "v": v,
                                    "att": att, "ctx": ctx, "xhat2": xhat2, "inv2": inv2,
                                    "h2": h2, "u": u, "cdf": cdf})

    xf, (xhatf, invf, _) = nk.layer_norm(x, t["lnf.g"], t["lnf.b"])
    logits = nk.matmul(xf, t["head.w"])
    if cache is not None:
        cache.update(xf=xf, xhatf=xhatf, invf=invf)
    return logits, cache


def backward(params: ParameterSet, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """Map a logits gradient back to the parameter gradient, a flat vector in
    `parameter_layout` order, from the forward cache and the norm gains of `params`."""
    cfg = params.config
    t = params.tensors
    ids = cache["ids"]
    B, L = ids.shape
    H, dh = cfg.n_heads, cfg.head_dim
    inv_sqrt_dh = 1.0 / math.sqrt(dh)
    grad = np.zeros_like(params.flat)
    g = ParameterSet(cfg, grad).tensors

    def norm_backward(grad_out, xhat, inv, name):  # also fills name's gain and bias gradients
        dx, g[name + ".g"][...], g[name + ".b"][...] = nk.layer_norm_backward(
            grad_out, (xhat, inv, t[name + ".g"]))
        return dx

    dxf, g["head.w"][...] = nk.matmul_backward(dlogits, cache["xf"], t["head.w"])
    dx = norm_backward(dxf, cache["xhatf"], cache["invf"], "lnf")

    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"layer{i}."
        c = cache["layers"][i]

        # a = gelu(u) is not cached; u * cdf rebuilds it bit for bit
        da, g[p + "w2"][...] = nk.matmul_backward(dx, c["u"] * c["cdf"], t[p + "w2"])
        du = nk.gelu_backward(da, c["u"], c["cdf"])
        dh2, g[p + "w1"][...] = nk.matmul_backward(du, c["h2"], t[p + "w1"])
        dx = dx + norm_backward(dh2, c["xhat2"], c["inv2"], p + "ln2")

        dctx, g[p + "wo"][...] = nk.matmul_backward(dx, c["ctx"], t[p + "wo"])
        dctx_t = dctx.reshape(B, L, H, dh).transpose(0, 2, 1, 3)
        qt, kt, vt = (c[z].reshape(B, L, H, dh).transpose(0, 2, 1, 3) for z in "qkv")
        att = c["att"]
        datt = dctx_t @ vt.swapaxes(-1, -2)
        dvt = att.swapaxes(-1, -2) @ dctx_t
        dscores = att * (datt - (att * datt).sum(axis=-1, keepdims=True))
        dqt = (dscores @ kt) * inv_sqrt_dh
        dkt = (dscores.swapaxes(-1, -2) @ qt) * inv_sqrt_dh
        dq, dk, dv = (z.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model) for z in (dqt, dkt, dvt))

        dh_sum = np.zeros_like(c["h"])
        for w_name, dmat in ((p + "wq", dq), (p + "wk", dk), (p + "wv", dv)):
            dh_part, g[w_name][...] = nk.matmul_backward(dmat, c["h"], t[w_name])
            dh_sum += dh_part
        dx = dx + norm_backward(dh_sum, c["xhat1"], c["inv1"], p + "ln1")

    g["pos_emb"][:L] = dx.sum(axis=0)
    g["tok_emb"][...] = nk.embedding_lookup_backward(dx, ids, cfg.vocab_size)
    return grad


# -----------------------------------------------------------------------------
# a backward cache from the forwards with past that computed its rows
# -----------------------------------------------------------------------------


def _fields(config: ModelConfig, cache: dict) -> list[tuple[dict, str, int]]:
    """(dict that holds it, name, width at one position) of each field of `cache`, in order."""
    width = {"d": config.d_model, "1": 1, "4d": 4 * config.d_model,
             "HC": config.n_heads * config.context_len}
    groups = [(c, CACHE_FIELDS["layer"]) for c in cache["layers"]] + [(cache, CACHE_FIELDS["final"])]
    return [(c, name, width[unit]) for c, fields in groups for name, unit in fields.items()]


def pack_positions(config: ModelConfig, cache: dict) -> np.ndarray:
    """A forward's cache, with or without `past`, as one (B, L, W) array: at each
    of its positions the fields of `CACHE_FIELDS` in order, the attention as H
    rows of C keys, zero past the position's keys."""
    B, L = cache["ids"].shape
    parts = []
    for c, name, _ in _fields(config, cache):
        part = c[name]
        if name == "att":
            part = np.zeros((B, L, config.n_heads, config.context_len))
            part[..., : c["att"].shape[-1]] = c["att"].transpose(0, 2, 1, 3)
        parts.append(part.reshape(B, L, -1))
    return np.concatenate(parts, axis=-1)


def stitch_cache(params: ParameterSet, ids: np.ndarray, rows: list) -> dict:
    """The backward cache of `ids` (B, L), built from packed forwards, not by one.

    rows[b] = (calls, r) says where row b was computed: `calls` lists, in
    order, one (packed, at) pair per forward that extended a set of
    sequences, `packed` the call's `pack_positions` (R, L_c, W) and at[r] the
    row of it that continued sequence r, -1 once r had ended. Row b is
    sequence r: its positions are the L_c positions of row at[r] of each call
    in turn. Every call of the distinct `calls` lists is laid end to end, and
    one gather takes each (b, l) its position, or zeros past the row's end:
    there, as in a padded forward, the upstream gradient is exactly zero, so
    those positions add nothing. Every field of the cache is a view of that
    one (B, L, W) array, at the offset `CACHE_FIELDS` gives it.
    """
    cfg = params.config
    B, L = ids.shape
    blocks, paths, start = [], {}, 0
    index = np.full((B, L), -1, dtype=np.int64)  # -1 is the zero row below
    for b, (calls, r) in enumerate(rows):
        if id(calls) not in paths:
            cols = []
            for packed, at in calls:
                n_rows, n_pos = packed.shape[:2]
                cols.append(np.where(at[:, None] < 0, -1,
                                     start + at[:, None] * n_pos + np.arange(n_pos)))
                blocks.append(packed.reshape(n_rows * n_pos, -1))
                start += n_rows * n_pos
            paths[id(calls)] = np.concatenate(cols, axis=1)
        path = paths[id(calls)][r, :L]
        index[b, : path.size] = path
    blocks.append(np.zeros((1, blocks[0].shape[1])))
    gathered = np.concatenate(blocks)[index]

    cache: dict = {"ids": ids, "layers": [{} for _ in range(cfg.n_layers)]}
    start = 0
    for c, name, width in _fields(cfg, cache):
        c[name], start = gathered[..., start : start + width], start + width
    for c in cache["layers"]:
        c["att"] = c["att"].reshape(B, L, cfg.n_heads, -1)[..., :L].transpose(0, 2, 1, 3)
    return cache


# -----------------------------------------------------------------------------
# checkpoints: <prefix>.manifest.json + <prefix>.weights.bin (flat's bytes, <f8)
# -----------------------------------------------------------------------------


def checkpoint_paths(prefix: str | Path) -> tuple[Path, Path]:
    """(manifest path, weight blob path) of the checkpoint at `prefix`."""
    return Path(prefix).with_suffix(".manifest.json"), Path(prefix).with_suffix(".weights.bin")


def _manifest(config: ModelConfig, sha256: str) -> dict:
    """The manifest of a checkpoint of `config` whose blob has digest `sha256`:
    `save_checkpoint` writes it, and `load_checkpoint` accepts only its equal."""
    slices = tensor_slices(config)
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(config),
        "dtype": "<f8",
        "total_nbytes": 8 * _flat_size(config),
        "sha256": sha256,
        "tensors": [
            {"name": name, "shape": list(shape), "offset": 8 * slices[name].start,
             "nbytes": 8 * (slices[name].stop - slices[name].start)}
            for name, shape, _ in parameter_layout(config)
        ],
    }


def save_checkpoint(params: ParameterSet, prefix: str | Path) -> tuple[Path, Path]:
    """Write manifest + weight blob; returns (manifest_path, weights_path)."""
    params.validate()
    manifest_path, weights_path = checkpoint_paths(prefix)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    blob = params.flat.tobytes()
    files.write_json(manifest_path, _manifest(params.config, hashlib.sha256(blob).hexdigest()))
    files.write_bytes(weights_path, blob)
    return manifest_path, weights_path


def load_checkpoint(prefix: str | Path) -> ParameterSet:
    """Load a checkpoint pair back into the float64 parameters it was saved from.
    The manifest must equal `_manifest` of the config and digest it names, and
    the blob must have its length and then its digest."""
    manifest_path, weights_path = checkpoint_paths(prefix)
    if not manifest_path.exists():
        raise ManifestError(f"missing manifest {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        config = ModelConfig(**manifest["config"])
    except (ValueError, TypeError, KeyError, ConfigError) as e:
        raise ManifestError(f"manifest {manifest_path} holds no valid config: "
                            f"{type(e).__name__}: {e}") from e
    expected = _manifest(config, manifest.get("sha256", ""))
    if manifest != expected:  # in `_manifest`'s order, so format_version is named first
        key = next(k for k in [*expected, *sorted(manifest.keys() - expected.keys())]
                   if manifest.get(k) != expected.get(k))
        if key == "tensors" and isinstance(manifest[key], list):
            i, got, want = next((i, a, b) for i, (a, b) in
                                enumerate(zip_longest(manifest[key], expected[key])) if a != b)
            raise ShapeMismatchError(f"manifest tensor entry {i} is {got}; the config's layout has {want}")
        raise ManifestError(f"manifest {manifest_path} has {key!r} = {manifest.get(key)!r}; "
                            f"a checkpoint of its config has {expected.get(key)!r}")

    if not weights_path.exists():
        raise TruncatedBlobError(f"missing weights blob {weights_path}")
    blob = bytearray(weights_path.read_bytes())  # writable, so the loaded vector trains in place
    if len(blob) != expected["total_nbytes"]:
        raise TruncatedBlobError(
            f"weights blob has {len(blob)} bytes, manifest promises {expected['total_nbytes']}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != expected["sha256"]:
        raise ManifestError(f"weights blob {weights_path} has sha256 {digest}; "
                            f"manifest {manifest_path} has 'sha256' = {expected['sha256']!r}")
    params = ParameterSet(config, np.frombuffer(blob, dtype="<f8"))
    params.validate()
    return params
