"""Tiny decoder-only transformer with hand-written backward.

Pre-norm blocks, learned absolute positions, separate output head, all math
in float64. `forward` returns logits plus a cache; `backward` consumes the
cache and a gradient w.r.t. the logits and returns per-tensor parameter
gradients. For incremental decoding, `forward` also takes `past`, a list of
per-layer (K, V) arrays that the call extends in place: the new ids then sit
at the positions after the cached ones and attend to all of them.
Checkpoints are a JSON manifest plus a little-endian float32 blob.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
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
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        for name in ("d_model", "n_layers", "n_heads", "context_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

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


@dataclass
class ParameterSet:
    """All learnable weights, keyed by name, plus the config they belong to."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    version: str = "1"

    def names(self) -> list[str]:
        return [name for name, _, _ in parameter_layout(self.config)]

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.config, {k: v.copy() for k, v in self.tensors.items()}, self.version)

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def validate(self) -> None:
        for name, shape, _ in parameter_layout(self.config):
            if name not in self.tensors:
                raise ShapeMismatchError(f"missing tensor {name}")
            if self.tensors[name].shape != shape:
                raise ShapeMismatchError(
                    f"tensor {name} has shape {self.tensors[name].shape}, expected {shape}"
                )
            nk.require_finite(name, self.tensors[name])


@dataclass
class ReferenceModel:
    """Frozen deep copy of a ParameterSet; arrays are marked read-only."""

    config: ModelConfig
    tensors: dict[str, np.ndarray] = field(repr=False)

    def logits(self, token_ids: np.ndarray) -> np.ndarray:
        out, _ = forward(self.as_params(), token_ids, want_cache=False)
        return out

    def as_params(self) -> ParameterSet:
        return ParameterSet(self.config, self.tensors)


def init(config: ModelConfig) -> ParameterSet:
    """Seeded init: normal(0, 0.02) weights, unit norm gains, zero biases."""
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape, kind in parameter_layout(config):
        if kind == "normal":
            tensors[name] = rng.normal(0.0, INIT_STD, size=shape)
        elif kind == "ones":
            tensors[name] = np.ones(shape, dtype=nk.F64)
        else:
            tensors[name] = np.zeros(shape, dtype=nk.F64)
    return ParameterSet(config, tensors)


def snapshot_reference(params: ParameterSet) -> ReferenceModel:
    """Deep-copy params into an immutable reference model."""
    params.validate()
    frozen = {}
    for name, t in params.tensors.items():
        c = t.copy()
        c.flags.writeable = False
        frozen[name] = c
    return ReferenceModel(params.config, frozen)


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


def backward(params: ParameterSet, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Map a logits gradient back to parameter gradients using the forward cache."""
    cfg = params.config
    t = params.tensors
    ids = cache["ids"]
    B, L = ids.shape
    H, dh = cfg.n_heads, cfg.head_dim
    inv_sqrt_dh = 1.0 / math.sqrt(dh)
    grads: dict[str, np.ndarray] = {}

    dxf, grads["head.w"] = nk.matmul_backward(dlogits, cache["xf"], t["head.w"])
    dx, grads["lnf.g"], grads["lnf.b"] = nk.layer_norm_backward(dxf, cache["lnf"])

    for i in range(cfg.n_layers - 1, -1, -1):
        p = f"layer{i}."
        c = cache["layers"][i]

        # a = gelu(u) is not cached; u * cdf rebuilds it bit for bit
        da, grads[p + "w2"] = nk.matmul_backward(dx, c["u"] * c["cdf"], t[p + "w2"])
        du = nk.gelu_backward(da, c["u"], c["cdf"])
        dh2, grads[p + "w1"] = nk.matmul_backward(du, c["h2"], t[p + "w1"])
        dx_mid, grads[p + "ln2.g"], grads[p + "ln2.b"] = nk.layer_norm_backward(dh2, c["ln2"])
        dx = dx + dx_mid

        dctx, grads[p + "wo"] = nk.matmul_backward(dx, c["ctx"], t[p + "wo"])
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
            dh_part, grads[w_name] = nk.matmul_backward(dmat, c["h"], t[w_name])
            dh_sum += dh_part
        dx_in, grads[p + "ln1.g"], grads[p + "ln1.b"] = nk.layer_norm_backward(dh_sum, c["ln1"])
        dx = dx + dx_in

    grads["pos_emb"] = np.zeros_like(t["pos_emb"])
    grads["pos_emb"][:L] = dx.sum(axis=0)
    grads["tok_emb"] = nk.embedding_lookup_backward(dx, ids, cfg.vocab_size)
    return grads


def zero_grads(params: ParameterSet) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


# -----------------------------------------------------------------------------
# checkpoints: <prefix>.manifest.json + <prefix>.weights.bin (little-endian f32)
# -----------------------------------------------------------------------------


def save_checkpoint(params: ParameterSet, prefix: str | Path, run_id: str = "") -> tuple[Path, Path]:
    """Write manifest + weight blob; returns (manifest_path, weights_path)."""
    params.validate()
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    names = params.names()
    entries = []
    offset = 0
    blobs = []
    for name in names:
        arr32 = params.tensors[name].astype("<f4")
        raw = arr32.tobytes(order="C")
        entries.append(
            {"name": name, "shape": list(params.tensors[name].shape), "offset": offset, "nbytes": len(raw)}
        )
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(params.config),
        "config_hash": params.config.hash(),
        "seed": params.config.seed,
        "run_id": run_id,
        "version": params.version,
        "dtype": "<f4",
        "total_nbytes": offset,
        "tensors": entries,
    }
    manifest_path = prefix.with_suffix(".manifest.json")
    weights_path = prefix.with_suffix(".weights.bin")
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    weights_path.write_bytes(b"".join(blobs))
    return manifest_path, weights_path


def load_checkpoint(prefix: str | Path) -> ParameterSet:
    """Load a checkpoint pair back into float64 parameters."""
    prefix = Path(prefix)
    manifest_path = prefix.with_suffix(".manifest.json")
    weights_path = prefix.with_suffix(".weights.bin")
    if not manifest_path.exists():
        raise ManifestError(f"missing manifest {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ManifestError(f"corrupt manifest {manifest_path}: {e}") from e
    for key in ("config", "config_hash", "tensors", "dtype", "total_nbytes"):
        if key not in manifest:
            raise ManifestError(f"manifest {manifest_path} missing key {key!r}")
    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ConfigError) as e:
        raise ManifestError(f"manifest config invalid: {e}") from e
    if config.hash() != manifest["config_hash"]:
        raise ManifestError("manifest config hash mismatch")

    blob = weights_path.read_bytes() if weights_path.exists() else None
    if blob is None:
        raise TruncatedBlobError(f"missing weights blob {weights_path}")
    if len(blob) != manifest["total_nbytes"]:
        raise TruncatedBlobError(
            f"weights blob has {len(blob)} bytes, manifest promises {manifest['total_nbytes']}"
        )

    expected = {name: shape for name, shape, _ in parameter_layout(config)}
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        name = entry["name"]
        shape = tuple(entry["shape"])
        if name not in expected or expected[name] != shape:
            raise ShapeMismatchError(f"tensor {name} shape {shape} does not match config")
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(blob):
            raise TruncatedBlobError(f"tensor {name} extends past end of blob")
        arr = np.frombuffer(blob[start : start + nbytes], dtype="<f4")
        if arr.size != int(np.prod(shape)):
            raise ShapeMismatchError(f"tensor {name} byte count does not match shape {shape}")
        tensors[name] = arr.reshape(shape).astype(nk.F64)
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        raise ShapeMismatchError(f"checkpoint missing tensors: {missing}")
    params = ParameterSet(config, tensors, version=str(manifest.get("version", "1")))
    params.validate()
    return params
