"""Optimizer and the two training loops (supervised stage, then RL stage).

Supervised stage: per optimizer step, G micro-batch forwards give loss sums
and their logit-gradient sums; `objective.normalize_step` normalizes them
once, in logit space, and one backward per micro-batch maps them to
parameter space. So G accumulated micro-batches equal one step on the
concatenated batch, with masks still built per micro-batch (the unit whose
logits coexist). The reference is frozen and the samples are fixed, so
`reference_rows` runs the reference forward once per run, before the first
epoch, and each micro-batch gathers its samples' rows from it.

Parameters, gradients and AdamW's moments are flat vectors in one layout:
a step adds up its micro-batches' gradients with one `+=` each.

RL stage: group rollouts per prompt, binary verifier rewards, group-mean
normalized advantages, and an asymmetrically clipped policy-gradient
surrogate (clip band [1 - c_l, 1 + c_h]). No reference/KL term. A step
whose gradient is exactly zero (all groups reward-uniform) is skipped so
parameters stay bit-identical.

Wall-clock timings go to a separate timings.csv: metrics.csv must stay
byte-identical across reruns of the same config.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import model as mdl
from . import numerics as nk
from . import objective as obj
from . import selection as sel
from .errors import ConfigError, InputError, LengthError, NumericError
from .evaluation import sample_group
from .tasks import PAD, Sample

log = logging.getLogger(__name__)

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.95, 1e-8


@dataclass(frozen=True)
class SftConfig:
    method: str = "sft"
    learning_rate: float = 1e-5
    epochs: int = 8
    grad_accum: int = 8
    batch_size: int = 1
    rho: float = 0.2
    lambda_h: float = 0.05
    lambda_kl: float = 0.05
    drop_fraction: float = 0.10
    weight_decay: float = 0.0
    seed: int = 0
    supervise_prompt: bool = False

    def __post_init__(self):
        if self.method not in obj.METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {obj.METHODS}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.epochs < 1 or self.grad_accum < 1 or self.batch_size < 1:
            raise ConfigError("epochs, grad_accum and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho}")
        if self.lambda_h < 0 or self.lambda_kl < 0:
            raise ConfigError("regularizer weights must be >= 0")
        if not (0.0 <= self.drop_fraction < 1.0):
            raise ConfigError("drop_fraction must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class RlConfig:
    learning_rate: float = 1e-6
    total_steps: int = 200
    rollout_group_size: int = 16
    prompts_per_step: int = 8
    clip_low: float = 0.2
    clip_high: float = 0.28
    temperature: float = 1.0
    max_gen_len: int = 64
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.clip_low < 1.0):
            raise ConfigError(f"clip_low must lie in (0, 1), got {self.clip_low}")
        if self.clip_high <= 0:
            raise ConfigError(f"clip_high must be > 0, got {self.clip_high}")
        if self.rollout_group_size < 2:
            raise ConfigError("rollout_group_size must be >= 2")
        if self.total_steps < 1 or self.prompts_per_step < 1:
            raise ConfigError("total_steps and prompts_per_step must be >= 1")
        if self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
        if self.max_gen_len < 1:
            raise ConfigError(f"max_gen_len must be >= 1, got {self.max_gen_len}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class SftMetricsRecord:
    step: int
    epoch: int
    method: str
    loss_total: float
    ce_masked: float
    entropy_reg: float
    kl_reg: float
    n_supervised: int
    n_masked: int
    mean_entropy: float
    mean_kl: float
    mask_iou: float | None


@dataclass
class RlMetricsRecord:
    step: int
    pg_loss: float
    mean_reward: float
    zero_variance_frac: float
    mean_entropy: float
    mean_gen_len: float


SFT_METRICS_COLUMNS = [f.name for f in fields(SftMetricsRecord)]
RL_METRICS_COLUMNS = [f.name for f in fields(RlMetricsRecord)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_run_outputs(
    out_dir: Path,
    params: mdl.ParameterSet,
    columns: list[str],
    records: Sequence,
    timings: list[tuple[int, float]],
    dump_rows: Sequence[dict] = (),
) -> None:
    """metrics.csv, mask_dump.jsonl (if any rows), timings.csv and checkpoints/final."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([_fmt(getattr(rec, col)) for col in columns] for rec in records)
    if dump_rows:
        with open(out_dir / "mask_dump.jsonl", "w", encoding="utf-8") as fh:
            for row in dump_rows:
                fh.write(json.dumps(row) + "\n")
    with open(out_dir / "timings.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "seconds"])
        w.writerows(timings)
    mdl.save_checkpoint(params, out_dir / "checkpoints" / "final")


# -----------------------------------------------------------------------------
# AdamW
# -----------------------------------------------------------------------------


@dataclass
class AdamWState:
    """First and second moments, flat vectors in the parameters' layout."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adamw_init(params: mdl.ParameterSet) -> AdamWState:
    return AdamWState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adamw_step(
    params: mdl.ParameterSet,
    grad: np.ndarray,
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam update of params.flat, in place, one
    tensor's slice at a time: cache-sized temporaries beat whole-vector ones."""
    slices = mdl.tensor_slices(params.config)
    if not np.all(np.isfinite(grad)):
        bad = [name for name, s in slices.items() if not np.all(np.isfinite(grad[s]))]
        log.error("non-finite gradients at step %d in tensors %s", state.t + 1, bad)
        raise NumericError(f"non-finite gradient for tensors {bad}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for s in slices.values():
        p, g, m, v = params.flat[s], grad[s], state.m[s], state.v[s]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if weight_decay:
            update = update + weight_decay * p
        p -= lr * update


# -----------------------------------------------------------------------------
# batching
# -----------------------------------------------------------------------------


def batchify(samples: Sequence[Sample], supervise_prompt: bool = False):
    """Pack samples into (inputs, targets, valid_mask) arrays.

    Inputs are tokens[:-1], targets tokens[1:]; valid marks the positions
    whose target is a response token (or every real position when
    supervise_prompt is set, as in pretraining).
    """
    if not samples:
        raise InputError("empty batch")
    max_len = max(len(s.tokens) for s in samples) - 1
    B = len(samples)
    inputs = np.full((B, max_len), PAD, dtype=np.int64)
    targets = np.full((B, max_len), PAD, dtype=np.int64)
    valid = np.zeros((B, max_len), dtype=bool)
    for i, s in enumerate(samples):
        toks = np.asarray(s.tokens, dtype=np.int64)
        n = toks.size - 1
        inputs[i, :n] = toks[:-1]
        targets[i, :n] = toks[1:]
        start = 0 if supervise_prompt else len(s.prompt_tokens) - 1
        valid[i, start:n] = True
    return inputs, targets, valid


# -----------------------------------------------------------------------------
# supervised stage
# -----------------------------------------------------------------------------


def reference_rows(
    reference: mdl.ReferenceModel, dataset: Sequence[Sample], batch_size: int
) -> list[np.ndarray]:
    """Each sample's (len(tokens) - 1, V) reference logits, in dataset order.

    One reference forward per chunk of batch_size samples; the rows are
    copied out so the padded chunk arrays are freed. A causal row sees
    neither its batch mates nor the padding after it, so the rows equal, bit
    for bit, those of a forward over any micro-batch that holds the sample
    (tests/test_train.py checks this on every sample of a mixed-length set).
    """
    rows: list[np.ndarray] = []
    for c0 in range(0, len(dataset), batch_size):
        chunk = list(dataset[c0 : c0 + batch_size])
        logits = reference.logits(batchify(chunk)[0])
        rows += [logits[i, : len(s.tokens) - 1].copy() for i, s in enumerate(chunk)]
    return rows


def train_sft(
    params: mdl.ParameterSet,
    reference: mdl.ReferenceModel,
    dataset: Sequence[Sample],
    config: SftConfig,
    run_dir: str | Path | None = None,
) -> tuple[mdl.ParameterSet, list[SftMetricsRecord]]:
    """Algorithmic core of the supervised stage; mutates and returns params."""
    if not dataset:
        raise InputError("empty dataset")
    limit = params.config.context_len
    for i, s in enumerate(dataset):
        if len(s.tokens) - 1 > limit:
            raise LengthError(f"sample {i} has {len(s.tokens)} tokens, limit is {limit}")

    dump_rows: list[dict] = []
    records: list[SftMetricsRecord] = []
    timings: list[tuple[int, float]] = []
    ref_rows = reference_rows(reference, dataset, config.batch_size)
    opt = adamw_init(params)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    group_size = config.batch_size * config.grad_accum
    uses_mask = config.method in ("eksft", "random_mask")
    step = 0

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset))
        for g0 in range(0, len(order), group_size):
            t_start = time.perf_counter()
            group_idx = order[g0 : g0 + group_size]
            caches: list[dict] = []
            step_terms: list[obj.ObjectiveTerms] = []
            n_masked = n_both = 0

            for micro, m0 in enumerate(range(0, len(group_idx), config.batch_size)):
                idx = group_idx[m0 : m0 + config.batch_size]
                inputs, targets, valid = batchify([dataset[i] for i in idx], config.supervise_prompt)
                logits, cache = mdl.forward(params, inputs)
                # padding rows stay 0: past the row-wise log_softmax only valid rows are read
                ref_logits = np.zeros_like(logits)
                for row, i in enumerate(idx):
                    ref_logits[row, : len(ref_rows[i])] = ref_rows[i]
                rng = (
                    np.random.default_rng([config.seed, 2, step, micro])
                    if config.method == "random_mask"
                    else None
                )
                terms = obj.objective_terms(
                    config.method,
                    logits,
                    ref_logits,
                    targets,
                    valid,
                    rho=config.rho,
                    lambda_h=config.lambda_h,
                    lambda_kl=config.lambda_kl,
                    drop_fraction=config.drop_fraction,
                    rng=rng,
                )
                caches.append(cache)
                step_terms.append(terms)
                if uses_mask:
                    mask = terms.mask
                    n_masked += int(mask.m_union.sum())
                    n_both += int((mask.m_entropy & mask.m_kl).sum())
                    offset = micro * config.batch_size
                    dump_rows.extend(sel.mask_dump_rows(step, terms.stats, mask, offset))

            step_obj = obj.normalize_step(step_terms)
            ent_vals = np.concatenate([t.stats.entropy for t in step_terms])
            kl_vals = np.concatenate([t.stats.kl for t in step_terms])
            grad = np.zeros_like(params.flat)
            for cache, dlogits in zip(caches, step_obj.dlogits):
                if dlogits is not None:
                    grad += mdl.backward(params, cache, dlogits)
            adamw_step(params, grad, opt, config.learning_rate, weight_decay=config.weight_decay)

            records.append(
                SftMetricsRecord(
                    step=step,
                    epoch=epoch,
                    method=config.method,
                    loss_total=step_obj.total,
                    ce_masked=step_obj.ce,
                    entropy_reg=step_obj.h,
                    kl_reg=step_obj.kl,
                    n_supervised=step_obj.n_sup,
                    n_masked=n_masked,
                    mean_entropy=float(np.mean(ent_vals)) if ent_vals.size else 0.0,
                    mean_kl=float(np.mean(kl_vals)) if kl_vals.size else 0.0,
                    mask_iou=sel.iou(n_both, n_masked) if uses_mask else None,
                )
            )
            timings.append((step, time.perf_counter() - t_start))
            step += 1

    if run_dir is not None:
        _write_run_outputs(Path(run_dir), params, SFT_METRICS_COLUMNS, records, timings, dump_rows)
    return params, records


# -----------------------------------------------------------------------------
# RL stage
# -----------------------------------------------------------------------------


def group_advantages(rewards) -> np.ndarray:
    """Group-mean-centered, std-normalized advantages; uniform groups give zeros."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise InputError(f"group size must be >= 2, got {r.size}")
    if np.all(r == r[0]):
        return np.zeros_like(r)
    return (r - r.mean()) / (r.std() + 1e-8)


def clipped_pg_loss(
    new_logprobs, old_logprobs, advantages, c_l: float, c_h: float
) -> tuple[float, np.ndarray]:
    """Token-mean of -min(ratio*A, clip(ratio, 1-c_l, 1+c_h)*A); grad w.r.t. new logprobs."""
    new = np.asarray(new_logprobs, dtype=np.float64)
    old = np.asarray(old_logprobs, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    if not (new.shape == old.shape == adv.shape):
        raise InputError(
            f"misaligned shapes: new {new.shape}, old {old.shape}, advantages {adv.shape}"
        )
    with np.errstate(over="ignore"):
        ratio = np.exp(new - old)
    if not np.all(np.isfinite(ratio)):
        raise NumericError("non-finite importance ratio")
    s1 = ratio * adv
    s2 = np.clip(ratio, 1.0 - c_l, 1.0 + c_h) * adv
    n = new.size
    loss = float(-np.minimum(s1, s2).sum() / n)
    # Gradient flows only where the unclipped branch is active (ties included).
    d = np.where(s1 <= s2, -adv * ratio, 0.0) / n
    return loss, d


def train_rl(
    params: mdl.ParameterSet,
    prompts: Sequence[Sample],
    verifier: Callable[[Sample, list[int]], bool],
    config: RlConfig,
    run_dir: str | Path | None = None,
) -> tuple[mdl.ParameterSet, list[RlMetricsRecord]]:
    """Group-rollout clipped policy gradient with binary verifier rewards."""
    if not prompts:
        raise InputError("empty prompt set")
    opt = adamw_init(params)
    records: list[RlMetricsRecord] = []
    timings: list[tuple[int, float]] = []
    G = config.rollout_group_size

    for step in range(config.total_steps):
        t_start = time.perf_counter()
        step_rng = np.random.default_rng([config.seed, 3, step])
        n_take = min(config.prompts_per_step, len(prompts))
        chosen = step_rng.choice(len(prompts), size=n_take, replace=False)

        episodes = []  # (sample, generated tokens, old logprobs, advantage)
        rewards_all: list[float] = []
        ent_vals: list[float] = []
        gen_lens: list[int] = []
        zero_var = 0
        for pi in chosen:
            s = prompts[int(pi)]
            rng = np.random.default_rng([config.seed, 4, step, int(pi)])
            group = sample_group(
                params, s.prompt_tokens, G, config.temperature, config.max_gen_len, rng
            )
            rewards = []
            for g in group:
                try:
                    rewards.append(1.0 if verifier(s, g.tokens) else 0.0)
                except Exception:
                    log.warning("verifier raised; scoring 0", exc_info=True)
                    rewards.append(0.0)
            rewards_all.extend(rewards)
            adv = group_advantages(rewards)
            if np.all(adv == 0.0):
                zero_var += 1
            for g, a in zip(group, adv):
                if g.tokens:
                    episodes.append((s, g.tokens, g.logprobs, float(a)))
                ent_vals.extend(g.entropies)
                gen_lens.append(len(g.tokens))

        pg_loss = 0.0
        if episodes:
            pg_loss = _rl_update(params, opt, episodes, config)
        records.append(
            RlMetricsRecord(
                step=step,
                pg_loss=pg_loss,
                mean_reward=float(np.mean(rewards_all)) if rewards_all else 0.0,
                zero_variance_frac=zero_var / max(len(chosen), 1),
                mean_entropy=float(np.mean(ent_vals)) if ent_vals else 0.0,
                mean_gen_len=float(np.mean(gen_lens)) if gen_lens else 0.0,
            )
        )
        timings.append((step, time.perf_counter() - t_start))

    if run_dir is not None:
        _write_run_outputs(Path(run_dir), params, RL_METRICS_COLUMNS, records, timings)
    return params, records


def _rl_update(params, opt, episodes, config: RlConfig) -> float:
    """One clipped-PG update over all episodes of a step; returns the loss.

    `sample_group` stops at the context, so every episode fits one row.
    """
    n_in = [len(s.prompt_tokens) + len(toks) - 1 for s, toks, _, _ in episodes]
    n_gen = [len(toks) for _, toks, _, _ in episodes]
    inputs = np.full((len(episodes), max(n_in)), PAD, dtype=np.int64)
    for i, (s, toks, _, _) in enumerate(episodes):
        inputs[i, : n_in[i]] = (list(s.prompt_tokens) + toks)[:-1]
    # generated token j of a row is predicted at position len(prompt) - 1 + j
    rows = np.repeat(np.arange(len(episodes)), n_gen)
    pos = np.concatenate([np.arange(n - g, n) for n, g in zip(n_in, n_gen)])
    tok = np.concatenate([toks for _, toks, _, _ in episodes])
    old_lp = np.concatenate([lps for _, _, lps, _ in episodes])
    adv = np.repeat([a for _, _, _, a in episodes], n_gen)

    logits, cache = mdl.forward(params, inputs)
    log_probs = nk.log_softmax(logits / config.temperature)
    new_lp = log_probs[rows, pos, tok]

    loss, d_lp = clipped_pg_loss(new_lp, old_lp, adv, config.clip_low, config.clip_high)

    d_lp_rows = np.zeros((tok.size, logits.shape[-1]))
    d_lp_rows[np.arange(tok.size), tok] = d_lp
    d_rows = nk.log_softmax_backward(d_lp_rows, log_probs[rows, pos])
    # log_probs = log_softmax(logits / T), hence the 1/T; adding onto zeros normalizes -0.0
    dlogits = np.zeros_like(logits)
    np.add.at(dlogits, (rows, pos), d_rows / config.temperature)

    grad = mdl.backward(params, cache, dlogits)
    if grad.any():
        adamw_step(params, grad, opt, config.learning_rate, weight_decay=config.weight_decay)
    return loss
