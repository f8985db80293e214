"""Optimizer and the two training loops (supervised stage, then RL stage).

Supervised stage: an optimizer step is one batch of `batch_size` samples,
with one forward, one `objective.objective_terms` call, which builds the
batch's masks and normalizes its loss, and at most one backward. `batchify`,
the one code that pads token sequences for training, pads the dataset once
per run (and each RL step's rollouts). The reference is frozen, so its
logits are computed once too, before the first epoch, and a batch is a
gather of rows from these arrays. Parameters, gradients and AdamW's moments
are flat vectors in one layout.

RL stage: group rollouts per prompt, binary verifier rewards, group-mean
normalized advantages, and an asymmetrically clipped policy-gradient
surrogate with the fixed band [1 - CLIP_LOW, 1 + CLIP_HIGH]. No
reference/KL term. Each rollout batch serves one update, made with the
parameters that sampled it, so the update runs no forward: its backward
reads the activations the sampler recorded (`model.stitch_cache`), and its
log-probs are the head and log_softmax(logits / T) over the recorded `xf`,
the sampled ones bit for bit, so the importance ratio is exactly 1 and the
band never binds. The logit gradient is `objective.nll_sum` weighted by
-dL/dlog p. A rollout of a reward-uniform group has a zero advantage and an
exactly zero gradient, so the backward runs over the other rollouts only; a
step with no other rollout runs no backward or AdamW step, so parameters
stay bit-identical. `metrics.csv`'s `update_tokens` counts the tokens
trained, 0 on a skipped step. Later epochs over one batch, whose
parameters are no longer the sampler's, will need a forward of their own
but no new gradient code; until then the band is a constant, not a setting.

Wall-clock timings go to a separate timings.csv: metrics.csv must stay
byte-identical across reruns of the same config. An RL step's row there also
splits off the seconds spent sampling (`sample_s`) and in the update
(`update_s`). `files` writes every run file.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import files
from . import model as mdl
from . import numerics as nk
from . import objective as obj
from . import selection as sel
from .errors import ConfigError, InputError, LengthError, NumericError, check_field_types
from .evaluation import sample_group
from .tasks import PAD, Sample

log = logging.getLogger(__name__)

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.95, 1e-8
# DAPO's clip-higher band [1 - CLIP_LOW, 1 + CLIP_HIGH]; see the module docstring
CLIP_LOW, CLIP_HIGH = 0.2, 0.28


@dataclass(frozen=True)
class SftConfig:
    method: str = "sft"
    learning_rate: float = 1e-5
    epochs: int = 8
    batch_size: int = 8
    rho: float = 0.2
    lambda_h: float = 0.05
    lambda_kl: float = 0.05
    drop_fraction: float = 0.10
    weight_decay: float = 0.0
    seed: int = 0
    supervise_prompt: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.method not in obj.METHODS:
            raise ConfigError(f"unknown method {self.method!r}; "
                              f"expected one of {tuple(obj.METHODS)}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
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
    temperature: float = 1.0
    max_gen_len: int = 64
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
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
    update_tokens: int


SFT_METRICS_COLUMNS = [f.name for f in fields(SftMetricsRecord)]
RL_METRICS_COLUMNS = [f.name for f in fields(RlMetricsRecord)]


def _write_run_outputs(
    out_dir: Path,
    params: mdl.ParameterSet,
    columns: list[str],
    records: Sequence,
    timing_columns: list[str],
    timings: list[tuple],
    dumps: Sequence[tuple] = (),
) -> None:
    """metrics.csv, mask_dump.jsonl (removed if there are no `dumps`, each a step's
    `selection.mask_dump_rows` arguments), timings.csv and checkpoints/final."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files.write_csv(out_dir / "metrics.csv", columns,
                    ([getattr(rec, col) for col in columns] for rec in records))
    dump = out_dir / "mask_dump.jsonl"
    if dumps:
        files.write_jsonl(dump, (row for entry in dumps for row in sel.mask_dump_rows(*entry)))
    else:
        dump.unlink(missing_ok=True)  # a forced re-run must not leave an earlier run's dump
    files.write_csv(out_dir / "timings.csv", timing_columns, timings)
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


def batchify(samples: Sequence[tuple[Sequence[int], Sequence[int]]], supervise_prompt: bool = False):
    """Pack (prompt_tokens, response_tokens) pairs into (inputs, targets, valid) arrays.

    Row i holds pair i's tokens shifted by one, inputs tokens[:-1] and targets
    tokens[1:], then PAD. valid marks the positions whose target is a
    response token (or every real position when supervise_prompt is set, as
    in pretraining).
    """
    if not samples:
        raise InputError("empty batch")
    lengths = [len(prompt) + len(response) - 1 for prompt, response in samples]
    shape = (len(samples), max(lengths))
    inputs = np.full(shape, PAD, dtype=np.int64)
    targets = np.full(shape, PAD, dtype=np.int64)
    valid = np.zeros(shape, dtype=bool)
    for i, ((prompt, response), n) in enumerate(zip(samples, lengths)):
        toks = np.asarray((*prompt, *response), dtype=np.int64)
        inputs[i, :n] = toks[:-1]
        targets[i, :n] = toks[1:]
        valid[i, 0 if supervise_prompt else len(prompt) - 1 : n] = True
    return inputs, targets, valid


# -----------------------------------------------------------------------------
# supervised stage
# -----------------------------------------------------------------------------


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

    dumps: list[tuple] = []  # (step, stats, mask) per masked step; rows built as the dump is written
    records: list[SftMetricsRecord] = []
    timings: list[tuple[int, float]] = []
    lengths = np.array([len(s.tokens) - 1 for s in dataset])
    packed = batchify([(s.prompt_tokens, s.response_tokens) for s in dataset],
                      config.supervise_prompt)
    # One reference forward per batch-sized chunk: a causal row sees neither its
    # batch mates nor the padding after it, so its bits are those of any batch.
    ref_table = np.zeros((*packed[0].shape, reference.config.vocab_size))
    for c0 in range(0, len(dataset), config.batch_size):
        rows = slice(c0, c0 + config.batch_size)
        width = lengths[rows].max()
        ref_table[rows, :width] = reference.logits(packed[0][rows, :width])
    ref_table[np.arange(ref_table.shape[1]) >= lengths[:, None]] = 0.0
    opt = adamw_init(params)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    step = 0

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset))
        for b0 in range(0, len(order), config.batch_size):
            t_start = time.perf_counter()
            idx = order[b0 : b0 + config.batch_size]
            width = lengths[idx].max()
            inputs, targets, valid, ref_logits = (a[idx, :width] for a in (*packed, ref_table))
            logits, cache = mdl.forward(params, inputs)
            # The last 0 once indexed a batch within the step; it stays, so the stream does.
            rng = (
                np.random.default_rng([config.seed, 2, step, 0])
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
            n_masked = n_both = 0
            mask = terms.mask
            if mask is not None:
                n_masked = int(mask.m_union.sum())
                n_both = int((mask.m_entropy & mask.m_kl).sum())
                dumps.append((step, terms.stats, mask))
            grad = np.zeros_like(params.flat)
            if terms.dlogits is not None:
                grad += mdl.backward(params, cache, terms.dlogits)
            adamw_step(params, grad, opt, config.learning_rate, weight_decay=config.weight_decay)

            ent_vals, kl_vals = terms.stats.entropy, terms.stats.kl
            records.append(
                SftMetricsRecord(
                    step=step,
                    epoch=epoch,
                    method=config.method,
                    loss_total=terms.total,
                    ce_masked=terms.ce,
                    entropy_reg=terms.h,
                    kl_reg=terms.kl,
                    n_supervised=terms.n_sup,
                    n_masked=n_masked,
                    mean_entropy=float(np.mean(ent_vals)) if ent_vals.size else 0.0,
                    mean_kl=float(np.mean(kl_vals)) if kl_vals.size else 0.0,
                    mask_iou=None if mask is None else sel.iou(n_both, n_masked),
                )
            )
            timings.append((step, time.perf_counter() - t_start))
            step += 1

    if run_dir is not None:
        _write_run_outputs(Path(run_dir), params, SFT_METRICS_COLUMNS, records,
                           ["step", "seconds"], timings, dumps)
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
    timings: list[tuple[int, float, float, float]] = []
    G = config.rollout_group_size

    for step in range(config.total_steps):
        t_start = time.perf_counter()
        step_rng = np.random.default_rng([config.seed, 3, step])
        n_take = min(config.prompts_per_step, len(prompts))
        chosen = step_rng.choice(len(prompts), size=n_take, replace=False)

        groups = []  # (sample, sampled group, advantages, sampler record) per prompt
        rewards_all: list[float] = []
        ent_vals: list[float] = []
        gen_lens: list[int] = []
        zero_var = 0
        sample_s = 0.0
        for pi in chosen:
            s = prompts[int(pi)]
            rng = np.random.default_rng([config.seed, 4, step, int(pi)])
            record: list = []
            t_sample = time.perf_counter()
            group = sample_group(
                params, s.prompt_tokens, G, config.temperature, config.max_gen_len, rng, record
            )
            sample_s += time.perf_counter() - t_sample
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
                record.clear()  # the update trains none of these rows
            groups.append((s, group, adv, record))
            for g in group:
                ent_vals.extend(g.entropies)
                gen_lens.append(len(g.tokens))

        t_update = time.perf_counter()
        pg_loss, update_tokens = _rl_update(params, opt, groups, config)
        update_s = time.perf_counter() - t_update
        records.append(
            RlMetricsRecord(
                step=step,
                pg_loss=pg_loss,
                mean_reward=float(np.mean(rewards_all)),
                zero_variance_frac=zero_var / len(chosen),
                mean_entropy=float(np.mean(ent_vals)) if ent_vals else 0.0,
                mean_gen_len=float(np.mean(gen_lens)),
                update_tokens=update_tokens,
            )
        )
        timings.append((step, time.perf_counter() - t_start, sample_s, update_s))

    if run_dir is not None:
        _write_run_outputs(Path(run_dir), params, RL_METRICS_COLUMNS, records,
                           ["step", "seconds", "sample_s", "update_s"], timings)
    return params, records


def _rl_update(params, opt, groups, config: RlConfig) -> tuple[float, int]:
    """One clipped-PG update over a step's groups; returns (loss, tokens trained).

    A group is (sample, its `sample_group` rows, their advantages, the record
    of that call). The update is made with the parameters that sampled every
    row, so it runs no forward: the new log-probs are the old ones, every
    ratio is exactly 1, and the surrogate takes every generated token, so its
    token mean is the loss. A row trains iff it generated tokens and has a
    nonzero advantage: those rows alone are batchified, padded to the longest
    of them, and `model.stitch_cache` gathers their backward cache out of the
    records; the head over its `xf` gives the log-probs each token was drawn
    from, as a later epoch's forward would. The logit gradient is
    `objective.nll_sum`'s weighted by -dL/dlog p, which carries the ratio and
    the clip. With no such row no backward or AdamW step runs; the loss is
    -0.0, or 0.0 when no row generated a token.
    """
    old_lp = np.array([lp for _, group, *_ in groups for g in group for lp in g.logprobs])
    if not old_lp.size:
        return 0.0, 0
    adv = np.concatenate([np.repeat(a, [len(g.tokens) for g in group])
                          for _, group, a, _ in groups])
    loss, d_lp = clipped_pg_loss(old_lp, old_lp, adv, CLIP_LOW, CLIP_HIGH)
    kept = [(s, g.tokens, (record, row)) for s, group, a, record in groups
            for row, g in enumerate(group) if g.tokens and a[row] != 0.0]
    if not kept:
        return loss, 0

    inputs, targets, valid = batchify([(s.prompt_tokens, toks) for s, toks, _ in kept])
    cache = mdl.stitch_cache(params, inputs, [where for *_, where in kept])
    # the sampler's log_softmax(logits / T) over its own xf, bit for bit: hence the 1/T
    log_probs = nk.log_softmax(nk.matmul(cache["xf"], params.tensors["head.w"]) / config.temperature)
    dlogits = obj.nll_sum(log_probs, targets, valid, -d_lp[adv != 0.0])[1] / config.temperature

    grad = mdl.backward(params, cache, dlogits)
    if grad.any():
        adamw_step(params, grad, opt, config.learning_rate, weight_decay=config.weight_decay)
    return loss, int(valid.sum())
