"""Output checks, each against a computation made apart from the program.

Every check returns a list of failure messages (empty when it passes). The
answer checker and the token table are written here from the documented
formats (README "Data formats"), not imported from eksft.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import special, stats

# Documented token layout: PAD=0, BOS=1, EOS=2, then these characters from id 3.
EOS_ID = 2
MARK_ID = 3
ID_TO_CHAR = {3 + i: ch for i, ch in enumerate("#0123456789+=,→abcdefghijklmn")}
MODULUS = 100


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -----------------------------------------------------------------------------
# answer checker for mod_add_chain
# -----------------------------------------------------------------------------


def gold_answer(prompt_text: str) -> str:
    """Sum of the '+'-separated operands before '=', mod 100."""
    operands = prompt_text.rstrip("=").split("+")
    return str(sum(int(x) for x in operands) % MODULUS)


def prompt_text(prompt_ids) -> str:
    return "".join(ID_TO_CHAR[int(t)] for t in list(prompt_ids)[1:])  # drop BOS


def answer_correct(prompt: str, generated) -> bool:
    """The text after the last '#', up to EOS, equals the gold sum (leading zeros ignored)."""
    ids = [int(t) for t in generated]
    if MARK_ID not in ids:
        return False
    last = len(ids) - 1 - ids[::-1].index(MARK_ID)
    chars = []
    for t in ids[last + 1:]:
        if t == EOS_ID:
            break
        if t not in ID_TO_CHAR:
            return False
        chars.append(ID_TO_CHAR[t])
    text = "".join(chars)
    if text.isdigit():
        text = str(int(text))
    return text == gold_answer(prompt)


# -----------------------------------------------------------------------------
# sft_eksft
# -----------------------------------------------------------------------------


def response_token_count(sft_jsonl: Path) -> int:
    """Response characters plus one EOS per sample, counted from the JSONL text."""
    return sum(len(row["response"]) + 1 for row in read_jsonl(sft_jsonl))


def check_mask_dump(dump: Path, rho: str, batch_size: int) -> list[str]:
    """A top-k oracle reproduces in_mH and in_mKL for every micro-batch.

    k = ceil(rho * |T|) in exact decimal arithmetic; ties go to the lower
    (seq, pos); micro-batches are the rows of one step with equal seq // batch_size.
    """
    groups: dict[tuple[int, int], list[dict]] = {}
    for row in read_jsonl(dump):
        groups.setdefault((row["step"], row["seq"] // batch_size), []).append(row)
    fails = []
    for (step, micro), rows in sorted(groups.items()):
        k = math.ceil(Fraction(rho) * len(rows))
        for key, flag in (("entropy", "in_mH"), ("kl", "in_mKL")):
            ranked = sorted(rows, key=lambda r: (-r[key], r["seq"], r["pos"]))
            want = {(r["seq"], r["pos"]) for r in ranked[:k]}
            got = {(r["seq"], r["pos"]) for r in rows if r[flag]}
            if want != got:
                fails.append(f"mask dump step {step} micro-batch {micro}: {flag} differs from "
                             f"the top-{k} oracle ({len(want ^ got)} tokens)")
    if not groups:
        fails.append("mask dump is empty")
    return fails


def check_sft_metrics(rows: list[dict], lambda_h: float, lambda_kl: float,
                      response_tokens: int, steps_per_epoch: int, epochs: int) -> list[str]:
    fails = []
    if len(rows) != steps_per_epoch * epochs:
        fails.append(f"metrics.csv has {len(rows)} rows, expected {steps_per_epoch * epochs}")
    per_epoch: dict[int, int] = {}
    for row in rows:
        vals = {k: float(row[k]) for k in ("loss_total", "ce_masked", "entropy_reg", "kl_reg",
                                          "mean_entropy", "mean_kl", "mask_iou")}
        if not all(math.isfinite(v) for v in vals.values()):
            fails.append(f"step {row['step']}: non-finite metrics {vals}")
            continue
        total = vals["ce_masked"] - lambda_h * vals["entropy_reg"] + lambda_kl * vals["kl_reg"]
        if abs(total - vals["loss_total"]) > 1e-12:
            fails.append(f"step {row['step']}: loss_total {vals['loss_total']!r} != "
                         f"ce - lH*h + lKL*kl = {total!r}")
        epoch = int(row["epoch"])
        per_epoch[epoch] = per_epoch.get(epoch, 0) + int(row["n_supervised"]) + int(row["n_masked"])
    for epoch, n in sorted(per_epoch.items()):
        if n != response_tokens:
            fails.append(f"epoch {epoch}: n_supervised + n_masked = {n}, "
                         f"SFT split has {response_tokens} response tokens")
    return fails


def check_token_stats(logits, reference_logits, valid_mask, token_stats) -> list[str]:
    """Entropy and KL(policy || reference) recomputed with scipy agree within 1e-10."""
    p = special.softmax(np.asarray(logits, dtype=np.float64), axis=-1)
    q = special.softmax(np.asarray(reference_logits, dtype=np.float64), axis=-1)
    ent = stats.entropy(p, axis=-1)
    kl = stats.entropy(p, q, axis=-1)
    where = list(zip(*np.nonzero(valid_mask)))
    refs = [(s.ref.sequence_index, s.ref.token_position) for s in token_stats]
    if refs != [(int(b), int(t)) for b, t in where]:
        return ["token statistics do not cover exactly the valid positions"]
    worst_h = max((abs(s.entropy - ent[b, t]) for s, (b, t) in zip(token_stats, where)), default=0.0)
    worst_kl = max((abs(s.kl - kl[b, t]) for s, (b, t) in zip(token_stats, where)), default=0.0)
    fails = []
    if worst_h > 1e-10:
        fails.append(f"entropy differs from scipy by {worst_h:.3e}")
    if worst_kl > 1e-10:
        fails.append(f"KL differs from scipy by {worst_kl:.3e}")
    return fails


# -----------------------------------------------------------------------------
# sampling (rl_grpo, eval_passk)
# -----------------------------------------------------------------------------


def check_sampled_logprobs(forward, params, prompt_ids, temperature, groups) -> list[str]:
    """Each sampled log-prob equals log_softmax(full forward / T) at its prefix, within 1e-9."""
    prompt = [int(t) for t in prompt_ids]
    sampled = [g for g in groups if g.tokens]
    if not sampled:
        return []
    rows = [prompt + [int(t) for t in g.tokens[:-1]] for g in sampled]
    ids = np.zeros((len(rows), max(len(r) for r in rows)), dtype=np.int64)  # PAD after the end
    for i, r in enumerate(rows):
        ids[i, :len(r)] = r
    logits, _ = forward(params, ids, want_cache=False)
    lp = special.log_softmax(logits / temperature, axis=-1)
    worst = 0.0
    for i, g in enumerate(sampled):
        for j, (token, got) in enumerate(zip(g.tokens, g.logprobs)):
            worst = max(worst, abs(lp[i, len(prompt) - 1 + j, int(token)] - got))
    if worst > 1e-9:
        return [f"sampled log-prob differs from the full forward by {worst:.3e}"]
    return []


def check_rl_rewards(groups: list, rows: list[dict], prompts_per_step: int) -> list[str]:
    """Re-scored rollouts reproduce every step's mean_reward exactly."""
    if len(groups) != len(rows) * prompts_per_step:
        return [f"captured {len(groups)} rollout groups for {len(rows)} steps"]
    fails = []
    for step, row in enumerate(rows):
        rewards = [
            1.0 if answer_correct(prompt_text(prompt), g.tokens) else 0.0
            for prompt, group in groups[step * prompts_per_step:(step + 1) * prompts_per_step]
            for g in group
        ]
        mean = sum(rewards) / len(rewards)
        if mean != float(row["mean_reward"]):
            fails.append(f"step {step}: re-scored mean_reward {mean!r} != {row['mean_reward']}")
    return fails


# -----------------------------------------------------------------------------
# eval_passk
# -----------------------------------------------------------------------------


def exact_pass_at_k(n: int, c: int, k: int) -> Fraction:
    return 1 - Fraction(math.comb(n - c, k), math.comb(n, k))


def check_eval_report(report: dict) -> list[str]:
    per_prompt = [tuple(pc) for pc in report["per_prompt"]]
    ks = sorted(int(k) for k in report["pass_at"])
    fails = []
    for k in ks:
        exact = sum((exact_pass_at_k(n, c, k) for n, c in per_prompt), Fraction(0)) / len(per_prompt)
        if abs(float(exact) - report["pass_at"][str(k)]) > 1e-12:
            fails.append(f"pass@{k} = {report['pass_at'][str(k)]!r}, exact {float(exact)!r}")
    values = [report["pass_at"][str(k)] for k in ks]
    if any(b < a for a, b in zip(values, values[1:])):
        fails.append(f"pass@k decreases with k: {values}")
    if 1 in ks and abs(report["avg_at_n"] - report["pass_at"]["1"]) > 1e-12:
        fails.append(f"avg@n {report['avg_at_n']!r} != pass@1 {report['pass_at']['1']!r}")
    return fails


def check_eval_counts(groups: list, report: dict) -> list[str]:
    """Each prompt's c equals a recount by the answer checker above."""
    if len(groups) != len(report["per_prompt"]):
        return [f"captured {len(groups)} groups for {len(report['per_prompt'])} prompts"]
    fails = []
    for j, ((prompt, group), (n, c)) in enumerate(zip(groups, report["per_prompt"])):
        recount = sum(answer_correct(prompt_text(prompt), g.tokens) for g in group)
        if (len(group), recount) != (n, c):
            fails.append(f"prompt {j}: report (n, c) = ({n}, {c}), recount ({len(group)}, {recount})")
    return fails
