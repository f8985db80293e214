"""Temperature sampling and pass@k evaluation.

pass@k follows the unbiased estimator convention: with n samples of which
c are correct, pass@k = 1 - C(n-c, k) / C(n, k), computed in product form
so large n never overflows. avg@n equals pass@1 = c/n by the same formula.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numerics as nk
from . import model as mdl
from .errors import ConfigError, InputError
from .tasks import EOS, Sample, verify


@dataclass
class SampledSequence:
    tokens: list[int]  # generated continuation, EOS included when emitted
    logprobs: list[float]  # log-prob of each generated token at sampling time
    entropies: list[float]  # next-token distribution entropy at each step


def sample_group(
    params: mdl.ParameterSet,
    prompt_tokens,
    n: int,
    temperature: float,
    max_len: int,
    rng: np.random.Generator,
) -> list[SampledSequence]:
    """Sample n continuations of one prompt, each until EOS, max_len or the context.

    One (1, P) forward prefills the prompt, and its last log-probs and its K/V
    cache are repeated to the n rows. Each later step feeds one position for
    each row still sampling: a row that emits EOS leaves the batch and the
    cache. Every step still draws rng.random(n), indexed by the live
    rows, so the stream and each row's draws do not depend on which rows stop.
    Tokens, log-probs and entropies go into (n, steps) arrays that become the
    returned lists once, at the end.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    if n < 1 or max_len < 0:
        raise ConfigError(f"need n >= 1 and max_len >= 0, got n={n}, max_len={max_len}")
    prompt = np.asarray(list(prompt_tokens), dtype=np.int64)
    if prompt.size == 0:
        raise InputError("empty prompt")
    cfg = params.config
    steps = max(min(max_len, cfg.context_len - prompt.size), 0)
    tokens = np.zeros((n, steps), dtype=np.int64)
    logprobs = np.zeros((n, steps))
    entropies = np.zeros((n, steps))
    lengths = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)  # the rows still sampling
    past: list = []
    for step in range(steps):
        if step == 0:
            logits, _ = mdl.forward(params, prompt[None, :], want_cache=False, past=past)
            lp = np.repeat(nk.log_softmax(logits[:, -1, :] / temperature), n, axis=0)
            past[:] = [(np.repeat(k, n, axis=0), np.repeat(v, n, axis=0)) for k, v in past]
        else:
            logits, _ = mdl.forward(params, nxt[:, None], want_cache=False, past=past)
            lp = nk.log_softmax(logits[:, -1, :] / temperature)
        cdf = np.cumsum(np.exp(lp), axis=-1)
        u = rng.random(n)[rows]
        nxt = np.minimum((cdf < u[:, None]).sum(axis=-1), cfg.vocab_size - 1)
        tokens[rows, step] = nxt
        logprobs[rows, step] = lp[np.arange(rows.size), nxt]
        entropies[rows, step] = nk.entropy(lp)
        lengths[rows] = step + 1
        live = nxt != EOS
        if not live.all():
            rows, nxt = rows[live], nxt[live]
            if rows.size == 0:
                break
            past[:] = [(k[live], v[live]) for k, v in past]
    return [
        SampledSequence(tok[:m], lp[:m], ent[:m])
        for tok, lp, ent, m in zip(tokens.tolist(), logprobs.tolist(), entropies.tolist(),
                                   lengths.tolist())
    ]


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased estimate that >= 1 of k draws from n samples (c correct) succeeds."""
    if not (0 <= c <= n):
        raise InputError(f"need 0 <= c <= n, got c={c}, n={n}")
    if not (1 <= k <= n):
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    return float(1.0 - np.prod(1.0 - k / np.arange(n - c + 1, n + 1, dtype=np.float64)))


@dataclass
class EvalReport:
    n_per_prompt: int
    temperature: float
    seed: int
    ks: list[int]
    per_prompt: list[tuple[int, int]]  # (n sampled, c correct) per prompt
    pass_at: dict[int, float]
    avg_at_n: float
    mean_response_entropy: float
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "n_per_prompt": self.n_per_prompt,
            "temperature": self.temperature,
            "seed": self.seed,
            "ks": self.ks,
            "per_prompt": [list(pc) for pc in self.per_prompt],
            "pass_at": {str(k): v for k, v in self.pass_at.items()},
            "avg_at_n": self.avg_at_n,
            "mean_response_entropy": self.mean_response_entropy,
            "config": self.config,
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def csv_rows(self, label: str = "") -> list[dict]:
        return [
            {"checkpoint": label, "k": k, "pass_at_k": self.pass_at[k]}
            for k in self.ks
        ]


def evaluate(
    params: mdl.ParameterSet,
    eval_set: list[Sample],
    n_per_prompt: int,
    ks,
    temperature: float,
    seed: int,
    max_len: int = 64,
) -> EvalReport:
    """Sample n per prompt, verify, and aggregate pass@k across prompts."""
    if not eval_set:
        raise InputError("empty eval set")
    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1:
        raise InputError(f"ks must be positive, got {ks}")
    if n_per_prompt < ks[-1]:
        raise InputError(f"n_per_prompt={n_per_prompt} smaller than max k={ks[-1]}")
    per_prompt = []
    entropies: list[float] = []
    for j, s in enumerate(eval_set):
        rng = np.random.default_rng([seed, j])
        group = sample_group(params, s.prompt_tokens, n_per_prompt, temperature, max_len, rng)
        c = sum(1 for g in group if verify(s, g.tokens))
        per_prompt.append((n_per_prompt, c))
        for g in group:
            entropies.extend(g.entropies)
    pass_at = {
        k: float(np.mean([pass_at_k(n, c, k) for n, c in per_prompt])) for k in ks
    }
    return EvalReport(
        n_per_prompt=n_per_prompt,
        temperature=temperature,
        seed=seed,
        ks=ks,
        per_prompt=per_prompt,
        pass_at=pass_at,
        avg_at_n=float(np.mean([c / n for n, c in per_prompt])),
        mean_response_entropy=float(np.mean(entropies)) if entropies else 0.0,
    )


def write_eval_report(report: EvalReport, out_dir: str | Path, label: str = "eval") -> tuple[Path, Path]:
    """Serialize a report as JSON plus a flat per-k CSV; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{label}.json"
    csv_path = out_dir / f"{label}.csv"
    json_path.write_text(report.to_json(), encoding="utf-8")
    lines = ["checkpoint,k,pass_at_k"]
    for row in report.csv_rows(label):
        lines.append(f"{row['checkpoint']},{row['k']},{row['pass_at_k']!r}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return json_path, csv_path
