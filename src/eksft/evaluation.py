"""Temperature sampling and pass@k evaluation.

`sample_group` draws n continuations of one prompt with a K/V cache that
holds one row per distinct history, so rows that have sampled the same
tokens so far share one forward row; every row keeps the bits it gets with
a cache row of its own. Given a record, it also keeps each forward's
activations, so the RL update back-propagates through those that sampled a
rollout (`model.stitch_cache`) and runs no forward; `evaluate` keeps none.

pass@k follows the unbiased estimator convention: with n samples of which
c are correct, pass@k = 1 - C(n-c, k) / C(n, k), computed in product form
so large n never overflows. avg@n equals pass@1 = c/n by the same formula.
`write_eval_report` writes a report through `files`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import files
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
    record: list | None = None,
) -> list[SampledSequence]:
    """Sample n continuations of one prompt, each until EOS, max_len or the context.

    The K/V cache holds one row per distinct history (the prompt plus the
    tokens sampled so far), not one per sampling row. One (1, P) forward
    prefills the prompt, the only history at step 0. After each step the live
    rows' (history, token) pairs are deduplicated with np.unique: the cache is
    gathered by each new history's parent, and the next forward feeds one
    (histories, 1) column. Each row reads its history's log-probs, CDF and
    entropy by index. Rows never mix in the forward (`model.forward`), so a
    row gets the bits that a cache row of its own gives. A row that emits EOS
    leaves.
    Every step still draws rng.random(n), indexed by the live rows, so the
    stream and each row's draws do not depend on which rows stop or share.
    Tokens, log-probs and entropies go into (n, steps) arrays that become the
    returned lists once, at the end.

    With `record` (a list, filled in place like `model.forward`'s `past`),
    each forward also returns its cache, and the call appends one (packed,
    at) pair: `packed` is `model.pack_positions` of the call's new
    positions, activations only (the head rebuilds the log-probs from `xf`),
    and at[i] is row i's history, its row of `packed`, or -1 once row i has
    stopped: the `calls` list that `model.stitch_cache` reads. Sampling is
    the same with or without it.
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
    vocab = cfg.vocab_size
    rows = np.arange(n)  # the rows still sampling
    hist = np.zeros(n, dtype=np.int64)  # each live row's history: its cache row
    past: list = []
    for step in range(steps):
        if step == 0:
            ids = prompt[None, :]
        else:
            # one cache row per distinct (history, token): parents gather, tokens feed
            keys, hist = np.unique(hist * vocab + nxt, return_inverse=True)
            parents, column = np.divmod(keys, vocab)
            past[:] = [(k[parents], v[parents]) for k, v in past]
            ids = column[:, None]
        logits, cache = mdl.forward(params, ids, want_cache=record is not None, past=past)
        lp = nk.log_softmax(logits[:, -1, :] / temperature)
        if record is not None:
            at = np.full(n, -1, dtype=np.int64)
            at[rows] = hist
            record.append((mdl.pack_positions(cfg, cache), at))
        cdf = np.cumsum(np.exp(lp), axis=-1)
        u = rng.random(n)[rows]
        nxt = np.minimum((cdf[hist] < u[:, None]).sum(axis=-1), vocab - 1)
        tokens[rows, step] = nxt
        logprobs[rows, step] = lp[hist, nxt]
        entropies[rows, step] = nk.entropy(lp)[hist]
        lengths[rows] = step + 1
        live = nxt != EOS
        if not live.all():
            rows, hist, nxt = rows[live], hist[live], nxt[live]
            if rows.size == 0:
                break
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
    # pass_at's keys become strings before sort_keys orders them, as text
    files.write_json(json_path, {**asdict(report),
                                 "pass_at": {str(k): v for k, v in report.pass_at.items()}})
    files.write_csv(csv_path, ["checkpoint", "k", "pass_at_k"],
                    ([label, k, report.pass_at[k]] for k in report.ks))
    return json_path, csv_path
