import itertools
import math

import numpy as np
import pytest

from eksft import evaluation as ev
from eksft import model as mdl
from eksft import tasks
from eksft.errors import ConfigError, InputError


@pytest.fixture(scope="module")
def small_model():
    cfg = mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, context_len=32, seed=0)
    return mdl.init(cfg)


def _sample_one(params, prompt, max_len, seed):
    rng = np.random.default_rng(seed)
    return ev.sample_group(params, prompt, 1, 1.0, max_len, rng)[0].tokens


def test_sample_deterministic(small_model):
    prompt = [tasks.BOS] + tasks.VOCAB.tokenize("1+2=")
    a = _sample_one(small_model, prompt, max_len=10, seed=42)
    b = _sample_one(small_model, prompt, max_len=10, seed=42)
    assert a == b
    c = _sample_one(small_model, prompt, max_len=10, seed=43)
    assert isinstance(c, list)


def _force_constant_logits(params, token, scale=50.0):
    """Rig the final norm + head so every position emits `token` (norm output
    is zero-mean, so a plain head-column offset would cancel)."""
    params.tensors["lnf.g"][:] = 0.0
    params.tensors["lnf.b"][:] = 0.0
    params.tensors["lnf.b"][0] = 1.0
    params.tensors["head.w"][:] = 0.0
    params.tensors["head.w"][0, token] = scale
    return params


def test_sample_stops_at_eos(small_model):
    params = _force_constant_logits(small_model.copy(), tasks.EOS)
    prompt = [tasks.BOS] + tasks.VOCAB.tokenize("1+2=")
    group = ev.sample_group(params, prompt, 8, 1.0, 20, np.random.default_rng(0))
    for g in group:
        assert g.tokens == [tasks.EOS]


def _full_recompute_sampler(params, prompt_tokens, n, temperature, max_len, rng):
    """The sampler before K/V caching: every step re-runs the whole prefix."""
    import eksft.numerics as nk

    cfg = params.config
    ids = np.tile(np.asarray(prompt_tokens, dtype=np.int64), (n, 1))
    out = [ev.SampledSequence([], [], []) for _ in range(n)]
    active = np.ones(n, dtype=bool)
    for _ in range(max_len):
        if ids.shape[1] >= cfg.context_len or not active.any():
            break
        logits, _ = mdl.forward(params, ids, want_cache=False)
        lp = nk.log_softmax(logits[:, -1, :] / temperature)
        probs = np.exp(lp)
        cdf = np.cumsum(probs, axis=-1)
        u = rng.random(n)
        nxt = np.minimum((cdf < u[:, None]).sum(axis=-1), cfg.vocab_size - 1)
        ent = -np.sum(probs * np.where(probs > 0.0, lp, 0.0), axis=-1)
        for i in range(n):
            if active[i]:
                token = int(nxt[i])
                out[i].tokens.append(token)
                out[i].logprobs.append(float(lp[i, token]))
                out[i].entropies.append(float(ent[i]))
                if token == tasks.EOS:
                    active[i] = False
        ids = np.concatenate([ids, nxt[:, None]], axis=1)
    return out


@pytest.mark.parametrize("case", ["eos", "context"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_group_matches_full_recompute(small_model, case, seed):
    params = small_model.copy()
    rng = np.random.default_rng(seed)
    for name in params.tensors:
        params.tensors[name] += rng.normal(0.0, 0.3, params.tensors[name].shape)
    text = "1+2+3+4+5+6+7+8+9+10+11+12=" if case == "context" else "1+2="
    prompt = [tasks.BOS] + tasks.VOCAB.tokenize(text)
    args = (params, prompt, 16, 1.0, 20)
    got = ev.sample_group(*args, np.random.default_rng(seed))
    want = _full_recompute_sampler(*args, np.random.default_rng(seed))
    lengths = [len(g.tokens) for g in got]
    stopped = [g.tokens[-1] == tasks.EOS for g in got if g.tokens]
    if case == "eos":  # some rows stop at EOS while others decode on
        assert any(stopped) and max(lengths) > min(lengths)
    if case == "context":  # the context fills before max_len
        assert max(lengths) == small_model.config.context_len - len(prompt) < 20
    for g, w in zip(got, want):
        assert g.tokens == w.tokens
        assert np.abs(np.subtract(g.logprobs, w.logprobs)).max(initial=0.0) <= 1e-12
        assert np.abs(np.subtract(g.entropies, w.entropies)).max(initial=0.0) <= 1e-12


def _lockstep_sampler(params, prompt_tokens, n, temperature, max_len, rng):
    """The sampler before prefill sharing and row compaction: n prompt rows are
    prefilled, and every row is fed at every step until the last one stops."""
    import eksft.numerics as nk

    prompt = np.asarray(list(prompt_tokens), dtype=np.int64)
    cfg = params.config
    ids = np.tile(prompt, (n, 1))
    past: list = []
    out = [ev.SampledSequence([], [], []) for _ in range(n)]
    active = np.ones(n, dtype=bool)
    for step in range(max_len):
        if prompt.size + step >= cfg.context_len or not active.any():
            break
        logits, _ = mdl.forward(params, ids, want_cache=False, past=past)
        lp = nk.log_softmax(logits[:, -1, :] / temperature)
        cdf = np.cumsum(np.exp(lp), axis=-1)
        u = rng.random(n)
        nxt = np.minimum((cdf < u[:, None]).sum(axis=-1), cfg.vocab_size - 1)
        ent = nk.entropy(lp)
        for i in range(n):
            if active[i]:
                token = int(nxt[i])
                out[i].tokens.append(token)
                out[i].logprobs.append(float(lp[i, token]))
                out[i].entropies.append(float(ent[i]))
                if token == tasks.EOS:
                    active[i] = False
        ids = nxt[:, None]
    return out


# (d_model, n_layers, n_heads, context_len, EOS logit offset): a small model
# and deskbench's model shape
@pytest.mark.parametrize("shape", [(16, 1, 2, 32, 3.0), (64, 2, 2, 64, 4.0)])
@pytest.mark.parametrize("case", ["eos", "context", "n1"])
def test_sample_group_matches_lockstep(shape, case):
    d_model, n_layers, n_heads, context_len, eos_offset = shape
    params = mdl.init(mdl.ModelConfig(vocab_size=32, d_model=d_model, n_layers=n_layers,
                                      n_heads=n_heads, context_len=context_len, seed=4))
    rng = np.random.default_rng(9)
    for name in params.tensors:
        params.tensors[name] += rng.normal(0.0, 0.1, params.tensors[name].shape)
    if case in ("eos", "n1"):  # a constant EOS offset, so that rows stop at step 0 and later
        params.tensors["lnf.g"][0] = 0.0
        params.tensors["lnf.b"][0] = 1.0
        params.tensors["head.w"][0, tasks.EOS] = eos_offset
    text = "9" * (context_len - 12) if case == "context" else "1+2="
    prompt = [tasks.BOS] + tasks.VOCAB.tokenize(text)
    n = 1 if case == "n1" else 32
    args = (params, prompt, n, 0.9, 20)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = ev.sample_group(*args, got_rng)
    want = _lockstep_sampler(*args, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    lengths = [len(g.tokens) for g in got]
    if case == "eos":
        stops = [len(g.tokens) for g in got if g.tokens[-1] == tasks.EOS]
        assert 1 in stops and max(stops) > 1
    if case == "context":  # the context fills before max_len
        assert max(lengths) == context_len - len(prompt) < 20
    for g, w in zip(got, want, strict=True):
        assert g.tokens == w.tokens
        assert np.array_equal(g.logprobs, w.logprobs)
        assert np.array_equal(g.entropies, w.entropies)


def _peaked_model():
    """deskbench's model shape with a sharpened head and a constant EOS offset:
    many rows repeat another row's history, and rows stop at different steps."""
    params = mdl.init(mdl.ModelConfig(vocab_size=32, d_model=64, n_layers=2, n_heads=2,
                                      context_len=64, seed=4))
    rng = np.random.default_rng(9)
    for name in params.tensors:
        params.tensors[name] += rng.normal(0.0, 0.1, params.tensors[name].shape)
    params.tensors["head.w"] *= 3.0
    params.tensors["lnf.g"][0] = 0.0
    params.tensors["lnf.b"][0] = 1.0
    params.tensors["head.w"][0, tasks.EOS] = 8.0
    return params


@pytest.mark.parametrize("n", [32, 128])
def test_sample_group_matches_lockstep_on_shared_prefixes(monkeypatch, n):
    """Rows that share a history share its cache row and its log-probs, and
    still get the tokens, log-probs, entropies and RNG stream of the lockstep
    sampler, which feeds every row at every step."""
    params = _peaked_model()
    prompt = [tasks.BOS] + tasks.VOCAB.tokenize("1+2=")
    args = (params, prompt, n, 0.9, 20)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    rows_fed = []
    forward = mdl.forward

    def recorded(params, token_ids, *a, **k):
        rows_fed.append(np.shape(token_ids)[0])
        return forward(params, token_ids, *a, **k)

    monkeypatch.setattr(mdl, "forward", recorded)
    got = ev.sample_group(*args, got_rng)
    monkeypatch.setattr(mdl, "forward", forward)
    want = _lockstep_sampler(*args, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for g, w in zip(got, want, strict=True):
        assert g.tokens == w.tokens
        assert np.array_equal(g.logprobs, w.logprobs)
        assert np.array_equal(g.entropies, w.entropies)
    lengths = [len(g.tokens) for g in got]
    live = [sum(m > step for m in lengths) for step in range(1, max(lengths))]
    # the distinct histories that the rows still sampling at each step continue
    shared = [len({tuple(g.tokens[:step]) for g in got if len(g.tokens) > step})
              for step in range(1, max(lengths))]
    assert rows_fed == [1] + shared
    assert any(h < rows for h, rows in zip(shared, live))  # some rows really shared
    assert min(lengths) == 1 and max(lengths) == 20  # rows stop at step 0, later, and not at all


def test_a_record_does_not_change_sampling():
    """With a record, each forward also returns its cache and the sampler packs
    it; the tokens, log-probs, entropies and RNG stream are those of a run
    without one. The record holds one (packed, at) pair per forward: the new
    positions, and each row's history or -1 once it has stopped."""
    params = _peaked_model()
    prompt = [tasks.BOS] + tasks.VOCAB.tokenize("1+2=")
    args = (params, prompt, 32, 0.9, 20)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    record: list = []
    got = ev.sample_group(*args, got_rng, record)
    want = ev.sample_group(*args, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for g, w in zip(got, want, strict=True):
        assert g.tokens == w.tokens
        assert np.array_equal(g.logprobs, w.logprobs)
        assert np.array_equal(g.entropies, w.entropies)
    lengths = np.array([len(g.tokens) for g in got])
    assert len(record) == lengths.max()
    assert record[0][0].shape[:2] == (1, len(prompt)) and not record[0][1].any()
    shared = False
    for step, (packed, at) in enumerate(record[1:], start=1):
        assert packed.shape[1] == 1
        assert np.array_equal(at >= 0, lengths > step)  # a row is recorded while it samples
        assert sorted(set(at[at >= 0])) == list(range(packed.shape[0]))
        shared |= packed.shape[0] < np.count_nonzero(at >= 0)
    assert shared


def test_evaluate_makes_every_forward_without_a_cache(small_model, monkeypatch):
    """evaluate passes no record, so no forward keeps its activations."""
    flags = []
    forward = mdl.forward

    def recorded(params, token_ids, want_cache=True, past=None):
        flags.append(want_cache)
        return forward(params, token_ids, want_cache, past)

    monkeypatch.setattr(mdl, "forward", recorded)
    samples = tasks.generate_splits(
        tasks.TaskSpec(n_pretrain=0, n_sft=0, n_rl=0, n_eval=2, seed=3))["eval"]
    ev.evaluate(small_model, samples, 4, [1, 4], 1.0, seed=0, max_len=6)
    assert flags and not any(flags)


def test_sample_rejects_bad_temperature(small_model):
    with pytest.raises(ConfigError):
        ev.sample_group(small_model, [1], 1, 0.0, 4, np.random.default_rng(0))


def test_sampler_matches_softmax_frequencies(small_model):
    # multinomial oracle on the first sampled token over 1e5 draws
    import eksft.numerics as nk

    prompt = [tasks.BOS] + tasks.VOCAB.tokenize("3+3=")
    logits, _ = mdl.forward(small_model, np.array([prompt]), want_cache=False)
    p = np.exp(nk.log_softmax(logits[0, -1]))
    n = 100_000
    group = ev.sample_group(small_model, prompt, n, 1.0, 1, np.random.default_rng(7))
    first = np.array([g.tokens[0] for g in group])
    counts = np.bincount(first, minlength=len(p))
    sd = np.sqrt(np.maximum(p * (1 - p), 1e-12) * n)
    z = np.abs(counts - n * p) / np.maximum(sd, 1e-9)
    assert z.max() <= 4.0


def test_pass_at_k_trivial_cases():
    assert ev.pass_at_k(4, 4, 1) == 1.0
    assert ev.pass_at_k(10, 0, 3) == 0.0
    assert ev.pass_at_k(4, 1, 2) == 0.5


def test_pass_at_k_rejects_bad_k():
    with pytest.raises(InputError):
        ev.pass_at_k(4, 1, 5)
    with pytest.raises(InputError):
        ev.pass_at_k(4, 5, 2)


def _pass_at_k_enumeration(n, c, k):
    """Exhaustive oracle: fraction of k-subsets containing >= 1 of c correct."""
    hits = 0
    total = 0
    for subset in itertools.combinations(range(n), k):
        total += 1
        if any(i < c for i in subset):
            hits += 1
    return hits / total


def test_pass_at_k_matches_enumeration_small_n():
    for n in range(1, 9):
        for c in range(n + 1):
            for k in range(1, n + 1):
                assert ev.pass_at_k(n, c, k) == pytest.approx(
                    _pass_at_k_enumeration(n, c, k), abs=1e-12
                )


def test_pass_at_k_monotone_in_k():
    for n, c in ((32, 3), (32, 16), (10, 1)):
        vals = [ev.pass_at_k(n, c, k) for k in range(1, n + 1)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(c / n, abs=1e-15)


def test_pass_at_k_large_n_no_overflow():
    v = ev.pass_at_k(4000, 7, 100)
    assert 0.0 < v < 1.0


def test_evaluate_all_correct(small_model):
    # model that always emits "#<answer>" is impossible to rig simply, so rig
    # the verifier instead: all samples correct => pass@k == 1 for every k
    samples = [tasks.make_sample("1+1=", "2#2", "2")]
    report = ev.EvalReport(
        n_per_prompt=8, temperature=1.0, seed=0, ks=[1, 2, 4],
        per_prompt=[(8, 8)], pass_at={k: 1.0 for k in (1, 2, 4)},
        avg_at_n=1.0, mean_response_entropy=0.0,
    )
    assert all(report.pass_at[k] == 1.0 for k in report.ks)


def test_evaluate_end_to_end_monotone(small_model):
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=0, n_rl=0, n_eval=6, seed=5)
    eval_set = tasks.generate_splits(spec)["eval"]
    report = ev.evaluate(small_model, eval_set, n_per_prompt=8, ks=(1, 2, 4, 8),
                         temperature=1.0, seed=3, max_len=12)
    vals = [report.pass_at[k] for k in report.ks]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert report.avg_at_n == pytest.approx(
        float(np.mean([c / n for n, c in report.per_prompt])), abs=1e-15
    )
    assert report.avg_at_n == pytest.approx(report.pass_at[1], abs=1e-12)


def test_evaluate_input_validation(small_model):
    with pytest.raises(InputError):
        ev.evaluate(small_model, [], 8, (1,), 1.0, 0)
    s = tasks.make_sample("1+1=", "2#2", "2")
    with pytest.raises(InputError):
        ev.evaluate(small_model, [s], 4, (8,), 1.0, 0)


def test_aggregate_pass_at_k_matches_monte_carlo(small_model):
    rng = np.random.default_rng(11)
    n, trials = 32, 200_000
    for c in (1, 8, 16):
        for k in (1, 8, 32):
            exact = ev.pass_at_k(n, c, k)
            order = np.argsort(rng.random((trials, n)), axis=1)[:, :k]
            hits = (order < c).any(axis=1).mean()
            sd = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(hits - exact) <= max(4 * sd, 1e-3)


def test_mean_response_entropy_near_zero_for_deterministic_model(small_model):
    params = _force_constant_logits(small_model.copy(), 5, scale=80.0)
    prompts = [tasks.make_sample("1+1=", "2#2", "2")]
    h = ev.evaluate(params, prompts, 4, (1,), temperature=1.0, seed=0,
                    max_len=8).mean_response_entropy
    assert h <= 1e-6


def test_mean_response_entropy_near_log_v_for_fresh_model(small_model):
    prompts = [tasks.make_sample("1+1=", "2#2", "2")]
    h = ev.evaluate(small_model, prompts, 8, (1,), temperature=1.0, seed=0,
                    max_len=8).mean_response_entropy
    assert h >= 0.8 * math.log(32)


def test_mean_response_entropy_stable_across_seeds(small_model):
    prompts = [tasks.make_sample("1+1=", "2#2", "2"), tasks.make_sample("2+2=", "4#4", "4")]
    h1 = ev.evaluate(small_model, prompts, 256, (1,), temperature=1.0, seed=1,
                     max_len=8).mean_response_entropy
    h2 = ev.evaluate(small_model, prompts, 256, (1,), temperature=1.0, seed=2,
                     max_len=8).mean_response_entropy
    assert abs(h1 - h2) / max(h1, h2) <= 0.05


def test_write_eval_report(tmp_path, small_model):
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=0, n_rl=0, n_eval=3, seed=6)
    eval_set = tasks.generate_splits(spec)["eval"]
    report = ev.evaluate(small_model, eval_set, 4, (1, 4), 1.0, 0, max_len=8)
    json_path, csv_path = ev.write_eval_report(report, tmp_path, label="ckpt0")
    assert json_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "checkpoint,k,pass_at_k"
    assert len(lines) == 3
