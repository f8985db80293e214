"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 7 and 8 train
real (desk-scale) pipelines across three seeds and take a few minutes each;
everything else finishes in seconds. Tolerances are pinned here, not
configurable.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from eksft import analyze as ana
from eksft import evaluation as ev
from eksft import model as mdl
from eksft import objective as obj
from eksft import selection as sel
from eksft import tasks
from eksft import train as tr
from eksft.cli import main as cli_main
from eksft.selection import TokenRef, TokenStats

from conftest import ce_grad_sq_norm, model_fd_worst, pinned_objective, single_step


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {name} {detail}"


# -----------------------------------------------------------------------------
# shared builders
# -----------------------------------------------------------------------------

GRAD_MODEL = dict(vocab_size=11, d_model=16, n_layers=2, n_heads=2, context_len=8)


def _conditioned(cfg: mdl.ModelConfig) -> mdl.ParameterSet:
    # x10 on matrices: layer-norm curvature at raw init scale makes the FD
    # oracle's own truncation exceed the tolerance being verified
    params = mdl.init(cfg)
    for name in params.tensors:
        if params.tensors[name].ndim == 2:
            params.tensors[name] *= 10.0
    return params


def _rand_batch(rng, cfg):
    ids = rng.integers(0, cfg.vocab_size, size=(2, 6))
    ids[:, 0] = 1
    targets = rng.integers(0, cfg.vocab_size, size=(2, 6))
    valid = rng.random((2, 6)) < 0.8
    valid[:, 1] = True
    return ids, targets, valid


def test_c01_gradient_fidelity():
    """Analytic vs central-FD gradients for all five objectives, 20 seeds."""
    t0 = time.time()
    worst = {m: 0.0 for m in obj.METHODS}
    for seed in range(20):
        cfg = mdl.ModelConfig(seed=seed, **GRAD_MODEL)
        params = _conditioned(cfg)
        rng = np.random.default_rng([seed, 77])
        ids, targets, valid = _rand_batch(rng, cfg)
        ref_params = params.copy()
        for name in ref_params.tensors:
            ref_params.tensors[name] = ref_params.tensors[name] + rng.normal(
                0, 0.02, ref_params.tensors[name].shape
            )
        ref_logits = mdl.forward(ref_params, ids, want_cache=False)[0]
        logits0 = mdl.forward(params, ids, want_cache=False)[0]

        for kind in obj.METHODS:
            # the training core, with masks and DFT weights pinned at logits0
            loss = pinned_objective(kind, logits0, ref_logits, targets, valid, rho=0.2,
                                    drop_fraction=0.10, rng=np.random.default_rng([seed, 88]))
            worst[kind] = max(worst[kind],
                              model_fd_worst(params, ids, loss, 50, [seed, 99], h=1e-4))
    elapsed = time.time() - t0
    detail = " ".join(f"{m}={worst[m]:.2e}" for m in obj.METHODS) + f" in {elapsed:.0f}s"
    _report(1, "gradient fidelity", max(worst.values()) <= 1e-5 and elapsed < 60, detail)


def test_c02_reduction_identity():
    """eksft(rho=0, lambdas=0) == sft per batch (<=1e-12) and in training."""
    rng = np.random.default_rng(0)
    max_dev = 0.0
    for _ in range(50):
        logits = rng.normal(0, 2, size=(2, 6, 9))
        ref = rng.normal(0, 2, size=(2, 6, 9))
        targets = rng.integers(0, 9, size=(2, 6))
        valid = rng.random((2, 6)) < 0.8
        valid[:, 0] = True
        sft_val, sft_d = single_step(obj.objective_terms("sft", logits, ref, targets, valid))
        total, d = single_step(obj.objective_terms("eksft", logits, ref, targets, valid,
                                                    rho=0.0, lambda_h=0.0, lambda_kl=0.0))
        max_dev = max(max_dev, abs(total - sft_val))
        assert np.array_equal(d, sft_d)

    spec = tasks.TaskSpec(n_pretrain=0, n_sft=8, n_rl=0, n_eval=0, seed=3)
    dataset = tasks.generate_splits(spec)["sft"]
    finals = {}
    losses = {}
    for method in ("sft", "eksft"):
        cfg = mdl.ModelConfig(vocab_size=32, d_model=32, n_layers=2, n_heads=2,
                              context_len=48, seed=9)
        params = mdl.init(cfg)
        reference = mdl.snapshot_reference(params)
        config = tr.SftConfig(method=method, learning_rate=3e-3, epochs=3, grad_accum=2,
                              batch_size=2, rho=0.0, lambda_h=0.0, lambda_kl=0.0, seed=4)
        params, records = tr.train_sft(params, reference, dataset, config)
        finals[method] = params
        losses[method] = [r.loss_total for r in records]
    bit_identical = all(
        np.array_equal(finals["sft"].tensors[n], finals["eksft"].tensors[n])
        for n in finals["sft"].tensors
    ) and losses["sft"] == losses["eksft"]
    _report(2, "reduction identity", max_dev <= 1e-12 and bit_identical,
            f"max batch deviation {max_dev:.2e}, trajectories bit-identical={bit_identical}")


def test_c03_label_free_masked_gradient():
    """Permuting labels inside the mask leaves parameter gradients bit-identical."""
    cfg = mdl.ModelConfig(seed=1, **GRAD_MODEL)
    checked = 0
    for trial in range(12):
        params = _conditioned(mdl.ModelConfig(seed=trial, **GRAD_MODEL))
        rng = np.random.default_rng([trial, 5])
        ids, targets, valid = _rand_batch(rng, cfg)
        ref_logits = mdl.forward(_conditioned(mdl.ModelConfig(seed=trial + 50, **GRAD_MODEL)),
                                 ids, want_cache=False)[0]
        logits, cache = mdl.forward(params, ids)
        kw = dict(rho=0.3, lambda_h=0.05, lambda_kl=0.05)
        t1 = obj.objective_terms("eksft", logits, ref_logits, targets, valid, **kw)
        if not t1.mask.m_union.any():
            continue
        g1 = mdl.backward(params, cache, single_step(t1)[1])
        masked = np.zeros_like(valid)
        masked[valid] = t1.mask.m_union
        permuted = targets.copy()
        permuted[masked] = rng.integers(0, cfg.vocab_size, size=int(masked.sum()))
        t2 = obj.objective_terms("eksft", logits, ref_logits, permuted, valid, **kw)
        assert np.array_equal(t1.mask.m_union, t2.mask.m_union)
        g2 = mdl.backward(params, cache, single_step(t2)[1])
        assert all(np.array_equal(g1[n], g2[n]) for n in g1)
        checked += 1
    _report(3, "label-free masked gradient", checked >= 10, f"{checked} batches checked exactly")


def test_c04_ce_gradient_norm_bounds():
    """||p - e_y||^2 bound, near-uniform value, and high-confidence value."""
    rng = np.random.default_rng(7)
    v = 11
    n = 100_000
    gam = rng.gamma(shape=rng.uniform(0.1, 3.0, size=(n, 1)), scale=1.0, size=(n, v))
    p = gam / gam.sum(axis=1, keepdims=True)
    y = rng.integers(0, v, size=n)
    py = p[np.arange(n), y]
    sq = (p * p).sum(axis=1) + 1.0 - 2.0 * py
    violations = int((sq > 2.0 * (1.0 - py) + 1e-12).sum())

    u = np.full(v, 1.0 / v)
    jitter = rng.uniform(-1e-6, 1e-6, size=v)
    jitter -= jitter.mean()
    near_u = u + jitter
    near_u_ok = abs(ce_grad_sq_norm(near_u, 3) - (1.0 - 1.0 / v)) <= 1e-4

    conf_ok = True
    for eps in (1e-2, 1e-3):
        row = np.zeros(v)
        row[0] = 1.0 - eps
        row[1] = eps  # residual mass on a single competitor
        conf_ok &= abs(ce_grad_sq_norm(row, 0) - 2.0 * eps**2) <= 10.0 * eps**3
    _report(4, "ce gradient norm bounds", violations == 0 and near_u_ok and conf_ok,
            f"{violations} bound violations over {n} draws")


def test_c05_selection_matches_oracle():
    """build_mask vs an independent sort-and-union oracle on 1000 batches."""
    rng = np.random.default_rng(11)
    checked = 0
    for case in range(1000):
        n = int(rng.integers(1, 80))
        b = int(rng.integers(1, 5))
        per_seq = -(-n // b)
        all_refs = [TokenRef(s, t) for s in range(b) for t in range(per_seq)]
        chosen = rng.permutation(len(all_refs))[:n]
        stats = []
        for idx in chosen:
            h, kl = rng.random(), rng.random()
            if case % 3 == 0:  # engineered ties
                h, kl = round(h * 4) / 4.0, round(kl * 4) / 4.0
            stats.append(TokenStats(all_refs[idx], h, kl))
        rho = float(rng.choice([0.0, 0.1, 0.2, 0.25, 0.5, 0.9, 1.0]))
        mask = sel.build_mask(stats, rho)
        k = 0 if rho == 0 else math.ceil(rho * n)

        def oracle(key):
            ordered = sorted(((key(s), s.ref) for s in stats), key=lambda t: (-t[0], t[1]))
            return frozenset(ref for _, ref in ordered[:k])

        def chosen(selected):
            return frozenset(s.ref for s, x in zip(stats, selected) if x)

        mh, mkl = oracle(lambda s: s.entropy), oracle(lambda s: s.kl)
        assert chosen(mask.m_entropy) == mh and chosen(mask.m_kl) == mkl
        assert chosen(mask.m_union) == mh | mkl
        assert int(mask.m_entropy.sum()) == int(mask.m_kl.sum()) == k == mask.k
        checked += 1
    _report(5, "selection matches oracle", checked == 1000, f"{checked} batches incl. tie cases")


def test_c06_pass_at_k_estimator():
    """Closed form == exhaustive enumeration (n<=12); Monte Carlo within 3 sigma."""
    for n in range(1, 13):
        for c in range(n + 1):
            for k in range(1, n + 1):
                total = hits = 0
                for subset in itertools.combinations(range(n), k):
                    total += 1
                    hits += any(i < c for i in subset)
                assert ev.pass_at_k(n, c, k) == pytest.approx(hits / total, abs=1e-12)

    rng = np.random.default_rng(13)
    n, trials = 32, 1_000_000
    mc_ok = True
    details = []
    for c in (1, 8, 16):
        for k in (1, 8, 32):
            exact = ev.pass_at_k(n, c, k)
            hits = 0
            for _ in range(4):
                chunk = trials // 4
                order = np.argsort(rng.random((chunk, n)), axis=1)[:, :k]
                hits += int((order < c).any(axis=1).sum())
            est = hits / trials
            sigma = math.sqrt(max(exact * (1.0 - exact), 1e-12) / trials)
            ok = abs(est - exact) <= max(3.0 * sigma, 1e-9)
            mc_ok &= ok
            details.append(f"c={c},k={k}:{abs(est - exact):.1e}")
    _report(6, "pass@k estimator", mc_ok, "; ".join(details[:3]) + " ...")


# -----------------------------------------------------------------------------
# desk-scale training pipeline shared by criteria 7 and 8
# -----------------------------------------------------------------------------

SEEDS = (0, 1, 2)


@dataclass
class SeedRun:
    base: mdl.ParameterSet
    ckpts: dict  # method -> trained ParameterSet
    reports: dict  # method -> EvalReport
    drift: dict  # method -> fraction exceeding 1e-3
    rl_prompts: list


def _stage1(seed: int) -> SeedRun:
    spec = tasks.TaskSpec(family="mod_add_chain", seed=100 + seed,
                          n_pretrain=512, n_sft=64, n_rl=256, n_eval=48)
    splits = tasks.generate_splits(spec)
    cfg = mdl.ModelConfig(vocab_size=32, d_model=64, n_layers=2, n_heads=2,
                          context_len=64, seed=seed)
    base = mdl.init(cfg)
    pre_cfg = tr.SftConfig(method="sft", learning_rate=3e-3, epochs=12, grad_accum=1,
                           batch_size=16, seed=seed, supervise_prompt=True)
    base, _ = tr.train_sft(base, mdl.snapshot_reference(base), splits["pretrain"], pre_cfg)

    ckpts, reports, drift = {}, {}, {}
    for method, kw in (
        ("sft", dict(rho=0.0, lambda_h=0.0, lambda_kl=0.0)),
        ("eksft", dict(rho=0.2, lambda_h=0.05, lambda_kl=0.05)),
    ):
        params = base.copy()
        reference = mdl.snapshot_reference(base)
        cfg_t = tr.SftConfig(method=method, learning_rate=5e-4, epochs=96, grad_accum=1,
                             batch_size=8, seed=seed, **kw)
        params, _ = tr.train_sft(params, reference, splits["sft"], cfg_t)
        ckpts[method] = params
        reports[method] = ev.evaluate(params, splits["eval"], 32, (1, 32), 1.0,
                                      seed=9, max_len=24)
        drift[method] = ana.parameter_drift(base, params).global_frac_exceeding[1e-3]
    return SeedRun(base, ckpts, reports, drift, splits["rl_prompts"])


@pytest.fixture(scope="module")
def stage1_runs():
    return {seed: _stage1(seed) for seed in SEEDS}


def test_c07_sft_vs_eksft_desk_run(stage1_runs):
    """Across seeds: EKSFT keeps entropy, drifts no more, holds pass@32."""
    passes = 0
    details = []
    for seed in SEEDS:
        run = stage1_runs[seed]
        s, e = run.reports["sft"], run.reports["eksft"]
        a = e.mean_response_entropy >= s.mean_response_entropy
        b = run.drift["eksft"] <= run.drift["sft"]
        c = e.pass_at[32] >= s.pass_at[32] - 0.02
        passes += a and b and c
        details.append(
            f"seed{seed}[H {e.mean_response_entropy:.2f}vs{s.mean_response_entropy:.2f} "
            f"dr {run.drift['eksft']:.4f}vs{run.drift['sft']:.4f} "
            f"p32 {e.pass_at[32]:.2f}vs{s.pass_at[32]:.2f}]"
        )
    ok = passes > len(SEEDS) / 2
    _report(7, "stage-1 desk comparison", ok,
            f"{passes}/{len(SEEDS)} seeds; " + " ".join(details))


def test_c08_rl_from_sft_vs_eksft(stage1_runs):
    """100 RL steps from each stage-1 checkpoint; EKSFT init wins on most seeds.

    RL prompts are drawn one chain-length harder than the demos, where sharp
    imitation yields almost no reward variance inside rollout groups and
    exploration is the binding constraint. Final reward = mean over the last
    10 steps.
    """
    wins = 0
    details = []
    for seed in SEEDS:
        run = stage1_runs[seed]
        hard_prompts = tasks.generate_splits(tasks.TaskSpec(
            family="mod_add_chain", seed=900 + seed, chain_len_min=4, chain_len_max=4,
            n_pretrain=0, n_sft=0, n_rl=256, n_eval=0,
        ))["rl_prompts"]
        finals = {}
        for method in ("sft", "eksft"):
            params = run.ckpts[method].copy()
            rl_cfg = tr.RlConfig(learning_rate=1e-4, total_steps=100, rollout_group_size=16,
                                 prompts_per_step=4, max_gen_len=28, seed=seed)
            _, recs = tr.train_rl(params, hard_prompts, tasks.verify, rl_cfg)
            finals[method] = float(np.mean([r.mean_reward for r in recs[-10:]]))
        wins += finals["eksft"] >= finals["sft"]
        details.append(f"seed{seed}[{finals['eksft']:.3f}vs{finals['sft']:.3f}]")
    ok = wins >= 2  # at least 2 of 3 seeds
    _report(8, "rl from stage-1 inits", ok, f"{wins}/{len(SEEDS)} seeds; " + " ".join(details))


def test_c09_iou_instrumentation(tmp_path):
    """IoU logged per step, in [0,1], equal to the set oracle; summary + reference row."""
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=16, n_rl=0, n_eval=0, seed=21)
    dataset = tasks.generate_splits(spec)["sft"]
    cfg = mdl.ModelConfig(vocab_size=32, d_model=32, n_layers=2, n_heads=2, context_len=48, seed=2)
    params = mdl.init(cfg)
    reference = mdl.snapshot_reference(params)
    config = tr.SftConfig(method="eksft", learning_rate=1e-3, epochs=3, grad_accum=2,
                          batch_size=2, rho=0.2, lambda_h=0.05, lambda_kl=0.05, seed=5)
    _, records = tr.train_sft(params, reference, dataset, config, run_dir=tmp_path)

    series, summary = ana.iou_series(tmp_path / "mask_dump.jsonl")
    assert len(series) == len(records)  # every step logged
    assert all(0.0 <= v <= 1.0 for _, v in series)

    # independent set oracle straight from the dump lines
    by_step = {}
    for line in (tmp_path / "mask_dump.jsonl").read_text().splitlines():
        row = json.loads(line)
        mh, mkl = by_step.setdefault(row["step"], (set(), set()))
        if row["in_mH"]:
            mh.add((row["seq"], row["pos"]))
        if row["in_mKL"]:
            mkl.add((row["seq"], row["pos"]))
    oracle = {
        step: (1.0 if not (mh | mkl) else len(mh & mkl) / len(mh | mkl))
        for step, (mh, mkl) in by_step.items()
    }
    exact = all(oracle[step] == v for step, v in series)

    # per-step metrics column must agree with the dump-derived series
    per_step = {r.step: r.mask_iou for r in records}
    metrics_match = all(per_step[step] == v for step, v in series)

    ref = summary["reference_large_scale"]
    ref_ok = (ref["min"], ref["max"], ref["mean"]) == (0.09, 0.59, 0.50)
    has_stats = all(summary[k] is not None for k in ("min", "max", "mean"))
    _report(9, "iou instrumentation", exact and metrics_match and ref_ok and has_stats,
            f"{len(series)} steps, mean IoU {summary['mean']:.3f} "
            f"(reference row {ref['min']}/{ref['mean']}/{ref['max']})")


def test_c10_random_mask_baseline(tmp_path):
    """drop=0.10 masks exactly ceil(0.10|T|) each micro-batch; comparison CSV emitted."""
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=16, n_rl=0, n_eval=8, seed=31)
    splits = tasks.generate_splits(spec)
    cfg = mdl.ModelConfig(vocab_size=32, d_model=32, n_layers=2, n_heads=2, context_len=48, seed=3)

    run_reports = {}
    for method, kw in (
        ("eksft", dict(rho=0.2, lambda_h=0.05, lambda_kl=0.05)),
        ("random_mask", dict(drop_fraction=0.10, lambda_h=0.05, lambda_kl=0.05)),
    ):
        params = mdl.init(cfg)
        reference = mdl.snapshot_reference(params)
        config = tr.SftConfig(method=method, learning_rate=1e-3, epochs=3, grad_accum=1,
                              batch_size=4, seed=6, **kw)
        params, _ = tr.train_sft(params, reference, splits["sft"], config,
                                 run_dir=tmp_path / method)
        run_reports[method] = ev.evaluate(params, splits["eval"], 8, (1, 4, 8), 1.0,
                                          seed=2, max_len=16)

    sizes_ok = True
    groups = {}
    for line in (tmp_path / "random_mask" / "mask_dump.jsonl").read_text().splitlines():
        row = json.loads(line)
        groups.setdefault((row["step"], row["seq"] // 4), []).append(row)
    for rows in groups.values():
        k = math.ceil(0.10 * len(rows))
        sizes_ok &= sum(r["in_mH"] for r in rows) == k
        sizes_ok &= sum(r["in_mKL"] for r in rows) == k

    csv_path = tmp_path / "eksft_vs_random_mask.csv"
    lines = ["method,k,pass_at_k"]
    for method, report in run_reports.items():
        for k in report.ks:
            lines.append(f"{method},{k},{report.pass_at[k]!r}")
    csv_path.write_text("\n".join(lines) + "\n")
    emitted = csv_path.exists() and len(csv_path.read_text().splitlines()) == 7
    _report(10, "random-mask baseline", sizes_ok and emitted,
            f"{len(groups)} micro-batches size-checked; comparison CSV at {csv_path.name}")


def test_c11_pipeline_determinism(tmp_path):
    """The same pipeline at the same paths, run twice -> byte-identical files."""
    root = tmp_path / "run"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"family": "mod_add_chain", "seed": 77,
         "n_pretrain": 16, "n_sft": 8, "n_rl": 8, "n_eval": 4}
    ))
    model_flags = ["--vocab-size", "32", "--d-model", "16", "--n-layers", "1",
                   "--n-heads", "2", "--context-len", "48"]

    def pipeline():
        data = root / "data"
        assert cli_main(["gen-data", "--spec", str(spec_path), "--out", str(data)]) == 0
        assert cli_main([
            "pretrain", "--data", str(data / "pretrain.jsonl"), "--out", str(root / "base"),
            "--epochs", "2", "--batch-size", "4", "--grad-accum", "1", "--lr", "3e-3",
            "--seed", "1", *model_flags,
        ]) == 0
        assert cli_main([
            "train-sft", "--method", "eksft", "--data", str(data / "sft.jsonl"),
            "--init", str(root / "base/checkpoints/final"), "--out", str(root / "sft"),
            "--epochs", "2", "--batch-size", "4", "--grad-accum", "1", "--lr", "1e-3",
            "--seed", "2",
        ]) == 0
        assert cli_main([
            "train-rl", "--init", str(root / "sft/checkpoints/final"),
            "--prompts", str(data / "rl_prompts.jsonl"), "--out", str(root / "rl"),
            "--steps", "3", "--group-size", "4", "--prompts-per-step", "2",
            "--max-gen-len", "8", "--lr", "1e-4", "--seed", "3",
        ]) == 0

    pipeline()
    a = tmp_path / "first"
    root.rename(a)
    pipeline()
    b = root
    compared = []
    for rel in (
        "data/pretrain.jsonl", "data/sft.jsonl", "data/rl_prompts.jsonl", "data/eval.jsonl",
        "base/metrics.csv", "base/checkpoints/final.weights.bin",
        "base/checkpoints/final.manifest.json", "base/manifest.json", "base/config.json",
        "sft/metrics.csv", "sft/mask_dump.jsonl", "sft/checkpoints/final.weights.bin",
        "sft/manifest.json", "rl/metrics.csv", "rl/checkpoints/final.weights.bin",
        "rl/manifest.json",
    ):
        same = (a / rel).read_bytes() == (b / rel).read_bytes()
        compared.append((rel, same))
    ok = all(same for _, same in compared)
    bad = [rel for rel, same in compared if not same]
    _report(11, "pipeline determinism", ok,
            f"{len(compared)} artifacts byte-compared" + (f"; mismatch: {bad}" if bad else ""))
