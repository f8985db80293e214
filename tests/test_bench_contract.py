"""The interface deskbench relies on: the eksft names its tracer wraps, the
positional arguments and token statistics its objective hook reads, the
rows the RL update trains, from which it counts positions and tokens, the
mask dump its sft_eksft file check reads, and the command lines its
workloads run.

deskbench/tracer.py and deskbench/checks.py are loaded from their paths;
nothing is installed, so no eksft function is patched outside the one
monkeypatched call below.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from eksft import cli
from eksft import evaluation as ev
from eksft import model as mdl
from eksft import objective as obj
from eksft import tasks
from eksft import train as tr

DESKBENCH = Path(__file__).resolve().parent.parent / "deskbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"deskbench_{name}", DESKBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _resolve(qual):
    mod, attr = qual.split(".")
    return getattr(importlib.import_module(f"eksft.{mod}"), attr)


def test_tracer_names_resolve():
    tracer = _load("tracer")
    for qual, _ in tracer.WRAPPED:
        assert callable(_resolve(qual)), qual
    for mod, attr, source in tracer.REBOUND:
        assert _resolve(f"{mod}.{attr}") is _resolve(source)
    assert callable(mdl.ReferenceModel.logits)
    assert callable(_resolve("evaluation.sample_group"))


def test_objective_hook_arguments_and_token_stats(monkeypatch, tmp_path):
    checks = _load("checks")
    calls = []
    objective_terms = obj.objective_terms

    def recorded(*args, **kwargs):
        out = objective_terms(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(obj, "objective_terms", recorded)
    dataset = tasks.generate_splits(
        tasks.TaskSpec(n_pretrain=0, n_sft=4, n_rl=0, n_eval=0, seed=2))["sft"]
    params = mdl.init(mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                                      context_len=48, seed=1))
    reference = mdl.snapshot_reference(params)
    # perturb the policy so that its KL to the reference is not zero
    rng = np.random.default_rng(0)
    for name in params.tensors:
        params.tensors[name] += rng.normal(0, 0.05, params.tensors[name].shape)
    config = tr.SftConfig(method="eksft", learning_rate=1e-3, epochs=1,
                          batch_size=4, rho=0.2, seed=3)
    tr.train_sft(params, reference, dataset, config, run_dir=tmp_path)
    assert len(calls) == 1  # one step, one call
    for a, out in calls:
        assert checks.check_token_stats(a[1], a[2], a[4], out.stats) == []
        assert len(out.stats) == int(a[4].sum()) > 0
    # one step's batch, as the sft_eksft workload's file check reads it
    dump = tmp_path / "mask_dump.jsonl"
    assert checks.check_mask_dump(dump, str(config.rho), config.batch_size) == []


def test_sample_group_one_forward_per_step(monkeypatch):
    """deskbench counts row_steps as n x model.forward calls under sample_group and
    positions as the ids those calls get: a (1, prompt_len) prefill, then one
    (distinct live histories, 1) column per step. A history is the prompt plus
    the tokens so far; rows that share one share its cache row, and a row leaves
    once it has emitted EOS."""
    shapes = []
    forward = mdl.forward

    def recorded(params, token_ids, *args, **kwargs):
        shapes.append(np.shape(token_ids))
        return forward(params, token_ids, *args, **kwargs)

    monkeypatch.setattr(mdl, "forward", recorded)
    params = mdl.init(mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                                      context_len=32, seed=1))
    # a peaked head, so that rows share histories, and a constant EOS logit, so
    # that rows stop at step 0, later, and not at all
    params.tensors["head.w"] *= 20.0
    params.tensors["lnf.g"][0] = 0.0
    params.tensors["lnf.b"][0] = 1.0
    params.tensors["head.w"][0, tasks.EOS] = 2.5
    prompt = [tasks.BOS] + tasks.VOCAB.tokenize("12+3=")
    n, max_len = 8, 9
    groups = ev.sample_group(params, prompt, n, 1.0, max_len, np.random.default_rng(0))
    lengths = [len(g.tokens) for g in groups]
    steps = max(lengths)
    assert steps == max_len and min(lengths) == 1
    live = [sum(length > step for length in lengths) for step in range(1, steps)]
    histories = [len({tuple(g.tokens[:step]) for g in groups if len(g.tokens) > step})
                 for step in range(1, steps)]
    assert any(h < rows for h, rows in zip(histories, live))  # feeding per row would fail
    assert shapes == [(1, len(prompt))] + [(h, 1) for h in histories]
    assert sum(rows * length for rows, length in shapes) == len(prompt) + sum(histories)


def test_rl_update_trains_only_the_nonzero_advantage_rows(monkeypatch):
    """deskbench counts model.forward.positions from the forwards' ids,
    model.backward.positions from the backward cache's ids, and
    train.clipped_pg_loss.tokens and .nonzero_adv_tokens from the surrogate's
    arguments. `_rl_update` runs no forward: its one backward reads a cache
    stitched from `sample_group`'s records, whose ids are the rows of
    nonzero advantage, in order, padded to the longest of them. The
    surrogate gets every generated token, with new == old on every one."""
    temperature = 0.7
    params = mdl.init(mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                                      context_len=32, seed=1))
    samples = tasks.generate_splits(
        tasks.TaskSpec(n_pretrain=0, n_sft=0, n_rl=2, n_eval=0, seed=8))["rl_prompts"]
    groups = []
    for j, (s, adv) in enumerate(zip(samples, ([0.7, 0.0, -1.2], [0.0, 0.0, 0.4]))):
        record: list = []
        group = ev.sample_group(params, s.prompt_tokens, 3, temperature, 9,
                                np.random.default_rng(j), record)
        groups.append((s, group, np.array(adv), record))
    rows = [(s, g.tokens, g.logprobs, a) for s, group, adv, _ in groups
            for g, a in zip(group, adv)]
    kept = tr.batchify([(s.prompt_tokens, toks) for s, toks, _, a in rows if a != 0.0])
    every = tr.batchify([(s.prompt_tokens, toks) for s, toks, *_ in rows])
    old = np.concatenate([lps for _, _, lps, _ in rows])
    adv = np.repeat([a for *_, a in rows], [len(toks) for _, toks, *_ in rows])

    forward_ids, backward_ids, pg_args = [], [], []
    backward, pg_loss = mdl.backward, tr.clipped_pg_loss

    def recorded_backward(p, cache, dlogits):
        backward_ids.append(cache["ids"])
        return backward(p, cache, dlogits)

    monkeypatch.setattr(mdl, "forward", lambda p, ids, *a, **k: forward_ids.append(ids))
    monkeypatch.setattr(mdl, "backward", recorded_backward)
    monkeypatch.setattr(tr, "clipped_pg_loss", lambda *a: pg_args.append(a) or pg_loss(*a))
    loss, update_tokens = tr._rl_update(params, tr.adamw_init(params), groups,
                                        tr.RlConfig(temperature=temperature))
    assert forward_ids == []
    assert len(backward_ids) == 1 and np.array_equal(backward_ids[0], kept[0])
    ((new, old_arg, adv_arg, _, _),) = pg_args
    assert new.size == old.size == int(every[2].sum())
    assert np.array_equal(old_arg, old) and np.array_equal(adv_arg, adv)
    assert np.array_equal(new, old)
    assert loss == -adv.sum() / adv.size
    assert update_tokens == int(kept[2].sum()) == int(np.count_nonzero(adv))


@pytest.mark.parametrize("size", ["FULL", "SMOKE"])
def test_workload_argvs_parse_and_resolve_their_config(tmp_path, size):
    """Every command line of deskbench's set-up and rounds parses and resolves
    its config as `cli.main` would, without running, so a CLI change cannot
    break the benchmark unnoticed. The SFT lines pass `--grad-accum 1`."""
    workloads = _load("workloads")
    sizes = getattr(workloads, size)
    argvs = workloads.setup_argvs(tmp_path, 3, sizes) + [
        workloads.round_argv(w, tmp_path, tmp_path / w, 3, sizes) for w in workloads.WORKLOADS]
    assert [a[0] for a in argvs] == ["gen-data", "pretrain", "gen-data", "train-sft",
                                     "train-rl", "eval"]
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        if args.cmd == "eval":
            cli._require_sampling_sizes(args)
            continue
        file_cfg = cli._load_config_file(args.spec if args.cmd == "gen-data" else args.config)
        config = cli._build(*cli.READS[args.cmd], file_cfg, args)
        if args.cmd in ("pretrain", "train-sft"):
            assert args.grad_accum == 1
        if args.cmd == "pretrain":  # a fresh init reads the model sizes too
            cli._build(mdl.ModelConfig, cli._MODEL_SIZES, {"seed": config.seed}, {}, args)
