"""The interface deskbench relies on: the eksft names its tracer wraps, the
positional arguments and token statistics its objective hook reads, and the
mask dump its sft_eksft file check reads.

deskbench/tracer.py and deskbench/checks.py are loaded from their paths;
nothing is installed, so no eksft function is patched outside the one
monkeypatched call below.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from eksft import evaluation as ev
from eksft import model as mdl
from eksft import objective as obj
from eksft import tasks
from eksft import train as tr

DESKBENCH = Path(__file__).resolve().parent.parent / "deskbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"deskbench_{name}", DESKBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
    config = tr.SftConfig(method="eksft", learning_rate=1e-3, epochs=1, grad_accum=2,
                          batch_size=2, rho=0.2, seed=3)
    tr.train_sft(params, reference, dataset, config, run_dir=tmp_path)
    assert len(calls) == 2
    for a, out in calls:
        assert checks.check_token_stats(a[1], a[2], a[4], out.stats) == []
        assert len(out.stats) == int(a[4].sum()) > 0
    # one step of two micro-batches, as the sft_eksft workload's file check reads them
    dump = tmp_path / "mask_dump.jsonl"
    assert checks.check_mask_dump(dump, str(config.rho), config.batch_size) == []


def test_sample_group_one_forward_per_step(monkeypatch):
    """deskbench counts row_steps as n x model.forward calls under sample_group and
    positions as the ids those calls get: a (1, prompt_len) prefill, then one
    (live rows, 1) column per step, a row leaving once it has emitted EOS."""
    shapes = []
    forward = mdl.forward

    def recorded(params, token_ids, *args, **kwargs):
        shapes.append(np.shape(token_ids))
        return forward(params, token_ids, *args, **kwargs)

    monkeypatch.setattr(mdl, "forward", recorded)
    params = mdl.init(mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                                      context_len=32, seed=1))
    # a constant EOS logit, so that rows stop at step 0, later, and not at all
    params.tensors["lnf.g"][0] = 0.0
    params.tensors["lnf.b"][0] = 1.0
    params.tensors["head.w"][0, tasks.EOS] = 2.5
    prompt = [tasks.BOS] + tasks.VOCAB.tokenize("12+3=")
    n, max_len = 5, 9
    groups = ev.sample_group(params, prompt, n, 1.0, max_len, np.random.default_rng(0))
    lengths = [len(g.tokens) for g in groups]
    steps = max(lengths)
    assert steps == max_len and min(lengths) == 1
    live = [sum(length > step for length in lengths) for step in range(1, steps)]
    assert shapes == [(1, len(prompt))] + [(rows, 1) for rows in live]
    assert sum(rows * length for rows, length in shapes) == (
        len(prompt) + sum(length - 1 for length in lengths))
