"""Inputs and subcommands of the three workloads.

Set-up (gen-data, then pretrain of the base) and every timed round go
through `eksft.cli.main`, the program's own entry point, with these argv
lists. All workloads use the mod_add_chain task and the same model shape.

The base checkpoint is the same for every workload seed: its pretrain split
and init come from BASE_SEED. The amount of decode work in eval_passk and
rl_grpo is set by how often the base keeps sampling past the answer; with a
base pretrained per seed it varied by ~40% between seeds, with one fixed
base by a few percent. The workload seed draws the SFT, RL and eval splits
and seeds each timed subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sft_eksft", "rl_grpo", "eval_passk")
BASE_SEED = 1

MODEL_FLAGS = ["--vocab-size", "32", "--d-model", "64", "--n-layers", "2",
               "--n-heads", "2", "--context-len", "64"]

# EKSFT hyper-parameters of the sft_eksft workload (strings, as on the command line).
RHO, LAMBDA_H, LAMBDA_KL, SFT_BATCH = "0.2", "0.05", "0.05", 8


@dataclass(frozen=True)
class Sizes:
    n_pretrain: int
    pretrain_epochs: int
    n_sft: int
    n_rl: int
    n_eval: int
    sft_epochs: int
    rl_steps: int
    rl_group: int
    rl_prompts_per_step: int
    max_gen_len: int
    eval_n: int
    eval_ks: str


FULL = Sizes(n_pretrain=512, pretrain_epochs=4, n_sft=128, n_rl=256, n_eval=48,
             sft_epochs=8, rl_steps=12, rl_group=16, rl_prompts_per_step=4,
             max_gen_len=28, eval_n=32, eval_ks="1,4,8,16,32")

# Tiny sizes that run every code path and every check in seconds.
SMOKE = Sizes(n_pretrain=32, pretrain_epochs=1, n_sft=16, n_rl=8, n_eval=3,
              sft_epochs=1, rl_steps=2, rl_group=4, rl_prompts_per_step=2,
              max_gen_len=8, eval_n=4, eval_ks="1,2,4")


def setup_argvs(work: Path, seed: int, sizes: Sizes) -> list[list[str]]:
    """gen-data for the base, pretrain of the base (plain SFT), gen-data for the workload."""
    base_spec = work / "base_spec.json"
    data_spec = work / "data_spec.json"
    base_spec.write_text(
        f'{{"n_pretrain": {sizes.n_pretrain}, "n_sft": 0, "n_rl": 0, "n_eval": 0}}\n')
    data_spec.write_text(
        f'{{"n_pretrain": 0, "n_sft": {sizes.n_sft}, "n_rl": {sizes.n_rl}, '
        f'"n_eval": {sizes.n_eval}}}\n')
    return [
        ["gen-data", "--spec", str(base_spec), "--out", str(work / "base_data"),
         "--seed", str(BASE_SEED)],
        ["pretrain", "--data", str(work / "base_data" / "pretrain.jsonl"),
         "--out", str(work / "base"), "--epochs", str(sizes.pretrain_epochs),
         "--batch-size", "16", "--grad-accum", "1", "--lr", "5e-3",
         "--seed", str(BASE_SEED), *MODEL_FLAGS],
        ["gen-data", "--spec", str(data_spec), "--out", str(work / "data"), "--seed", str(seed)],
    ]


def base_checkpoint(work: Path) -> Path:
    return work / "base" / "checkpoints" / "final"


def setup_outputs(work: Path) -> list[Path]:
    """Files every set-up must reproduce byte for byte."""
    base = base_checkpoint(work)
    return [
        work / "base_data" / "pretrain.jsonl",
        base.with_suffix(".manifest.json"),
        base.with_suffix(".weights.bin"),
        work / "base" / "metrics.csv",
        *(work / "data" / f"{s}.jsonl" for s in ("sft", "rl_prompts", "eval")),
    ]


def round_argv(workload: str, inputs: Path, out: Path, seed: int, sizes: Sizes) -> list[str]:
    base = str(base_checkpoint(inputs))
    if workload == "sft_eksft":
        return ["train-sft", "--method", "eksft", "--data", str(inputs / "data" / "sft.jsonl"),
                "--init", base, "--out", str(out), "--rho", RHO, "--lambda-h", LAMBDA_H,
                "--lambda-kl", LAMBDA_KL, "--epochs", str(sizes.sft_epochs),
                "--batch-size", str(SFT_BATCH), "--grad-accum", "1", "--lr", "5e-4",
                "--seed", str(seed)]
    if workload == "rl_grpo":
        return ["train-rl", "--init", base, "--prompts", str(inputs / "data" / "rl_prompts.jsonl"),
                "--out", str(out), "--steps", str(sizes.rl_steps),
                "--group-size", str(sizes.rl_group),
                "--prompts-per-step", str(sizes.rl_prompts_per_step),
                "--max-gen-len", str(sizes.max_gen_len), "--lr", "3e-5", "--seed", str(seed)]
    if workload == "eval_passk":
        return ["eval", "--ckpt", base, "--data", str(inputs / "data" / "eval.jsonl"),
                "--n", str(sizes.eval_n), "--ks", sizes.eval_ks, "--temperature", "1.0",
                "--seed", str(seed), "--max-gen-len", str(sizes.max_gen_len),
                "--out", str(out / "reports"), "--label", "eval"]
    raise ValueError(f"unknown workload {workload!r}")


def round_outputs(workload: str, out: Path) -> list[Path]:
    """Files that runs of one seed must reproduce byte for byte."""
    if workload == "eval_passk":
        return [out / "reports" / "eval.json", out / "reports" / "eval.csv"]
    final = out / "checkpoints" / "final"
    files = [out / "metrics.csv", final.with_suffix(".manifest.json"),
             final.with_suffix(".weights.bin")]
    if workload == "sft_eksft":
        files.append(out / "mask_dump.jsonl")
    return files
