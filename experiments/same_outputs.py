"""Run one CLI pipeline on two trees into the same path and list the files that differ.

    python3 experiments/same_outputs.py [--base REV] [--keep DIR]

The "parent" side is the committed files of --base (default HEAD), unpacked
with `git archive` as experiments/bench_pairs.py does; the "change" side is
this working tree. Each side runs, one fresh process per command: gen-data,
pretrain, train-sft for all five methods at --batch-size 8, train-rl, eval,
analyze drift, analyze iou, analyze plots with --eval-csv and --drift-csv,
and analyze sweep at --n 32, 4 and 2 (at 2 the only k is 1, so sweep.csv has
one pass@ column). Then it runs pretrain and train-sft from a --config file
(training and model keys, fresh init), train-sft of random_mask from a
--config file of the method's own fields (drop_fraction, lambda_h,
lambda_kl) from --init, and train-rl and analyze sweep from a --config
file, so every config-backed command, and train-sft's per-method reads, also
run from a file. The files hold only keys that each command, and each
method, reads, so both sides accept them.
Run directories and reports record their input paths, so both sides write
into one path, and each side's outputs are moved aside before the other runs.

Every output file but timings.csv is compared byte for byte, each command's
stdout included. The script lists the files that differ and exits 1 if any
does, 0 if none does. It checks the determinism guarantee of a change that
should not move bits; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, git, unpack

METHODS = ("sft", "eksft", "dft", "random_mask", "global_reg")
SPEC = {"seed": 5, "n_pretrain": 256, "n_sft": 24, "n_rl": 16, "n_eval": 6}
SMALL_MODEL = {"vocab_size": 32, "d_model": 32, "n_layers": 1, "n_heads": 2, "context_len": 48}
CONFIG_FILES = {
    "pretrain.json": {"learning_rate": 3e-3, "epochs": 2, "batch_size": 8,
                      "weight_decay": 0.01, "seed": 4, "model": SMALL_MODEL},
    "train.json": {"method": "eksft", "learning_rate": 2e-3, "epochs": 2, "batch_size": 8,
                   "rho": 0.3, "seed": 3, "model": SMALL_MODEL},
    "rl.json": {"learning_rate": 1e-3, "total_steps": 3, "rollout_group_size": 4,
                "prompts_per_step": 2, "temperature": 0.9,
                "max_gen_len": 12, "weight_decay": 0.01, "seed": 5},
    "random_mask.json": {"method": "random_mask", "learning_rate": 2e-3, "epochs": 2,
                         "batch_size": 8, "drop_fraction": 0.3,
                         "lambda_h": 0.1, "lambda_kl": 0.02, "seed": 7},
    "sweep.json": {"learning_rate": 2e-3, "epochs": 2, "batch_size": 8, "weight_decay": 0.01,
                   "seed": 6, "lambda_h": 0.1, "lambda_kl": 0.02},
}
SWEEP_NS = (32, 4, 2)
MODEL = ["--vocab-size", "32", "--d-model", "32", "--n-layers", "2", "--n-heads", "2",
         "--context-len", "48"]


def pipeline(run: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command, in order; all outputs land under `run`."""
    data, base = run / "data", run / "base" / "checkpoints" / "final"
    sft = ["--epochs", "2", "--batch-size", "8", "--lr", "2e-3", "--seed", "3"]
    cmds = [
        ("gen-data", ["gen-data", "--spec", str(run / "spec.json"), "--out", str(data)]),
        ("pretrain", ["pretrain", "--data", str(data / "pretrain.jsonl"), "--out", str(run / "base"),
                      "--epochs", "8", "--batch-size", "8", "--lr", "3e-3",
                      "--seed", "1", *MODEL]),
    ]
    for method in METHODS:
        cmds.append((f"train-sft_{method}", [
            "train-sft", "--method", method, "--data", str(data / "sft.jsonl"), "--init", str(base),
            "--out", str(run / method), *sft]))
    eksft = run / "eksft" / "checkpoints" / "final"
    cmds += [
        ("train-rl", ["train-rl", "--init", str(eksft), "--prompts", str(data / "rl_prompts.jsonl"),
                      "--out", str(run / "rl"), "--steps", "4", "--group-size", "8",
                      "--prompts-per-step", "4", "--max-gen-len", "12", "--lr", "1e-3",
                      "--seed", "2"]),
        ("eval", ["eval", "--ckpt", str(eksft), "--data", str(data / "eval.jsonl"), "--n", "8",
                  "--ks", "1,2,8", "--max-gen-len", "12", "--out", str(run / "reports"),
                  "--label", "eksft"]),
        ("analyze-drift", ["analyze", "drift", "--before", str(base), "--after", str(eksft),
                           "--out", str(run / "reports")]),
        ("analyze-iou", ["analyze", "iou", "--dump", str(run / "eksft" / "mask_dump.jsonl"),
                         "--out", str(run / "reports")]),
        ("analyze-plots", ["analyze", "plots", "--run", str(run / "eksft"),
                           "--eval-csv", str(run / "reports" / "eksft.csv"),
                           "--drift-csv", str(run / "reports" / "drift.csv")]),
    ]
    for n in SWEEP_NS:
        cmds.append((f"analyze-sweep_n{n}", [
            "analyze", "sweep", "--data", str(data / "sft.jsonl"),
            "--eval-data", str(data / "eval.jsonl"), "--init", str(base),
            "--out", str(run / f"sweep_n{n}"), "--rhos", "0.0,0.2", "--n", str(n),
            "--max-gen-len", "12", *sft]))
    cmds += [
        ("pretrain_config", ["pretrain", "--data", str(data / "pretrain.jsonl"),
                             "--config", str(run / "pretrain.json"),
                             "--out", str(run / "base_config")]),
        ("train-sft_config", ["train-sft", "--data", str(data / "sft.jsonl"),
                              "--config", str(run / "train.json"),
                              "--out", str(run / "config_run")]),
        ("train-sft_config_random_mask", ["train-sft", "--data", str(data / "sft.jsonl"),
                                          "--init", str(base),
                                          "--config", str(run / "random_mask.json"),
                                          "--out", str(run / "config_random_mask")]),
        ("train-rl_config", ["train-rl", "--init", str(eksft),
                             "--prompts", str(data / "rl_prompts.jsonl"),
                             "--config", str(run / "rl.json"), "--out", str(run / "rl_config")]),
        ("analyze-sweep_config", [
            "analyze", "sweep", "--data", str(data / "sft.jsonl"),
            "--eval-data", str(data / "eval.jsonl"), "--init", str(base),
            "--config", str(run / "sweep.json"), "--out", str(run / "sweep_config"),
            "--rhos", "0.1", "--n", "4", "--max-gen-len", "12"]),
    ]
    return cmds


def run_side(tree: Path, run: Path) -> None:
    """Run the pipeline with `tree`'s sources; each command's stdout goes to run/stdout/."""
    shutil.rmtree(run, ignore_errors=True)
    (run / "stdout").mkdir(parents=True)
    (run / "spec.json").write_text(json.dumps(SPEC) + "\n", encoding="utf-8")
    for name, cfg in CONFIG_FILES.items():
        (run / name).write_text(json.dumps(cfg) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, argv in pipeline(run):
        proc = subprocess.run([sys.executable, "-m", "eksft.cli", *argv], cwd=run, env=env,
                              capture_output=True, text=True, timeout=1800)
        (run / "stdout" / f"{name}.txt").write_text(
            f"exit {proc.returncode}\n{proc.stdout}", encoding="utf-8")
        if proc.returncode != 0:
            sys.stderr.write(f"{tree}: {name} exited {proc.returncode}\n{proc.stderr}")
            return


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths, other than timings.csv, that are missing on one side or differ."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files if f.name != "timings.csv" and not (
        (a / f).is_file() and (b / f).is_file() and filecmp.cmp(a / f, b / f, shallow=False)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", default="HEAD", help="revision of the parent side (default HEAD)")
    p.add_argument("--keep", type=Path, help="keep both sides' outputs in this directory")
    args = p.parse_args(argv)
    commit = git("rev-parse", args.base).decode().strip()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = args.keep or Path(tmp)
        parent_tree, run = Path(tmp) / "parent_tree", work / "run"
        unpack(commit, parent_tree)
        for side, tree in (("parent", parent_tree), ("change", ROOT)):
            run_side(tree, run)
            shutil.rmtree(work / side, ignore_errors=True)
            run.rename(work / side)
        diff = differing(work / "parent", work / "change")
    for f in diff:
        print(f"differs: {f}")
    print(f"{len(diff)} differing files between {args.base} ({commit[:12]}) and the working tree")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
