"""Command-line front end for the full pipeline.

Subcommands: gen-data, pretrain, train-sft, train-rl, eval,
analyze {drift,iou,sweep,plots}. Every run writes a self-contained run
directory (config.json, manifest.json, metrics.csv, checkpoints/, reports/)
from which it can be reproduced bit-identically.

Exit codes are uniform: 0 success, 1 runtime failure, 2 usage/config error.
Values resolve as CLI flag > config-file entry > built-in default; a
config-file key that names no field of the command's config is a usage
error. Checkpoints are named by `model.checkpoint_paths` and checked by
`model.load_checkpoint`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from . import analyze as ana
from . import evaluation as ev
from . import model as mdl
from . import tasks
from . import train as tr
from .errors import ConfigError, EksftError

RUN_ROOT_ENV = "EKSFT_RUN_ROOT"


def _resolve_out(path: str) -> Path:
    import os

    root = os.environ.get(RUN_ROOT_ENV)
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _require_file(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"missing {what}: {p}")
    return p


def _require_checkpoint(prefix: str) -> str:
    manifest, _ = mdl.checkpoint_paths(prefix)
    if not manifest.exists():
        raise ConfigError(f"missing checkpoint: {manifest}")
    return prefix


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = _require_file(path, "config file")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return data


def _build(cls, file_cfg: dict, args: argparse.Namespace, overrides: dict | None = None):
    """Dataclass from defaults < config file < CLI flags (< hard overrides).
    A config-file key that names no field of `cls` is a usage error."""
    names = {f.name for f in dataclasses.fields(cls)}
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"{cls.__name__} settings must be a JSON object, got {file_cfg!r}")
    unknown = sorted(file_cfg.keys() - names)
    if unknown:
        raise ConfigError(f"config keys {unknown} name no field of {cls.__name__}")
    kwargs = dict(file_cfg)
    for name in names:
        v = getattr(args, name, None)
        if v is not None:
            kwargs[name] = v
    if overrides:
        kwargs.update(overrides)
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(str(e)) from e


def _prepare_run_dir(out: str, force: bool) -> Path:
    run_dir = _resolve_out(out)
    marker = run_dir / "config.json"
    if marker.exists() and not force:
        raise ConfigError(f"run directory already populated: {marker} (use --force)")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _write_run_files(run_dir: Path, command: str, config: dict, datasets: dict, columns: list[str]):
    config_text = json.dumps(config, indent=1, sort_keys=True) + "\n"
    (run_dir / "config.json").write_text(config_text, encoding="utf-8")
    digest_src = config_text + json.dumps(datasets, sort_keys=True)
    manifest = {
        "command": command,
        "run_id": hashlib.sha256(digest_src.encode()).hexdigest()[:16],
        "package_version": __version__,
        "datasets": datasets,
        "metrics_columns": columns,
        "note": "timings.csv is wall-clock and excluded from determinism guarantees",
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _dataset_meta(path: Path) -> dict:
    return {"path": str(path), "sha256": tasks.dataset_hash(path)}


def int_list(text: str) -> list[int]:
    """argparse type for "1,4,8"; argparse turns a bad item into a usage error."""
    return [int(item) for item in text.split(",")]


def float_list(text: str) -> list[float]:
    """argparse type for "0.1,0.2"; argparse turns a bad item into a usage error."""
    return [float(item) for item in text.split(",")]


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--d-model", dest="d_model", type=int)
    p.add_argument("--n-layers", dest="n_layers", type=int)
    p.add_argument("--n-heads", dest="n_heads", type=int)
    p.add_argument("--context-len", dest="context_len", type=int)


def _add_sft_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--grad-accum", dest="grad_accum", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--lambda-h", dest="lambda_h", type=float)
    p.add_argument("--lambda-kl", dest="lambda_kl", type=float)
    p.add_argument("--drop-fraction", dest="drop_fraction", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")


def _init_model_and_reference(args, model_file_cfg: dict):
    """Load --init checkpoint (or fresh-init) and snapshot it as the reference."""
    if args.init:
        params = mdl.load_checkpoint(_require_checkpoint(args.init))
    else:
        model_cfg = _build(mdl.ModelConfig, model_file_cfg, args,
                           overrides={"seed": args.seed or 0})
        params = mdl.init(model_cfg)
    reference = mdl.snapshot_reference(params)
    return params, reference


# -----------------------------------------------------------------------------
# subcommands
# -----------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    spec = _build(tasks.TaskSpec, _load_config_file(args.spec), args)
    report = tasks.generate_dataset(spec, _resolve_out(args.out), force=args.force)
    for name, info in report.items():
        print(f"{name}: {info['count']} samples  sha256={info['sha256'][:16]}  {info['path']}")
    return 0


def _run_supervised(args, supervise_prompt: bool, command: str) -> int:
    file_cfg = _load_config_file(args.config)
    model_file_cfg = file_cfg.pop("model", {})
    data_path = _require_file(args.data, "dataset")
    overrides = {"supervise_prompt": supervise_prompt}
    if supervise_prompt:
        overrides["method"] = "sft"
    config = _build(tr.SftConfig, file_cfg, args, overrides=overrides)
    params, reference = _init_model_and_reference(args, model_file_cfg)
    dataset = tasks.load_samples(data_path, context_len=params.config.context_len)
    run_dir = _prepare_run_dir(args.out, args.force)
    _write_run_files(
        run_dir,
        command,
        {
            "train": dataclasses.asdict(config),
            "model": dataclasses.asdict(params.config),
            "init_checkpoint": args.init,
        },
        {"data": _dataset_meta(data_path)},
        tr.SFT_METRICS_COLUMNS,
    )
    mdl.save_checkpoint(params, run_dir / "checkpoints" / "start")
    _, records = tr.train_sft(params, reference, dataset, config, run_dir=run_dir)
    print(f"{command}: {len(records)} optimizer steps, final loss {records[-1].loss_total:.6f}")
    print(f"run directory: {run_dir}")
    return 0


def cmd_pretrain(args) -> int:
    return _run_supervised(args, supervise_prompt=True, command="pretrain")


def cmd_train_sft(args) -> int:
    return _run_supervised(args, supervise_prompt=False, command="train-sft")


def cmd_train_rl(args) -> int:
    file_cfg = _load_config_file(args.config)
    config = _build(tr.RlConfig, file_cfg, args)
    prompts_path = _require_file(args.prompts, "prompt set")
    params = mdl.load_checkpoint(_require_checkpoint(args.init))
    prompts = tasks.load_samples(prompts_path, context_len=params.config.context_len)
    run_dir = _prepare_run_dir(args.out, args.force)
    _write_run_files(
        run_dir,
        "train-rl",
        {
            "train": dataclasses.asdict(config),
            "model": dataclasses.asdict(params.config),
            "init_checkpoint": args.init,
        },
        {"prompts": _dataset_meta(prompts_path)},
        tr.RL_METRICS_COLUMNS,
    )
    _, records = tr.train_rl(params, prompts, tasks.verify, config, run_dir=run_dir)
    print(
        f"train-rl: {len(records)} steps, mean reward {records[0].mean_reward:.3f} -> "
        f"{records[-1].mean_reward:.3f}"
    )
    print(f"run directory: {run_dir}")
    return 0


def _require_sampling_sizes(args) -> None:
    """Reject --n or --max-gen-len below 1, and a --ks entry outside [1, n] or
    repeated, before any checkpoint loads."""
    if args.n < 1 or args.max_gen_len < 1:
        raise ConfigError(f"n and max_gen_len must be >= 1, got n={args.n}, "
                          f"max_gen_len={args.max_gen_len}")
    ks = getattr(args, "ks", [])
    bad = [k for k in ks if not 1 <= k <= args.n]
    if bad:
        raise ConfigError(f"every k of --ks must lie in [1, n={args.n}], got {bad}")
    repeated = sorted({k for k in ks if ks.count(k) > 1})
    if repeated:
        raise ConfigError(f"every k of --ks must appear once, got repeats {repeated}")


def cmd_eval(args) -> int:
    _require_sampling_sizes(args)
    params = mdl.load_checkpoint(_require_checkpoint(args.ckpt))
    data_path = _require_file(args.data, "eval set")
    eval_set = tasks.load_samples(data_path, context_len=params.config.context_len)
    report = ev.evaluate(
        params, eval_set, args.n, args.ks, temperature=args.temperature,
        seed=args.seed, max_len=args.max_gen_len,
    )
    report.config = {
        "ckpt": args.ckpt,
        "data": str(data_path),
        "data_sha256": tasks.dataset_hash(data_path),
        "max_gen_len": args.max_gen_len,
    }
    out_dir = _resolve_out(args.out)
    ev.write_eval_report(report, out_dir, label=args.label)
    print(f"prompts: {len(report.per_prompt)}  n/prompt: {report.n_per_prompt}")
    print(f"avg@{report.n_per_prompt} (pass@1): {report.avg_at_n:.4f}")
    for k in report.ks:
        print(f"pass@{k}: {report.pass_at[k]:.4f}")
    print(f"mean response entropy: {report.mean_response_entropy:.4f} nats")
    return 0


def cmd_analyze(args) -> int:
    if args.what == "drift":
        before = mdl.load_checkpoint(_require_checkpoint(args.before))
        after = mdl.load_checkpoint(_require_checkpoint(args.after))
        report = ana.parameter_drift(before, after, args.thresholds or ana.DEFAULT_DRIFT_THRESHOLDS)
        out = _resolve_out(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "drift.json").write_text(report.to_json(), encoding="utf-8")
        (out / "drift.csv").write_text(report.csv_text(), encoding="utf-8")
        print(f"global mean relative change: {report.global_mean_rel_change:.3e}")
        for t in report.thresholds:
            print(f"fraction exceeding {t:g}: {report.global_frac_exceeding[t]:.4f}")
        return 0
    if args.what == "iou":
        dump = _require_file(args.dump, "mask dump")
        series, summary = ana.iou_series(dump)
        out = _resolve_out(args.out)
        out.mkdir(parents=True, exist_ok=True)
        ana.write_iou_csv(series, summary, out / "iou.csv")
        print(f"steps: {summary['steps']}  skipped lines: {summary['skipped_lines']}")
        print(f"IoU min/mean/max: {summary['min']} / {summary['mean']} / {summary['max']}")
        ref = summary["reference_large_scale"]
        print(f"large-scale reference: min {ref['min']} / mean {ref['mean']} / max {ref['max']}")
        return 0
    if args.what == "sweep":
        _require_sampling_sizes(args)
        file_cfg = _load_config_file(args.config)
        base_config = _build(tr.SftConfig, file_cfg, args, overrides={"method": "eksft"})
        data_path = _require_file(args.data, "dataset")
        eval_path = _require_file(args.eval_data, "eval set")
        params = mdl.load_checkpoint(_require_checkpoint(args.init))
        dataset = tasks.load_samples(data_path, context_len=params.config.context_len)
        eval_set = tasks.load_samples(eval_path, context_len=params.config.context_len)
        ks = [k for k in (1, 4, 8, 16, 32) if k <= args.n]
        rows = ana.ratio_sweep(
            params, dataset, eval_set, base_config, args.rhos, _resolve_out(args.out),
            n_per_prompt=args.n, ks=ks, eval_seed=args.eval_seed, max_gen_len=args.max_gen_len,
        )
        for row in rows:
            top = f"pass@{ks[-1]}={row[f'pass_at_{ks[-1]}']:.4f}  " if ks[-1] > 1 else ""
            print(
                f"rho={row['rho']:g}  pass@1={row['pass_at_1']:.4f}  {top}"
                f"drift>{1e-3:g}={row['drift_frac_1e-3']:.4f}"
            )
        return 0
    if args.what == "plots":
        run_dir = Path(_require_file(Path(args.run) / "metrics.csv", "metrics CSV")).parent
        out_dir = run_dir / "reports"
        made = ana.export_training_plots(run_dir / "metrics.csv", out_dir)
        if args.eval_csv:
            made.append(out_dir / "passk.svg")
            ana.export_pass_at_k_plot(_require_file(args.eval_csv, "eval CSV"), made[-1])
        if args.drift_csv:
            made.append(out_dir / "drift.svg")
            ana.export_drift_plot(_require_file(args.drift_csv, "drift CSV"), made[-1])
        for p in made:
            print(f"wrote {p}")
        return 0
    raise ConfigError(f"unknown analyze target {args.what!r}")


# -----------------------------------------------------------------------------
# parser
# -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eksft", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-data", help="generate the four dataset splits")
    p.add_argument("--spec", help="task spec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_gen_data)

    for name, fn, help_text in (
        ("pretrain", cmd_pretrain, "LM-pretrain a base model (prompt tokens supervised)"),
        ("train-sft", cmd_train_sft, "supervised stage with any method"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--init", help="checkpoint prefix to start from (else fresh init)")
        if name == "train-sft":
            p.add_argument("--method", choices=("sft", "eksft", "dft", "random_mask", "global_reg"))
        _add_sft_flags(p)
        _add_model_flags(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("train-rl", help="clipped group-rollout RL from a checkpoint")
    p.add_argument("--init", required=True, help="checkpoint prefix")
    p.add_argument("--prompts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--steps", dest="total_steps", type=int)
    p.add_argument("--group-size", dest="rollout_group_size", type=int)
    p.add_argument("--prompts-per-step", dest="prompts_per_step", type=int)
    p.add_argument("--clip-low", dest="clip_low", type=float)
    p.add_argument("--clip-high", dest="clip_high", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-gen-len", dest="max_gen_len", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_train_rl)

    p = sub.add_parser("eval", help="pass@k evaluation of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--ks", type=int_list, default="1,4,8,16,32")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-gen-len", dest="max_gen_len", type=int, default=64)
    p.add_argument("--out", default="eval_reports")
    p.add_argument("--label", default="eval")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("analyze", help="post-hoc analyzers")
    asub = p.add_subparsers(dest="what", required=True)

    a = asub.add_parser("drift", help="parameter drift between two checkpoints")
    a.add_argument("--before", required=True)
    a.add_argument("--after", required=True)
    a.add_argument("--thresholds", type=float_list)
    a.add_argument("--out", default="drift_reports")
    a.set_defaults(fn=cmd_analyze)

    a = asub.add_parser("iou", help="mask-overlap series from a mask dump")
    a.add_argument("--dump", required=True)
    a.add_argument("--out", default="iou_reports")
    a.set_defaults(fn=cmd_analyze)

    a = asub.add_parser("sweep", help="masking-ratio sweep (train + eval per ratio)")
    a.add_argument("--data", required=True)
    a.add_argument("--eval-data", dest="eval_data", required=True)
    a.add_argument("--init", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--rhos", type=float_list, default="0.0,0.1,0.2,0.3,0.4")
    a.add_argument("--n", type=int, default=32)
    a.add_argument("--eval-seed", dest="eval_seed", type=int, default=0)
    a.add_argument("--max-gen-len", dest="max_gen_len", type=int, default=64)
    _add_sft_flags(a)
    a.set_defaults(fn=cmd_analyze)

    a = asub.add_parser("plots", help="SVG charts from a run directory")
    a.add_argument("--run", required=True)
    a.add_argument("--eval-csv", dest="eval_csv")
    a.add_argument("--drift-csv", dest="drift_csv")
    a.set_defaults(fn=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except EksftError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
