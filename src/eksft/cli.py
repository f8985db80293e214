"""Command-line front end for the full pipeline.

Subcommands: gen-data, pretrain, train-sft, train-rl, eval,
analyze {drift,iou,sweep,plots}. Every run writes a self-contained run
directory (config.json, manifest.json, metrics.csv, checkpoints/, reports/)
from which it can be reproduced bit-identically; `files` writes every file.

Exit codes are uniform: 0 success, 1 runtime failure, 2 usage/config error.
`READS` says, for each config-backed command, which fields of its config
dataclass it reads and which it fixes. Each field read is one flag (`flag`)
and one config-file key; values resolve as fixed > flag > file > default.
Of the method fields, the hyper-parameters in `objective.METHODS`, a run
reads only those of its resolved method (`method_reads`): `train-sft
--method sft --rho 0.3` is refused, as eksft alone reads rho. A flag, file
key or model setting outside the command's entry or its method's fields,
a value of the wrong type, or a file key that sets a fixed field to
another value, is a usage error. Checkpoints are named by
`model.checkpoint_paths` and checked by `model.load_checkpoint`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from . import analyze as ana
from . import evaluation as ev
from . import files
from . import model as mdl
from . import objective as obj
from . import tasks
from . import train as tr
from .errors import ConfigError, EksftError

RUN_ROOT_ENV = "EKSFT_RUN_ROOT"

_SFT_COMMON = ("learning_rate", "epochs", "batch_size", "weight_decay", "seed")
_MODEL_SIZES = ("vocab_size", "d_model", "n_layers", "n_heads", "context_len")
# every field that some method reads (rho, lambda_h, lambda_kl, drop_fraction)
_METHOD_FIELDS = tuple(dict.fromkeys(n for names in obj.METHODS.values() for n in names))

# command -> (config dataclass, fields it reads, {field: value} it fixes).
# pretrain and train-sft also read _MODEL_SIZES of ModelConfig on a fresh init.
READS = {
    "gen-data": (tasks.TaskSpec, tuple(f.name for f in dataclasses.fields(tasks.TaskSpec)), {}),
    "pretrain": (tr.SftConfig, _SFT_COMMON, {"method": "sft", "supervise_prompt": True}),
    # a train-sft run reads only its method's share of these (method_reads)
    "train-sft": (tr.SftConfig, _SFT_COMMON + ("method",) + _METHOD_FIELDS,
                  {"supervise_prompt": False}),
    "train-rl": (tr.RlConfig, tuple(f.name for f in dataclasses.fields(tr.RlConfig)), {}),
    # --rhos gives each run its ratio
    "analyze sweep": (tr.SftConfig,
                      _SFT_COMMON + tuple(n for n in obj.METHODS["eksft"] if n != "rho"),
                      {"method": "eksft", "supervise_prompt": False}),
}

# spellings older than READS, kept because scripts pass them
_FLAG_SPELLINGS = {"learning_rate": "--lr", "total_steps": "--steps",
                   "rollout_group_size": "--group-size"}


def flag(name: str) -> str:
    """The command-line flag of config field `name`."""
    return _FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-"))


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


def method_reads(reads: tuple[str, ...], method: str) -> tuple[str, ...]:
    """The fields of `reads` that a run of `method` reads: of the method fields,
    only its own (`obj.METHODS[method]`)."""
    return tuple(n for n in reads if n not in _METHOD_FIELDS or n in obj.METHODS[method])


def _recorded(config: tr.SftConfig, command: str) -> dict:
    """The fields of `config` that a run of `command` reads or fixes: what acted."""
    _, reads, fixed = READS[command]
    return {n: getattr(config, n) for n in (*method_reads(reads, config.method), *fixed)}


def _build(cls, reads: tuple[str, ...], fixed: dict, file_cfg: dict, args: argparse.Namespace):
    """`cls` from defaults < config file < flags < `fixed`. A file key that sets
    a fixed field to another value, or that is neither read nor fixed, is a
    usage error, and so is a flag or file key of a field that the resolved
    method does not read."""
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"{cls.__name__} settings must be a JSON object, got {file_cfg!r}")
    for name, value in fixed.items():
        if name in file_cfg and file_cfg[name] != value:
            raise ConfigError(f"config key {name!r} is {file_cfg[name]!r}, but this command "
                              f"fixes {name} = {value!r}")
    unknown = sorted(file_cfg.keys() - set(reads) - fixed.keys())
    if unknown:
        raise ConfigError(f"config keys {unknown} name no {cls.__name__} field this command "
                          f"reads; it reads {list(reads)}")
    kwargs = dict(file_cfg)
    for name in reads:
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    kwargs.update(fixed)
    method = kwargs.get("method", tr.SftConfig.method)
    if cls is tr.SftConfig and isinstance(method, str) and method in obj.METHODS:
        read = method_reads(reads, method)
        unread = [n for n in reads if n in kwargs and n not in read]
        if unread:
            raise ConfigError(f"method {method!r} does not read {unread}, given as a flag or "
                              f"config key; of {list(_METHOD_FIELDS)} it reads "
                              f"{list(obj.METHODS[method])}")
    return cls(**kwargs)  # an unknown method or a bad value is its ConfigError


def _prepare_run_dir(out: str, force: bool) -> Path:
    run_dir = _resolve_out(out)
    marker = run_dir / "config.json"
    if marker.exists() and not force:
        raise ConfigError(f"run directory already populated: {marker} (use --force)")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _write_run_files(run_dir: Path, command: str, config: dict, datasets: dict, columns: list[str]):
    config_text = files.json_text(config)
    files.write_text(run_dir / "config.json", config_text)
    digest_src = config_text + json.dumps(datasets, sort_keys=True)
    manifest = {
        "command": command,
        "run_id": hashlib.sha256(digest_src.encode()).hexdigest()[:16],
        "package_version": __version__,
        "datasets": datasets,
        "metrics_columns": columns,
        "note": "timings.csv is wall-clock and excluded from determinism guarantees",
    }
    files.write_json(run_dir / "manifest.json", manifest)


def _dataset_meta(path: Path) -> dict:
    return {"path": str(path), "sha256": tasks.dataset_hash(path)}


def int_list(text: str) -> list[int]:
    """argparse type for "1,4,8"; argparse turns a bad item into a usage error."""
    return [int(item) for item in text.split(",")]


def float_list(text: str) -> list[float]:
    """argparse type for "0.1,0.2"; argparse turns a bad item into a usage error."""
    return [float(item) for item in text.split(",")]


def _add_flags(p: argparse.ArgumentParser, cls, names: tuple[str, ...]):
    """One flag per field of `cls` in `names`, typed by its default; `cls` validates the value.
    The SftConfig commands also take a hidden `--grad-accum` that accepts only 1 and sets
    nothing: an SFT step is one batch, and deskbench/workloads.py still passes it."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for name in names:
        p.add_argument(flag(name), dest=name, type=type(defaults[name]))
    if cls is tr.SftConfig:
        p.add_argument("--grad-accum", type=int, choices=(1,), help=argparse.SUPPRESS)


# -----------------------------------------------------------------------------
# subcommands
# -----------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    spec = _build(*READS["gen-data"], _load_config_file(args.spec), args)
    report = tasks.generate_dataset(spec, _resolve_out(args.out), force=args.force)
    for name, info in report.items():
        print(f"{name}: {info['count']} samples  sha256={info['sha256'][:16]}  {info['path']}")
    return 0


def _run_supervised(args, command: str) -> int:
    """pretrain and train-sft: one supervised run from --init or a fresh model."""
    file_cfg = _load_config_file(args.config)
    given = ["config key 'model'"] if "model" in file_cfg else []
    given += [flag(name) for name in _MODEL_SIZES if getattr(args, name) is not None]
    if args.init and given:
        raise ConfigError(f"{', '.join(given)} set the model, but --init takes it from "
                          f"the checkpoint")
    model_file_cfg = file_cfg.pop("model", {})
    data_path = _require_file(args.data, "dataset")
    config = _build(*READS[command], file_cfg, args)
    if args.init:
        params = mdl.load_checkpoint(_require_checkpoint(args.init))
    else:  # a fresh model takes the run's resolved seed
        params = mdl.init(_build(mdl.ModelConfig, _MODEL_SIZES, {"seed": config.seed},
                                 model_file_cfg, args))
    reference = mdl.snapshot_reference(params)
    dataset = tasks.load_samples(data_path, context_len=params.config.context_len)
    run_dir = _prepare_run_dir(args.out, args.force)
    _write_run_files(
        run_dir,
        command,
        {
            "train": _recorded(config, command),
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


def cmd_train_rl(args) -> int:
    config = _build(*READS["train-rl"], _load_config_file(args.config), args)
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


def cmd_drift(args) -> int:
    before = mdl.load_checkpoint(_require_checkpoint(args.before))
    after = mdl.load_checkpoint(_require_checkpoint(args.after))
    report = ana.parameter_drift(before, after, args.thresholds or ana.DEFAULT_DRIFT_THRESHOLDS)
    ana.write_drift_report(report, _resolve_out(args.out))
    print(f"global mean relative change: {report.global_mean_rel_change:.3e}")
    for t in report.thresholds:
        print(f"fraction exceeding {t:g}: {report.global_frac_exceeding[t]:.4f}")
    return 0


def cmd_iou(args) -> int:
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


def cmd_sweep(args) -> int:
    _require_sampling_sizes(args)
    ana.sweep_dir_names(args.rhos)
    base_config = _build(*READS["analyze sweep"], _load_config_file(args.config), args)
    data_path = _require_file(args.data, "dataset")
    eval_path = _require_file(args.eval_data, "eval set")
    params = mdl.load_checkpoint(_require_checkpoint(args.init))
    dataset = tasks.load_samples(data_path, context_len=params.config.context_len)
    eval_set = tasks.load_samples(eval_path, context_len=params.config.context_len)
    ks = [k for k in (1, 4, 8, 16, 32) if k <= args.n]
    out = _resolve_out(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_run_files(
        out,
        "analyze sweep",
        {
            "train": _recorded(base_config, "analyze sweep"),
            "rhos": args.rhos,
            "n": args.n,
            "ks": ks,
            "eval_seed": args.eval_seed,
            "max_gen_len": args.max_gen_len,
            "init_checkpoint": args.init,
        },
        {"data": _dataset_meta(data_path), "eval_data": _dataset_meta(eval_path)},
        ana.sweep_columns(ks),
    )
    rows = ana.ratio_sweep(
        params, dataset, eval_set, base_config, args.rhos, out,
        n_per_prompt=args.n, ks=ks, eval_seed=args.eval_seed, max_gen_len=args.max_gen_len,
    )
    for row in rows:
        top = f"pass@{ks[-1]}={row[f'pass_at_{ks[-1]}']:.4f}  " if ks[-1] > 1 else ""
        print(
            f"rho={row['rho']:g}  pass@1={row['pass_at_1']:.4f}  {top}"
            f"drift>{1e-3:g}={row['drift_frac_1e-3']:.4f}"
        )
    return 0


def cmd_plots(args) -> int:
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


# -----------------------------------------------------------------------------
# parser
# -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eksft", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    # no abbreviations: --rho must not be read as --rhos
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=no_abbrev)

    p = sub.add_parser("gen-data", help="generate the four dataset splits")
    p.add_argument("--spec", help="task spec JSON file")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    _add_flags(p, *READS["gen-data"][:2])
    p.set_defaults(fn=cmd_gen_data)

    for name, help_text in (
        ("pretrain", "LM-pretrain a base model (prompt tokens supervised)"),
        ("train-sft", "supervised stage with any method"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--init", help="checkpoint prefix to start from (else fresh init)")
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--force", action="store_true")
        _add_flags(p, *READS[name][:2])
        _add_flags(p, mdl.ModelConfig, _MODEL_SIZES)
        p.set_defaults(fn=functools.partial(_run_supervised, command=name))

    p = sub.add_parser("train-rl", help="clipped group-rollout RL from a checkpoint")
    p.add_argument("--init", required=True, help="checkpoint prefix")
    p.add_argument("--prompts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--force", action="store_true")
    _add_flags(p, *READS["train-rl"][:2])
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
    asub = p.add_subparsers(dest="what", required=True, parser_class=no_abbrev)

    a = asub.add_parser("drift", help="parameter drift between two checkpoints")
    a.add_argument("--before", required=True)
    a.add_argument("--after", required=True)
    a.add_argument("--thresholds", type=float_list)
    a.add_argument("--out", default="drift_reports")
    a.set_defaults(fn=cmd_drift)

    a = asub.add_parser("iou", help="mask-overlap series from a mask dump")
    a.add_argument("--dump", required=True)
    a.add_argument("--out", default="iou_reports")
    a.set_defaults(fn=cmd_iou)

    a = asub.add_parser("sweep", help="masking-ratio sweep (train + eval per ratio)")
    a.add_argument("--data", required=True)
    a.add_argument("--eval-data", dest="eval_data", required=True)
    a.add_argument("--init", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--rhos", type=float_list, default="0.0,0.1,0.2,0.3,0.4")
    a.add_argument("--n", type=int, default=32)
    a.add_argument("--eval-seed", dest="eval_seed", type=int, default=0)
    a.add_argument("--max-gen-len", dest="max_gen_len", type=int, default=64)
    a.add_argument("--config", help="JSON config file; flags override its entries")
    _add_flags(a, *READS["analyze sweep"][:2])
    a.set_defaults(fn=cmd_sweep)

    a = asub.add_parser("plots", help="SVG charts from a run directory")
    a.add_argument("--run", required=True)
    a.add_argument("--eval-csv", dest="eval_csv")
    a.add_argument("--drift-csv", dest="drift_csv")
    a.set_defaults(fn=cmd_plots)

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
