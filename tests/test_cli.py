import argparse
import dataclasses
import json
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from eksft import cli
from eksft import evaluation as ev
from eksft import model as mdl
from eksft import objective as obj
from eksft import tasks
from eksft import train as tr
from eksft.cli import main

MODEL_FLAGS = ["--vocab-size", "32", "--d-model", "16", "--n-layers", "1",
               "--n-heads", "2", "--context-len", "48"]


def _gen(tmp_path, seed=3, counts=(8, 6, 6, 4)) -> Path:
    tmp_path.mkdir(parents=True, exist_ok=True)
    data = tmp_path / "data"
    spec = {
        "seed": seed,
        "n_pretrain": counts[0],
        "n_sft": counts[1],
        "n_rl": counts[2],
        "n_eval": counts[3],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen-data", "--spec", str(spec_path), "--out", str(data)]) == 0
    return data


def _train(tmp_path, data, method="sft", out="run", extra=()):
    args = [
        "train-sft", "--method", method, "--data", str(data / "sft.jsonl"),
        "--out", str(tmp_path / out), "--epochs", "2", "--batch-size", "3",
        "--lr", "1e-3", "--seed", "5", *MODEL_FLAGS, *extra,
    ]
    assert main(args) == 0
    return tmp_path / out


def test_gen_data_writes_four_files_and_refuses_overwrite(tmp_path, capsys):
    data = _gen(tmp_path)
    for name in ("pretrain", "sft", "rl_prompts", "eval"):
        assert (data / f"{name}.jsonl").exists()
    assert main(["gen-data", "--out", str(data), "--seed", "3"]) == 2
    assert main(["gen-data", "--out", str(data), "--seed", "3", "--force"]) == 0


def test_gen_data_seed_changes_hashes(tmp_path, capsys):
    _gen(tmp_path / "a", seed=1)
    capsys.readouterr()
    _gen(tmp_path / "b", seed=1)
    out1 = capsys.readouterr().out
    _gen(tmp_path / "c", seed=2)
    out2 = capsys.readouterr().out

    def hashes(s):
        return [line.split("sha256=")[1].split()[0] for line in s.strip().splitlines()]

    assert hashes(out1) != hashes(out2)


def test_train_sft_run_directory_contents(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data, method="eksft")
    for f in ("config.json", "manifest.json", "metrics.csv", "mask_dump.jsonl", "timings.csv"):
        assert (run / f).exists(), f
    assert (run / "checkpoints" / "final.manifest.json").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "train-sft"
    assert "sha256" in manifest["datasets"]["data"]


@pytest.mark.parametrize("method", list(obj.METHODS))
def test_train_sft_config_records_only_what_acted(tmp_path, method):
    data = _gen(tmp_path)
    train = json.loads((_train(tmp_path, data, method=method) / "config.json").read_text())["train"]
    _, reads, fixed = cli.READS["train-sft"]
    assert train.keys() == {*cli.method_reads(reads, method), *fixed}
    if method == "eksft":
        assert sorted(train) == ["batch_size", "epochs", "lambda_h", "lambda_kl", "learning_rate",
                                 "method", "rho", "seed", "supervise_prompt", "weight_decay"]


def test_cli_pipeline_trains_the_in_process_model(tmp_path):
    """pretrain, train-sft --init and eval as commands give the vector and the eval.json
    of the same stages run in-process: no checkpoint hand-over rounds the model."""
    data, base, sft, reports = _gen(tmp_path), tmp_path / "base", tmp_path / "sft", tmp_path / "r"
    assert main(["pretrain", "--data", str(data / "pretrain.jsonl"), "--out", str(base),
                 "--epochs", "2", "--batch-size", "4", "--lr", "3e-3", "--seed", "4",
                 *MODEL_FLAGS]) == 0
    assert main(["train-sft", "--init", str(base / "checkpoints/final"), "--method", "eksft",
                 "--data", str(data / "sft.jsonl"), "--out", str(sft), "--epochs", "2",
                 "--batch-size", "3", "--lr", "2e-3", "--seed", "5"]) == 0
    assert main(["eval", "--ckpt", str(sft / "checkpoints/final"), "--data",
                 str(data / "eval.jsonl"), "--out", str(reports), "--n", "4", "--ks", "1,4",
                 "--max-gen-len", "6", "--seed", "2"]) == 0

    params = mdl.init(mdl.ModelConfig(d_model=16, n_layers=1, context_len=48, seed=4))
    for name, config in (
        ("pretrain", tr.SftConfig(learning_rate=3e-3, epochs=2, batch_size=4, seed=4,
                                  supervise_prompt=True)),
        ("sft", tr.SftConfig(method="eksft", learning_rate=2e-3, epochs=2, batch_size=3, seed=5)),
    ):
        dataset = tasks.load_samples(data / f"{name}.jsonl", context_len=48)
        tr.train_sft(params, mdl.snapshot_reference(params), dataset, config)
    assert np.array_equal(mdl.load_checkpoint(sft / "checkpoints/final").flat, params.flat)
    report = ev.evaluate(params, tasks.load_samples(data / "eval.jsonl", context_len=48), 4,
                         [1, 4], temperature=1.0, seed=2, max_len=6)
    report.config = json.loads((reports / "eval.json").read_text())["config"]  # paths only
    json_path, _ = ev.write_eval_report(report, tmp_path / "in_process")
    assert json_path.read_bytes() == (reports / "eval.json").read_bytes()


def test_forced_rerun_without_mask_dump_removes_the_stale_one(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data, method="eksft")
    assert (run / "mask_dump.jsonl").exists()
    _train(tmp_path, data, method="sft", extra=("--force",))
    assert not (run / "mask_dump.jsonl").exists()
    assert json.loads((run / "config.json").read_text())["train"]["method"] == "sft"
    assert (run / "checkpoints" / "final.manifest.json").exists()


def test_train_refuses_populated_run_dir(tmp_path):
    data = _gen(tmp_path)
    _train(tmp_path, data, out="run")
    args = ["train-sft", "--method", "sft", "--data", str(data / "sft.jsonl"),
            "--out", str(tmp_path / "run"), *MODEL_FLAGS]
    assert main(args) == 2


def test_eksft_zeroed_matches_sft_metrics(tmp_path):
    data = _gen(tmp_path)
    run_sft = _train(tmp_path, data, method="sft", out="sft")
    run_ek = _train(
        tmp_path, data, method="eksft", out="ek",
        extra=["--rho", "0", "--lambda-h", "0", "--lambda-kl", "0"],
    )

    def loss_cols(run):
        lines = (run / "metrics.csv").read_text().strip().splitlines()
        return [",".join(line.split(",")[3:7]) for line in lines[1:]]

    assert loss_cols(run_sft) == loss_cols(run_ek)
    assert (run_sft / "checkpoints" / "final.weights.bin").read_bytes() == (
        run_ek / "checkpoints" / "final.weights.bin"
    ).read_bytes()


def test_missing_checkpoint_exits_2_with_path(tmp_path, capsys):
    data = _gen(tmp_path)
    code = main([
        "train-rl", "--init", str(tmp_path / "nope/final"),
        "--prompts", str(data / "rl_prompts.jsonl"), "--out", str(tmp_path / "rl"),
    ])
    assert code == 2
    assert "nope/final" in capsys.readouterr().err


def test_train_rl_rejects_nonpositive_max_gen_len(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt = tmp_path / "base"
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    assert main([
        "train-rl", "--init", str(ckpt), "--prompts", str(data / "rl_prompts.jsonl"),
        "--out", str(tmp_path / "rl"), "--max-gen-len", "0",
    ]) == 2
    assert "max_gen_len" in capsys.readouterr().err
    assert not (tmp_path / "rl").exists()


@pytest.mark.parametrize("flag", ["--max-gen-len", "--n"])
def test_eval_rejects_nonpositive_n_and_max_gen_len(tmp_path, capsys, monkeypatch, flag):
    data = _gen(tmp_path)
    ckpt = tmp_path / "base"
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    loads = []
    monkeypatch.setattr(mdl, "load_checkpoint", lambda *a: loads.append(a))
    assert main([
        "eval", "--ckpt", str(ckpt), "--data", str(data / "eval.jsonl"),
        "--out", str(tmp_path / "reports"), flag, "0",
    ]) == 2
    assert flag.lstrip("-").replace("-", "_") + "=0" in capsys.readouterr().err
    assert not loads and not (tmp_path / "reports").exists()


@pytest.mark.parametrize("ks", ["0,1", "1,64", "2,1,2"])
def test_eval_rejects_ks_outside_one_to_n(tmp_path, capsys, monkeypatch, ks):
    data = _gen(tmp_path)
    ckpt = tmp_path / "base"
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    loads = []
    monkeypatch.setattr(mdl, "load_checkpoint", lambda *a: loads.append(a))
    assert main([
        "eval", "--ckpt", str(ckpt), "--data", str(data / "eval.jsonl"),
        "--out", str(tmp_path / "reports"), "--n", "32", "--ks", ks,
    ]) == 2
    bad = {"0,1": "0", "1,64": "64", "2,1,2": "2"}[ks]
    assert f"[{bad}]" in capsys.readouterr().err
    assert not loads and not (tmp_path / "reports").exists()


def test_eval_on_non_object_manifest_exits_1(tmp_path, capsys):
    data = _gen(tmp_path)
    ckpt = tmp_path / "base"
    manifest, _ = mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    manifest.write_text("5")
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data / "eval.jsonl"),
                 "--out", str(tmp_path / "reports")]) == 1
    assert capsys.readouterr().err.startswith("error: manifest")


@pytest.mark.parametrize("line", ["[1, 2]", '{"prompt": 5, "response": "2#2", "answer": "2"}'])
def test_train_sft_on_malformed_dataset_line_exits_1(tmp_path, capsys, line):
    data = tmp_path / "sft.jsonl"
    data.write_text('{"prompt": "1+1=", "response": "2#2", "answer": "2"}\n' + line + "\n")
    assert main(["train-sft", "--data", str(data), "--out", str(tmp_path / "run"),
                 *MODEL_FLAGS]) == 1
    assert capsys.readouterr().err.startswith(f"error: {data} line 1: ")
    assert not (tmp_path / "run").exists()


def test_run_root_prefixes_relative_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("EKSFT_RUN_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_pretrain": 4, "n_sft": 2, "n_rl": 2, "n_eval": 2}))
    assert main(["gen-data", "--spec", str(spec), "--out", "data"]) == 0
    assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "abs")]) == 0
    assert (tmp_path / "root" / "data" / "eval.jsonl").exists()
    assert (tmp_path / "abs" / "eval.jsonl").exists() and not (tmp_path / "data").exists()


def test_pretrain_then_rl_reward_curve(tmp_path):
    data = _gen(tmp_path)
    assert main([
        "pretrain", "--data", str(data / "pretrain.jsonl"), "--out", str(tmp_path / "base"),
        "--epochs", "2", "--batch-size", "4", "--lr", "3e-3",
        "--seed", "1", *MODEL_FLAGS,
    ]) == 0
    assert main([
        "train-rl", "--init", str(tmp_path / "base/checkpoints/final"),
        "--prompts", str(data / "rl_prompts.jsonl"), "--out", str(tmp_path / "rl"),
        "--steps", "2", "--group-size", "4", "--prompts-per-step", "2",
        "--max-gen-len", "8", "--lr", "1e-4", "--seed", "2",
    ]) == 0
    lines = (tmp_path / "rl" / "metrics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("step,pg_loss,mean_reward")
    assert len(lines) == 3


def test_eval_memorized_checkpoint_near_perfect(tmp_path, capsys):
    data = _gen(tmp_path, counts=(4, 2, 4, 4))
    run = tmp_path / "overfit"
    assert main([
        "train-sft", "--method", "sft", "--data", str(data / "sft.jsonl"),
        "--out", str(run), "--epochs", "150", "--batch-size", "2",
        "--lr", "1e-2", "--seed", "0", *MODEL_FLAGS,
    ]) == 0
    capsys.readouterr()
    assert main([
        "eval", "--ckpt", str(run / "checkpoints/final"), "--data", str(data / "sft.jsonl"),
        "--n", "8", "--ks", "1,8", "--temperature", "0.2",
        "--out", str(tmp_path / "reports"), "--max-gen-len", "16",
    ]) == 0
    report = json.loads((tmp_path / "reports" / "eval.json").read_text())
    assert report["pass_at"]["8"] >= 0.99


def test_analyze_drift_identical_checkpoints(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    ckpt = str(run / "checkpoints" / "final")
    assert main(["analyze", "drift", "--before", ckpt, "--after", ckpt,
                 "--out", str(tmp_path / "drift")]) == 0
    report = json.loads((tmp_path / "drift" / "drift.json").read_text())
    assert all(v == 0.0 for v in report["global_frac_exceeding"].values())


def test_analyze_iou_and_plots(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data, method="eksft")
    assert main(["analyze", "iou", "--dump", str(run / "mask_dump.jsonl"),
                 "--out", str(tmp_path / "iou")]) == 0
    assert (tmp_path / "iou" / "iou.csv").exists()
    assert main(["analyze", "plots", "--run", str(run)]) == 0
    assert (run / "reports" / "loss.svg").exists()


def _circles(svg: Path) -> int:
    return svg.read_text().count("<circle")


def test_analyze_plots_on_an_rl_run(tmp_path, capsys):
    data = _gen(tmp_path)
    assert main([
        "pretrain", "--data", str(data / "pretrain.jsonl"), "--out", str(tmp_path / "base"),
        "--epochs", "1", "--batch-size", "4", "--seed", "1", *MODEL_FLAGS,
    ]) == 0
    rl = tmp_path / "rl"
    assert main([
        "train-rl", "--init", str(tmp_path / "base/checkpoints/final"),
        "--prompts", str(data / "rl_prompts.jsonl"), "--out", str(rl), "--steps", "3",
        "--group-size", "2", "--prompts-per-step", "2", "--max-gen-len", "4", "--seed", "2",
    ]) == 0
    capsys.readouterr()
    assert main(["analyze", "plots", "--run", str(rl)]) == 0
    names = ["reward.svg", "loss.svg", "entropy.svg"]
    assert capsys.readouterr().out == "".join(f"wrote {rl / 'reports' / n}\n" for n in names)
    assert [_circles(rl / "reports" / n) for n in names] == [3, 3, 3]


def test_analyze_plots_with_eval_and_drift_csv(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _train(tmp_path, data, method="eksft")
    ckpt, reports = run / "checkpoints", tmp_path / "reports"
    assert main(["eval", "--ckpt", str(ckpt / "final"), "--data", str(data / "eval.jsonl"),
                 "--n", "4", "--ks", "1,2,4", "--max-gen-len", "6", "--out", str(reports),
                 "--label", "eksft"]) == 0
    assert main(["analyze", "drift", "--before", str(ckpt / "start"),
                 "--after", str(ckpt / "final"), "--out", str(reports)]) == 0
    capsys.readouterr()
    assert main(["analyze", "plots", "--run", str(run), "--eval-csv", str(reports / "eksft.csv"),
                 "--drift-csv", str(reports / "drift.csv")]) == 0
    names = ["loss.svg", "entropy.svg", "kl.svg", "iou.svg", "passk.svg", "drift.svg"]
    assert capsys.readouterr().out == "".join(f"wrote {run / 'reports' / n}\n" for n in names)
    steps = 4  # 6 samples in batches of 3, 2 epochs
    assert [_circles(run / "reports" / n) for n in names[:5]] == [2 * steps, steps, steps, steps, 3]
    n_tensors = len(mdl.tensor_slices(mdl.load_checkpoint(str(ckpt / "final")).config))
    assert (run / "reports" / "drift.svg").read_text().count('class="bar"') == n_tensors + 1


def test_eval_label_with_a_comma_plots_one_point_per_k(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    reports = tmp_path / "reports"
    assert main(["eval", "--ckpt", str(run / "checkpoints" / "final"),
                 "--data", str(data / "eval.jsonl"), "--n", "4", "--ks", "1,2,4",
                 "--max-gen-len", "6", "--out", str(reports), "--label", "a,b"]) == 0
    assert (reports / "a,b.csv").read_text().splitlines()[1].startswith('"a,b",1,')
    assert main(["analyze", "plots", "--run", str(run), "--eval-csv", str(reports / "a,b.csv")]) == 0
    svg = (run / "reports" / "passk.svg").read_text()
    assert svg.count("<circle") == 3 and ">a,b</text>" in svg


def test_eval_label_with_xml_markup_plots_a_parsable_svg(tmp_path):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    reports = tmp_path / "reports"
    assert main(["eval", "--ckpt", str(run / "checkpoints" / "final"),
                 "--data", str(data / "eval.jsonl"), "--n", "4", "--ks", "1,4",
                 "--max-gen-len", "6", "--out", str(reports), "--label", "a&b"]) == 0
    assert main(["analyze", "plots", "--run", str(run), "--eval-csv", str(reports / "a&b.csv")]) == 0
    svg = ElementTree.fromstring((run / "reports" / "passk.svg").read_text())
    assert "a&b" in [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]


def test_plots_on_a_non_numeric_cell_exit_1_naming_file_row_and_column(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _train(tmp_path, data)
    bad = tmp_path / "eval.csv"
    bad.write_text("checkpoint,k,pass_at_k\nsft,1,0.5\nsft,run1,1,0.0\n")
    capsys.readouterr()
    assert main(["analyze", "plots", "--run", str(run), "--eval-csv", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad} row 2: column 'k' holds 'run1', not a number\n"


def test_float_field_given_as_an_integer_makes_one_run_id(tmp_path):
    """`{"learning_rate": 1}` in a file and `--lr 1` are one setting, so one config.json."""
    data = _gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 1, "epochs": 1}))
    argv = ["train-sft", "--data", str(data / "sft.jsonl"), "--batch-size", "3", *MODEL_FLAGS]
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert main([*argv, "--lr", "1", "--epochs", "1", "--out", str(tmp_path / "flag")]) == 0
    for name in ("config.json", "manifest.json", "metrics.csv"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
    assert '"learning_rate": 1.0,' in (tmp_path / "file" / "config.json").read_text()


def test_analyze_sweep_default_five_rows(tmp_path):
    data = _gen(tmp_path, counts=(4, 4, 4, 2))
    base = tmp_path / "base"
    assert main([
        "pretrain", "--data", str(data / "pretrain.jsonl"), "--out", str(base),
        "--epochs", "1", "--batch-size", "4", "--lr", "1e-3",
        "--seed", "1", *MODEL_FLAGS,
    ]) == 0
    assert main([
        "analyze", "sweep", "--data", str(data / "sft.jsonl"),
        "--eval-data", str(data / "eval.jsonl"), "--init", str(base / "checkpoints/final"),
        "--out", str(tmp_path / "sweep"), "--epochs", "1", "--batch-size", "4",
        "--lr", "1e-3", "--seed", "2", "--n", "4",
        "--max-gen-len", "10",
    ]) == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + default rho set {0.0, 0.1, 0.2, 0.3, 0.4}


def test_analyze_sweep_records_its_config_and_manifest(tmp_path):
    data = _gen(tmp_path, counts=(4, 4, 4, 2))
    ckpt = tmp_path / "base"
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    out = tmp_path / "sweep"
    assert main([
        "analyze", "sweep", "--data", str(data / "sft.jsonl"),
        "--eval-data", str(data / "eval.jsonl"), "--init", str(ckpt), "--out", str(out),
        "--rhos", "0.1,0.3", "--n", "4", "--eval-seed", "3", "--max-gen-len", "6",
        "--epochs", "1", "--batch-size", "4", "--lambda-h", "0.1",
    ]) == 0
    config = json.loads((out / "config.json").read_text())
    train = dataclasses.asdict(tr.SftConfig(method="eksft", epochs=1, batch_size=4, lambda_h=0.1))
    assert config == {
        # each run takes its rho from --rhos, and eksft reads no drop_fraction
        "train": {n: v for n, v in train.items() if n not in ("rho", "drop_fraction")},
        "rhos": [0.1, 0.3], "n": 4, "ks": [1, 4], "eval_seed": 3, "max_gen_len": 6,
        "init_checkpoint": str(ckpt),
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "analyze sweep"
    assert manifest["metrics_columns"] == (out / "sweep.csv").read_text().splitlines()[0].split(",")
    for key, name in (("data", "sft.jsonl"), ("eval_data", "eval.jsonl")):
        assert manifest["datasets"][key] == {"path": str(data / name),
                                             "sha256": tasks.dataset_hash(data / name)}


@pytest.mark.parametrize("command", ["pretrain", "train-sft", "analyze sweep"])
def test_grad_accum_other_than_1_exits_2(tmp_path, capsys, command):
    argv = {
        "pretrain": ["pretrain", "--data", str(tmp_path / "pretrain.jsonl")],
        "train-sft": ["train-sft", "--data", str(tmp_path / "sft.jsonl")],
        "analyze sweep": ["analyze", "sweep", "--data", str(tmp_path / "sft.jsonl"),
                          "--eval-data", str(tmp_path / "eval.jsonl"),
                          "--init", str(tmp_path / "ckpt")],
    }[command]
    for value in ("2", "0"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out"), "--grad-accum", value])
        assert exc.value.code == 2
        assert "--grad-accum: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grad_accum_1_writes_the_bytes_of_no_flag(tmp_path):
    data = _gen(tmp_path)
    runs = [_train(tmp_path, data, "eksft", out, extra)
            for out, extra in (("plain", ()), ("flag", ("--grad-accum", "1")))]
    names = sorted(str(p.relative_to(runs[0])) for p in runs[0].rglob("*") if p.is_file())
    assert "mask_dump.jsonl" in names and "config.json" in names
    for name in names:
        if name != "timings.csv":
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


@pytest.mark.parametrize("flag", ["--max-gen-len", "--n"])
def test_analyze_sweep_rejects_nonpositive_n_and_max_gen_len(tmp_path, capsys, monkeypatch, flag):
    data = _gen(tmp_path)
    ckpt = tmp_path / "base"
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    loads = []
    monkeypatch.setattr(mdl, "load_checkpoint", lambda *a: loads.append(a))
    assert main([
        "analyze", "sweep", "--data", str(data / "sft.jsonl"),
        "--eval-data", str(data / "eval.jsonl"), "--init", str(ckpt),
        "--out", str(tmp_path / "sweep"), "--rhos", "0.1", flag, "0",
    ]) == 2
    assert flag.lstrip("-").replace("-", "_") + "=0" in capsys.readouterr().err
    assert not loads and not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("rhos, name", [("0.2,0.2", "rho_0.2"), ("0.1,0.10000001", "rho_0.1")])
def test_analyze_sweep_rejects_ratios_that_share_a_run_directory(tmp_path, capsys, rhos, name):
    capsys.readouterr()
    assert main([
        "analyze", "sweep", "--data", str(tmp_path / "sft.jsonl"),
        "--eval-data", str(tmp_path / "eval.jsonl"), "--init", str(tmp_path / "missing"),
        "--out", str(tmp_path / "sweep"), "--rhos", rhos,
    ]) == 2
    assert f"repeats [{name!r}]" in capsys.readouterr().err  # before the checkpoint loads
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("cmd, flag", [
    ("pretrain", "--rho"), ("pretrain", "--lambda-h"), ("pretrain", "--lambda-kl"),
    ("pretrain", "--drop-fraction"),
    ("sweep", "--rho"), ("sweep", "--drop-fraction"), ("sweep", "--force"),
    ("train-rl", "--clip-low"), ("train-rl", "--clip-high"), ("gen-data", "--family"),
])
def test_flag_the_command_never_reads_exits_2(tmp_path, capsys, cmd, flag):
    argv = {
        "pretrain": ["pretrain", "--data", str(tmp_path / "pretrain.jsonl")],
        "sweep": ["analyze", "sweep", "--data", str(tmp_path / "sft.jsonl"),
                  "--eval-data", str(tmp_path / "eval.jsonl"), "--init", str(tmp_path / "ckpt")],
        "train-rl": ["train-rl", "--init", str(tmp_path / "ckpt"),
                     "--prompts", str(tmp_path / "rl_prompts.jsonl")],
        "gen-data": ["gen-data"],
    }[cmd]
    value = [] if flag == "--force" else ["0.5"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out"), flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join([flag, *value])}" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    data = _gen(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "learning_rate": 1e-3, "epochs": 1, "batch_size": 3, "seed": 5,
        "model": {"vocab_size": 32, "d_model": 16, "n_layers": 1, "n_heads": 2, "context_len": 48},
    }))
    out = tmp_path / "cfgrun"
    assert main([
        "train-sft", "--method", "sft", "--data", str(data / "sft.jsonl"),
        "--out", str(out), "--config", str(cfg), "--epochs", "2",
    ]) == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["train"]["epochs"] == 2  # flag wins
    assert resolved["train"]["learning_rate"] == 1e-3  # file value kept


def test_fresh_init_takes_the_seed_of_the_config_file(tmp_path, capsys):
    data = _gen(tmp_path)
    cfg = {"epochs": 1, "batch_size": 3, "seed": 5,
           "model": {"vocab_size": 32, "d_model": 16, "n_layers": 1, "n_heads": 2,
                     "context_len": 48}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = ["train-sft", "--data", str(data / "sft.jsonl"), "--config", str(path)]
    assert main([*argv, "--out", str(tmp_path / "file")]) == 0
    assert main([*argv, "--out", str(tmp_path / "flag"), "--seed", "5"]) == 0
    assert json.loads((tmp_path / "file" / "config.json").read_text())["model"]["seed"] == 5
    for suffix in (".manifest.json", ".weights.bin"):
        start = Path("checkpoints") / f"start{suffix}"
        assert (tmp_path / "file" / start).read_bytes() == (tmp_path / "flag" / start).read_bytes()

    cfg["model"]["seed"] = 0  # a model seed other than the run's is still refused
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "other")]) == 2
    assert "config key 'seed' is 0" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, cfg, message", [
    ("train-sft", {"learning_rat": 1.0}, "['learning_rat']"),
    ("train-sft", {"model": {"d_modle": 16}}, "['d_modle']"),
    ("train-sft", {"model": 5}, "must be a JSON object"),
    ("train-rl", {"steps": 2}, "['steps']"),
    ("gen-data", {"seed": 3, "bogus_key": 1}, "['bogus_key']"),
    ("pretrain", {"rho": 0.9}, "['rho']"),
    ("sweep", {"rho": 0.5}, "['rho']"),
    ("sweep", {"drop_fraction": 0.5}, "['drop_fraction']"),
    ("gen-data", {"family": "mod_add_chain"}, "['family']"),
    ("train-rl", {"clip_low": 0.2, "clip_high": 0.28}, "['clip_high', 'clip_low']"),
    ("train-sft", {"grad_accum": 1}, "['grad_accum']"),
    ("sweep", {"grad_accum": 1}, "['grad_accum']"),
])
def test_config_file_unknown_key_exits_2(tmp_path, capsys, cmd, cfg, message):
    data = _gen(tmp_path)
    ckpt = tmp_path / "ckpt"
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = {
        "train-sft": ["train-sft", "--data", str(data / "sft.jsonl"), "--config", str(path)],
        "train-rl": ["train-rl", "--init", str(ckpt), "--prompts", str(data / "rl_prompts.jsonl"),
                     "--config", str(path)],
        "gen-data": ["gen-data", "--spec", str(path)],
        "pretrain": ["pretrain", "--data", str(data / "pretrain.jsonl"), "--config", str(path)],
        "sweep": ["analyze", "sweep", "--data", str(data / "sft.jsonl"),
                  "--eval-data", str(data / "eval.jsonl"), "--init", str(ckpt),
                  "--config", str(path)],
    }[cmd]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys):
    data = _gen(tmp_path)
    path = tmp_path / "cfg.json"
    for cfg, message in (
        ({"epochs": "2"}, "epochs must be an integer, got '2'"),
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"batch_size": True, "epochs": 1}, "batch_size must be an integer, got True"),
        ({"learning_rate": False}, "learning_rate must be a number, got False"),
        ({"method": 1}, "method must be a string, got 1"),
    ):
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["train-sft", "--data", str(data / "sft.jsonl"), "--config", str(path),
                     "--out", str(tmp_path / "out"), *MODEL_FLAGS]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


UNREAD = [(method, name) for method, names in obj.METHODS.items()
          for name in cli._METHOD_FIELDS if name not in names]


@pytest.mark.parametrize("given", ["flag", "file key"])
@pytest.mark.parametrize("method, name", UNREAD)
def test_method_field_the_method_never_reads_exits_2(tmp_path, capsys, method, name, given):
    data = tmp_path / "sft.jsonl"
    data.write_text('{"prompt": "1+1=", "response": "2#2", "answer": "2"}\n')
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": method, name: 0.5} if given == "file key" else {}))
    extra = [] if given == "file key" else ["--method", method, cli.flag(name), "0.5"]
    assert main(["train-sft", "--data", str(data), "--config", str(path),
                 "--out", str(tmp_path / "out"), *MODEL_FLAGS, *extra]) == 2
    err = capsys.readouterr().err
    assert f"method {method!r} does not read [{name!r}]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", ["config key 'model'", "--d-model"])
def test_model_setting_with_init_exits_2(tmp_path, capsys, setting):
    data = _gen(tmp_path)
    ckpt = tmp_path / "ckpt"
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epochs": 1, "model": {"d_model": 16}}))
    extra = ["--config", str(path)] if setting.startswith("config") else ["--d-model", "16"]
    capsys.readouterr()
    assert main(["train-sft", "--data", str(data / "sft.jsonl"), "--init", str(ckpt),
                 "--out", str(tmp_path / "out"), *extra]) == 2
    assert setting in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_file_exits_2(tmp_path):
    data = _gen(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text("not json")
    assert main([
        "train-sft", "--method", "sft", "--data", str(data / "sft.jsonl"),
        "--out", str(tmp_path / "x"), "--config", str(cfg),
    ]) == 2


def test_non_integer_model_size_exits_2(tmp_path, capsys):
    data = _gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"d_model": 16.0, "context_len": 48}}))
    capsys.readouterr()
    assert main(["train-sft", "--data", str(data / "sft.jsonl"), "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "d_model must be an integer, got 16.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd, cfg", [
    ("pretrain", {"method": "eksft", "rho": 0.5}),
    ("train-sft", {"supervise_prompt": True}),
    ("sweep", {"method": "sft"}),
    ("sweep", {"supervise_prompt": True}),
])
def test_config_file_contradicting_the_command_exits_2(tmp_path, capsys, cmd, cfg):
    data = _gen(tmp_path)
    ckpt = tmp_path / "ckpt"
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = {
        "pretrain": ["pretrain", "--data", str(data / "pretrain.jsonl")],
        "train-sft": ["train-sft", "--data", str(data / "sft.jsonl")],
        "sweep": ["analyze", "sweep", "--data", str(data / "sft.jsonl"),
                  "--eval-data", str(data / "eval.jsonl"), "--init", str(ckpt)],
    }[cmd]
    capsys.readouterr()
    assert main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    key = next(iter(cfg))
    assert f"config key {key!r} is {cfg[key]!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_agreeing_with_the_command_is_accepted(tmp_path):
    data = _gen(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "sft", "supervise_prompt": True, "epochs": 1}))
    assert main(["pretrain", "--data", str(data / "pretrain.jsonl"), "--config", str(cfg),
                 "--out", str(tmp_path / "out"), *MODEL_FLAGS]) == 0


@pytest.mark.parametrize("flag", ["--ks", "--thresholds", "--rhos"])
def test_malformed_list_flag_exits_2(tmp_path, capsys, flag):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "base")
    mdl.save_checkpoint(mdl.init(mdl.ModelConfig(d_model=16, context_len=48)), ckpt)
    argv = {
        "--ks": ["eval", "--ckpt", ckpt, "--data", str(data / "eval.jsonl")],
        "--thresholds": ["analyze", "drift", "--before", ckpt, "--after", ckpt],
        "--rhos": ["analyze", "sweep", "--data", str(data / "sft.jsonl"),
                   "--eval-data", str(data / "eval.jsonl"), "--init", ckpt],
    }[flag]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1,x", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# each command's flags that are not config fields
# (--grad-accum takes only 1 and sets nothing)
OWN_FLAGS = {
    "gen-data": {"--spec", "--out", "--force"},
    "pretrain": {"--data", "--out", "--init", "--config", "--force", "--grad-accum"},
    "train-sft": {"--data", "--out", "--init", "--config", "--force", "--grad-accum"},
    "train-rl": {"--init", "--prompts", "--out", "--config", "--force"},
    "analyze sweep": {"--data", "--eval-data", "--init", "--out", "--rhos", "--n", "--eval-seed",
                      "--max-gen-len", "--config", "--grad-accum"},
}


def _other_value(cls, name):
    """A valid value of field `name` other than its default, where one exists."""
    default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
    if isinstance(default, str):
        return {"method": "eksft"}.get(name, default)
    return default * 2 or type(default)(1)


# settable values: the config fields read plus the model sizes, per method for train-sft
SETTABLE = {"gen-data": 8, "pretrain": 10, "train-rl": 8, "analyze sweep": 7,
            "train-sft": {"sft": 11, "dft": 11, "eksft": 14, "random_mask": 14, "global_reg": 13}}


@pytest.mark.parametrize("command", sorted(cli.READS))
def test_each_field_read_is_one_flag_and_one_file_key(command):
    parser = cli.build_parser()
    for name in command.split():
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
    cls, reads, fixed = cli.READS[command]
    sizes = cli._MODEL_SIZES if command in ("pretrain", "train-sft") else ()
    assert options == OWN_FLAGS[command] | {cli.flag(n) for n in reads + sizes}
    required = [s for a in parser._actions if a.required for s in (a.option_strings[0], "x")]

    counts = SETTABLE[command] if command == "train-sft" else {None: SETTABLE[command]}
    assert set(counts) == (set(obj.METHODS) if command == "train-sft" else {None})
    for method, count in counts.items():
        read = cli.method_reads(reads, method) if method else reads
        assert len(read + sizes) == count, method
        # (dataclass, fields the command accepts, fields this run reads, fixed fields)
        parts = [(cls, reads, read, fixed)]
        if sizes:
            parts.append((mdl.ModelConfig, sizes, sizes, {}))
        for kind, accepted, names, fixed_ in parts:
            values = {name: _other_value(kind, name) for name in names}
            if "method" in values:
                values["method"] = method

            def build(file_cfg, argv):
                args = parser.parse_args([*required, *argv])
                return cli._build(kind, accepted, fixed_, file_cfg, args)

            from_file = build(values, [])
            assert {n: getattr(from_file, n) for n in names} == values
            assert all(getattr(from_file, k) == v for k, v in fixed_.items())
            for name in names:
                rest = {k: v for k, v in values.items() if k != name}
                assert build(rest, [cli.flag(name), str(values[name])]) == from_file, name
