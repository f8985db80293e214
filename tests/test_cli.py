import json
from pathlib import Path

import pytest

from eksft import model as mdl
from eksft.cli import main

MODEL_FLAGS = ["--vocab-size", "32", "--d-model", "16", "--n-layers", "1",
               "--n-heads", "2", "--context-len", "48"]


def _gen(tmp_path, seed=3, counts=(8, 6, 6, 4)) -> Path:
    tmp_path.mkdir(parents=True, exist_ok=True)
    data = tmp_path / "data"
    spec = {
        "family": "mod_add_chain",
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
        "--grad-accum", "1", "--lr", "1e-3", "--seed", "5", *MODEL_FLAGS, *extra,
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
        "--epochs", "2", "--batch-size", "4", "--grad-accum", "1", "--lr", "3e-3",
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
        "--out", str(run), "--epochs", "150", "--batch-size", "2", "--grad-accum", "1",
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


def test_analyze_sweep_default_five_rows(tmp_path):
    data = _gen(tmp_path, counts=(4, 4, 4, 2))
    base = tmp_path / "base"
    assert main([
        "pretrain", "--data", str(data / "pretrain.jsonl"), "--out", str(base),
        "--epochs", "1", "--batch-size", "4", "--grad-accum", "1", "--lr", "1e-3",
        "--seed", "1", *MODEL_FLAGS,
    ]) == 0
    assert main([
        "analyze", "sweep", "--data", str(data / "sft.jsonl"),
        "--eval-data", str(data / "eval.jsonl"), "--init", str(base / "checkpoints/final"),
        "--out", str(tmp_path / "sweep"), "--epochs", "1", "--batch-size", "4",
        "--grad-accum", "1", "--lr", "1e-3", "--seed", "2", "--n", "4",
        "--max-gen-len", "10",
    ]) == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + default rho set {0.0, 0.1, 0.2, 0.3, 0.4}


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


def test_config_file_with_flag_override(tmp_path):
    data = _gen(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "learning_rate": 1e-3, "epochs": 1, "batch_size": 3, "grad_accum": 1, "seed": 5,
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


@pytest.mark.parametrize("cmd, cfg, message", [
    ("train-sft", {"learning_rat": 1.0}, "['learning_rat']"),
    ("train-sft", {"model": {"d_modle": 16}}, "['d_modle']"),
    ("train-sft", {"model": 5}, "must be a JSON object"),
    ("train-rl", {"steps": 2}, "['steps']"),
    ("gen-data", {"family": "mod_add_chain", "bogus_key": 1}, "['bogus_key']"),
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
    }[cmd]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_file_exits_2(tmp_path):
    data = _gen(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text("not json")
    assert main([
        "train-sft", "--method", "sft", "--data", str(data / "sft.jsonl"),
        "--out", str(tmp_path / "x"), "--config", str(cfg),
    ]) == 2


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
