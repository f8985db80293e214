import json
from xml.etree import ElementTree

import numpy as np
import pytest

from eksft import analyze as ana
from eksft import model as mdl
from eksft import tasks
from eksft import train as tr
from eksft.errors import ExportError, InputError


def _model(seed=0):
    cfg = mdl.ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, context_len=48, seed=seed)
    return mdl.init(cfg)


# -----------------------------------------------------------------------------
# drift
# -----------------------------------------------------------------------------


def test_drift_identical_params_zero():
    p = _model()
    report = ana.parameter_drift(p, p.copy())
    assert report.global_mean_rel_change == 0.0
    assert all(v == 0.0 for v in report.global_frac_exceeding.values())


def test_drift_simple_arithmetic():
    p = _model()
    q = p.copy()
    q.tensors["tok_emb"][:] = p.tensors["tok_emb"] * 1.01  # +1% everywhere
    report = ana.parameter_drift(p, q, thresholds=(1e-3, 1e-1))
    row = next(t for t in report.per_tensor if t.name == "tok_emb")
    assert row.frac_exceeding[1e-3] == 1.0
    assert row.frac_exceeding[1e-1] == 0.0
    # |a - b| / (|b| + eps) with b=1, a=1.01
    p2 = _model()
    q2 = p2.copy()
    p2.tensors["lnf.g"][:] = 1.0
    q2.tensors["lnf.g"][:] = 1.01
    row = next(
        t for t in ana.parameter_drift(p2, q2, thresholds=(1e-3, 1e-1)).per_tensor
        if t.name == "lnf.g"
    )
    assert row.mean_rel_change == pytest.approx(0.01, rel=1e-6)


def test_drift_rejects_config_mismatch():
    a = _model(seed=0)
    cfg_b = mdl.ModelConfig(vocab_size=32, d_model=32, n_layers=1, n_heads=2, context_len=48)
    b = mdl.init(cfg_b)
    with pytest.raises(InputError):
        ana.parameter_drift(a, b)


def test_drift_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    p = _model(seed=2)
    q = p.copy()
    for name in q.tensors:
        q.tensors[name] += rng.normal(0, 1e-3, q.tensors[name].shape)
    thresholds = (1e-3, 1e-2)
    report = ana.parameter_drift(p, q, thresholds)
    # scalar-by-scalar oracle
    changes = []
    for name in p.tensors:
        b = p.tensors[name].reshape(-1)
        a = q.tensors[name].reshape(-1)
        changes.extend(abs(x - y) / (abs(y) + 1e-8) for x, y in zip(a, b))
    changes = np.array(changes)
    assert report.global_mean_rel_change == pytest.approx(changes.mean(), rel=1e-12)
    for t in thresholds:
        assert report.global_frac_exceeding[t] == pytest.approx((changes > t).mean(), abs=1e-12)


def test_drift_fractions_monotone_in_threshold():
    rng = np.random.default_rng(3)
    p = _model(seed=4)
    q = p.copy()
    for name in q.tensors:
        q.tensors[name] += rng.normal(0, 1e-2, q.tensors[name].shape)
    report = ana.parameter_drift(p, q)
    fr = [report.global_frac_exceeding[t] for t in report.thresholds]
    assert all(b <= a for a, b in zip(fr, fr[1:]))


# -----------------------------------------------------------------------------
# IoU series
# -----------------------------------------------------------------------------


def _write_dump(path, rows):
    with open(path, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")


def test_iou_series_identical_sets(tmp_path):
    rows = []
    for step in range(3):
        for pos in range(4):
            rows.append(
                {"step": step, "seq": 0, "pos": pos, "entropy": 0.5, "kl": 0.5,
                 "in_mH": pos < 2, "in_mKL": pos < 2}
            )
    path = tmp_path / "dump.jsonl"
    _write_dump(path, rows)
    series, summary = ana.iou_series(path)
    assert [v for _, v in series] == [1.0, 1.0, 1.0]
    assert summary["mean"] == 1.0
    assert summary["reference_large_scale"] == {"min": 0.09, "max": 0.59, "mean": 0.50}


def test_iou_series_disjoint_sets(tmp_path):
    rows = [
        {"step": 0, "seq": 0, "pos": 0, "entropy": 1, "kl": 0, "in_mH": True, "in_mKL": False},
        {"step": 0, "seq": 0, "pos": 1, "entropy": 0, "kl": 1, "in_mH": False, "in_mKL": True},
    ]
    path = tmp_path / "dump.jsonl"
    _write_dump(path, rows)
    series, _ = ana.iou_series(path)
    assert series == [(0, 0.0)]


def test_iou_series_skips_malformed(tmp_path):
    path = tmp_path / "dump.jsonl"
    with open(path, "w") as fh:
        fh.write('{"step": 0, "seq": 0, "pos": 0, "entropy": 1, "kl": 0, "in_mH": true, "in_mKL": true}\n')
        fh.write("not json\n")
        fh.write('{"step": 0, "missing": "fields"}\n')
    series, summary = ana.iou_series(path)
    assert summary["skipped_lines"] == 2
    assert len(series) == 1


def test_iou_series_matches_set_oracle(tmp_path):
    rng = np.random.default_rng(5)
    rows = []
    oracle = {}
    for step in range(10):
        mh, mkl = set(), set()
        for pos in range(12):
            in_h = bool(rng.random() < 0.4)
            in_k = bool(rng.random() < 0.4)
            rows.append({"step": step, "seq": 0, "pos": pos, "entropy": 0.1, "kl": 0.1,
                         "in_mH": in_h, "in_mKL": in_k})
            if in_h:
                mh.add((0, pos))
            if in_k:
                mkl.add((0, pos))
        union = mh | mkl
        oracle[step] = 1.0 if not union else len(mh & mkl) / len(union)
    path = tmp_path / "dump.jsonl"
    _write_dump(path, rows)
    series, _ = ana.iou_series(path)
    for step, v in series:
        assert v == oracle[step]


def test_write_iou_csv(tmp_path):
    series = [(0, 0.5), (1, 0.25)]
    summary = {"steps": 2, "skipped_lines": 0, "min": 0.25, "max": 0.5, "mean": 0.375,
               "reference_large_scale": dict(ana.REFERENCE_IOU)}
    out = tmp_path / "iou.csv"
    ana.write_iou_csv(series, summary, out)
    assert out.read_text().splitlines()[0] == "step,iou"
    assert json.loads(out.with_suffix(".summary.json").read_text())["mean"] == 0.375


# -----------------------------------------------------------------------------
# ratio sweep
# -----------------------------------------------------------------------------


def test_ratio_sweep(tmp_path):
    base = _model(seed=6)
    spec = tasks.TaskSpec(n_pretrain=0, n_sft=6, n_rl=0, n_eval=4, seed=7)
    splits = tasks.generate_splits(spec)
    config = tr.SftConfig(method="eksft", learning_rate=1e-3, epochs=1, batch_size=3,
                          lambda_h=0.05, lambda_kl=0.05, seed=1)
    rhos = (0.0, 0.2)
    rows = ana.ratio_sweep(base, splits["sft"], splits["eval"], config, rhos,
                           tmp_path, n_per_prompt=4, ks=(1, 4), max_gen_len=10)
    csv_lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(csv_lines) == len(rhos) + 1
    assert csv_lines[0] == "rho,pass_at_1,pass_at_4,drift_frac_1e-3,mean_entropy,final_loss"
    assert rows[0]["rho"] == 0.0
    # at n=2 the only k is 1: pass_at_1 is written once
    ana.ratio_sweep(base, splits["sft"], splits["eval"], config, (0.2,), tmp_path / "n2",
                    n_per_prompt=2, ks=(1,), max_gen_len=10)
    header = (tmp_path / "n2" / "sweep.csv").read_text().splitlines()[0]
    assert header == "rho,pass_at_1,drift_frac_1e-3,mean_entropy,final_loss"

    # rho=0 must reproduce plain sft metrics exactly
    params = base.copy()
    reference = mdl.snapshot_reference(base)
    sft_cfg = tr.SftConfig(method="sft", learning_rate=1e-3, epochs=1, batch_size=3, seed=1)
    _, sft_records = tr.train_sft(params, reference, splits["sft"], sft_cfg)
    rho0_metrics = (tmp_path / "rho_0" / "metrics.csv").read_text().splitlines()
    for rec, line in zip(sft_records, rho0_metrics[1:]):
        assert repr(rec.loss_total) == line.split(",")[3]


def test_ratio_sweep_rejects_bad_rho(tmp_path):
    base = _model(seed=6)
    from eksft.errors import ConfigError

    with pytest.raises(ConfigError):
        ana.ratio_sweep(base, [], [], tr.SftConfig(), (0.5, 2.0), tmp_path)


# -----------------------------------------------------------------------------
# SVG export
# -----------------------------------------------------------------------------


def test_line_chart_deterministic_and_counts_points():
    series = [("a", [(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)])]
    svg1 = ana.line_chart(series, "t", "x", "y")
    svg2 = ana.line_chart(series, "t", "x", "y")
    assert svg1 == svg2
    assert svg1.count("<circle") == 3


def test_line_chart_empty_series_no_crash():
    svg = ana.line_chart([], "t", "x", "y")
    assert svg.startswith("<svg")
    assert "no data" in svg


def test_charts_escape_their_text():
    """Titles and labels holding XML markup read back as written; others keep their bytes."""
    label = "a&b<c"
    charts = [ana.line_chart([(label, [(1.0, 0.5), (2.0, 0.7)])], label, label, label),
              ana.bar_chart([label, "GLOBAL"], [0.2, 0.4], label, label)]
    for svg in charts:
        texts = [t.text for t in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count(label) == (4 if "<circle" in svg else 3)
        assert "a&amp;b&lt;c" in svg
    plain = ana.line_chart([("sft", [(1.0, 0.5)])], "pass@k", "k", "pass@k")
    assert ">sft</text>" in plain and ">pass@k</text>" in plain


def test_plot_series_csv(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("step,loss\n0,1.5\n1,1.2\n2,\n")
    out = tmp_path / "loss.svg"
    n = ana.plot_series_csv(csv_path, "step", ["loss"], "loss", out)
    assert n == 2  # empty cell skipped
    assert out.read_text().count("<circle") == 2


def test_plot_series_csv_missing_column(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("step,loss\n0,1.5\n")
    with pytest.raises(ExportError) as exc:
        ana.plot_series_csv(csv_path, "step", ["bogus"], "t", tmp_path / "x.svg")
    assert "bogus" in str(exc.value)


def test_export_training_plots_point_counts(tmp_path):
    header = ",".join(tr.SFT_METRICS_COLUMNS)
    row0 = "0,0,eksft,2.0,2.0,1.0,0.1,10,2,3.0,0.1,0.5"
    row1 = "1,0,eksft,1.8,1.8,1.1,0.2,10,2,2.9,0.2,0.6"
    (tmp_path / "metrics.csv").write_text(f"{header}\n{row0}\n{row1}\n")
    made = ana.export_training_plots(tmp_path / "metrics.csv", tmp_path / "reports")
    assert {p.name for p in made} == {"loss.svg", "entropy.svg", "kl.svg", "iou.svg"}
    assert (tmp_path / "reports" / "entropy.svg").read_text().count("<circle") == 2
    again = ana.export_training_plots(tmp_path / "metrics.csv", tmp_path / "reports2")
    assert (tmp_path / "reports" / "loss.svg").read_bytes() == (
        tmp_path / "reports2" / "loss.svg"
    ).read_bytes()


def test_export_pass_at_k_plot(tmp_path):
    (tmp_path / "eval.csv").write_text(
        "checkpoint,k,pass_at_k\nsft,1,0.5\nsft,4,0.8\neksft,1,0.5\neksft,4,0.9\n"
    )
    n = ana.export_pass_at_k_plot(tmp_path / "eval.csv", tmp_path / "passk.svg")
    assert n == 4
    svg = (tmp_path / "passk.svg").read_text()
    assert svg.count("<circle") == 4


def test_plot_readers_refuse_a_cell_that_is_not_a_number(tmp_path):
    def loss_plot(path, out):
        return ana.plot_series_csv(path, "step", ["loss_total"], "loss", out)

    cases = [
        (loss_plot, "step,loss_total\n0,1.5\n1,nope\n", "row 2: column 'loss_total' holds 'nope'"),
        (loss_plot, "step,loss_total\nzero,1.5\n", "row 1: column 'step' holds 'zero'"),
        (ana.export_pass_at_k_plot, "checkpoint,k,pass_at_k\nsft,1,high\n",
         "row 1: column 'pass_at_k' holds 'high'"),
        (ana.export_pass_at_k_plot, "checkpoint,k,pass_at_k\nsft,1,0.5\nsft,4\n",
         "row 2: column 'pass_at_k' holds None"),
        (ana.export_drift_plot, "tensor,mean_rel_change,frac_gt_0.001\ntok_emb,0.1,\n",
         "row 1: column 'frac_gt_0.001' holds ''"),
    ]
    for i, (export, text, message) in enumerate(cases):
        path, out = tmp_path / f"{i}.csv", tmp_path / f"{i}.svg"
        path.write_text(text)
        with pytest.raises(ExportError) as err:
            export(path, out)
        assert str(err.value) == f"{path} {message}, not a number"
        assert not out.exists()


def test_export_drift_plot(tmp_path):
    p = _model(seed=8)
    q = p.copy()
    q.tensors["tok_emb"][:] *= 1.01
    report = ana.parameter_drift(p, q)
    _, drift_csv = ana.write_drift_report(report, tmp_path)
    n = ana.export_drift_plot(drift_csv, tmp_path / "drift.svg")
    svg = (tmp_path / "drift.svg").read_text()
    assert svg.count('class="bar"') == n
