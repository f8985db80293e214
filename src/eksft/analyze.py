"""Post-hoc analyzers: parameter drift, mask-overlap series, ratio sweep, plots.

All file outputs are deterministic: identical inputs give byte-identical
CSV and SVG bytes. SVGs are written by hand (no plotting library) for
exactly that reason, with their text XML-escaped, and every file goes
through `files`. The plot readers refuse a missing column or a cell that is
not a number with an ExportError naming the file, row and column.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import files
from . import model as mdl
from . import selection as sel
from .errors import ConfigError, ExportError, InputError
from .evaluation import evaluate
from .tasks import Sample
from .train import SftConfig, train_sft

log = logging.getLogger(__name__)

DEFAULT_DRIFT_THRESHOLDS = (1e-3, 1e-2, 1e-1)
DRIFT_DENOM_EPS = 1e-8

# Large-scale reference statistics for the overlap of the two selection
# criteria, reported next to desk-scale numbers for context; never asserted.
REFERENCE_IOU = {"min": 0.09, "max": 0.59, "mean": 0.50}


# -----------------------------------------------------------------------------
# parameter drift
# -----------------------------------------------------------------------------


@dataclass
class TensorDrift:
    name: str
    mean_rel_change: float
    frac_exceeding: dict[float, float]


@dataclass
class DriftReport:
    thresholds: tuple[float, ...]
    per_tensor: list[TensorDrift]
    global_mean_rel_change: float
    global_frac_exceeding: dict[float, float]


def parameter_drift(
    before: mdl.ParameterSet,
    after: mdl.ParameterSet,
    thresholds=DEFAULT_DRIFT_THRESHOLDS,
) -> DriftReport:
    """Per-scalar relative change |a - b| / (|b| + 1e-8), aggregated per tensor."""
    if before.config != after.config:
        raise InputError("before/after checkpoints have different configs")
    thresholds = tuple(sorted(float(t) for t in thresholds))
    rel = np.abs(after.flat - before.flat) / (np.abs(before.flat) + DRIFT_DENOM_EPS)
    per_tensor = [
        TensorDrift(
            name=name,
            mean_rel_change=float(rel[s].mean()),
            frac_exceeding={t: float((rel[s] > t).mean()) for t in thresholds},
        )
        for name, s in mdl.tensor_slices(before.config).items()
    ]
    return DriftReport(
        thresholds=thresholds,
        per_tensor=per_tensor,
        global_mean_rel_change=float(rel.mean()),
        global_frac_exceeding={t: float((rel > t).mean()) for t in thresholds},
    )


def write_drift_report(report: DriftReport, out_dir: str | Path) -> tuple[Path, Path]:
    """drift.json, and drift.csv with one row per tensor and a GLOBAL row; returns both paths.
    A threshold names its key and column by its repr."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path, csv_path = out_dir / "drift.json", out_dir / "drift.csv"
    files.write_json(json_path, {
        "thresholds": list(report.thresholds),
        "global_mean_rel_change": report.global_mean_rel_change,
        "global_frac_exceeding": {repr(k): v for k, v in report.global_frac_exceeding.items()},
        "per_tensor": [
            {"name": t.name, "mean_rel_change": t.mean_rel_change,
             "frac_exceeding": {repr(k): v for k, v in t.frac_exceeding.items()}}
            for t in report.per_tensor
        ],
    })
    rows = [(t.name, t.mean_rel_change, t.frac_exceeding) for t in report.per_tensor]
    rows.append(("GLOBAL", report.global_mean_rel_change, report.global_frac_exceeding))
    files.write_csv(
        csv_path, ["tensor", "mean_rel_change"] + [f"frac_gt_{t!r}" for t in report.thresholds],
        ([name, mean, *(frac[t] for t in report.thresholds)] for name, mean, frac in rows))
    return json_path, csv_path


# -----------------------------------------------------------------------------
# mask-overlap (IoU) series from a mask dump
# -----------------------------------------------------------------------------


def iou_series(dump_path: str | Path) -> tuple[list[tuple[int, float]], dict]:
    """Per-step IoU of the two selection sets from a mask dump JSONL.

    Malformed lines are skipped and counted. Returns ([(step, iou), ...],
    summary) where summary carries min/max/mean, the skip count, and the
    large-scale reference row for side-by-side reporting.
    """
    by_step: dict[int, tuple[set, set]] = {}
    skipped = 0
    with open(dump_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                step = int(row["step"])
                key = (int(row["seq"]), int(row["pos"]))
                in_mh = bool(row["in_mH"])
                in_mkl = bool(row["in_mKL"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                skipped += 1
                continue
            mh, mkl = by_step.setdefault(step, (set(), set()))
            if in_mh:
                mh.add(key)
            if in_mkl:
                mkl.add(key)
    series = [
        (step, sel.iou(len(mh & mkl), len(mh | mkl))) for step, (mh, mkl) in sorted(by_step.items())
    ]
    values = [v for _, v in series]
    summary = {
        "steps": len(series),
        "skipped_lines": skipped,
        "min": min(values) if values else None,
        "max": max(values) if values else None,
        "mean": float(np.mean(values)) if values else None,
        "reference_large_scale": dict(REFERENCE_IOU),
    }
    return series, summary


def write_iou_csv(series, summary, path: str | Path) -> None:
    files.write_csv(path, ["step", "iou"], series)
    files.write_json(Path(path).with_suffix(".summary.json"), summary)


# -----------------------------------------------------------------------------
# masking-ratio sweep
# -----------------------------------------------------------------------------

def _check_mask_sizes(dump_path: Path, rho: float) -> None:
    """Mechanical invariant: each step's batch selected exactly ceil(rho * |T|)."""
    groups: dict[int, list[dict]] = {}
    with open(dump_path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            groups.setdefault(row["step"], []).append(row)
    for step, rows in groups.items():
        k = sel.selected_count(rho, len(rows))
        n_h = sum(1 for r in rows if r["in_mH"])
        n_kl = sum(1 for r in rows if r["in_mKL"])
        if n_h != k or n_kl != k:
            raise InputError(
                f"mask size mismatch at step {step}: |mH|={n_h}, |mKL|={n_kl}, k={k}"
            )


def sweep_dir_names(rhos: list[float]) -> list[str]:
    """Each ratio's run directory; one outside [0, 1], or two sharing a name, is a ConfigError."""
    for r in rhos:
        sel.selected_count(r, 1)  # validates range
    names = [f"rho_{r:g}" for r in rhos]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"every ratio must name its own run directory, got repeats {repeated}")
    return names


def sweep_columns(ks) -> list[str]:
    """The columns of sweep.csv: the second pass@ column is the largest k's, if above 1."""
    top = [f"pass_at_{max(ks)}"] if max(ks) > 1 else []
    return ["rho", "pass_at_1", *top, "drift_frac_1e-3", "mean_entropy", "final_loss"]


def ratio_sweep(
    base_params: mdl.ParameterSet,
    dataset: list[Sample],
    eval_set: list[Sample],
    base_config: SftConfig,
    rhos,
    out_dir: str | Path,
    n_per_prompt: int = 32,
    ks=(1, 4, 8, 16, 32),
    eval_seed: int = 0,
    max_gen_len: int = 64,
) -> list[dict]:
    """Train + evaluate once per masking ratio with shared seeds; emit one CSV.

    Its columns are rho, pass_at_1, pass_at_{max(ks)} (when max(ks) > 1),
    drift_frac_1e-3, mean_entropy and final_loss. A child-run failure aborts
    the sweep but the rows finished so far are written first. Only mechanical
    facts are asserted (mask sizes match k); performance trends are reported,
    not checked.
    """
    rhos = [float(r) for r in rhos]
    names = sweep_dir_names(rhos)
    top = f"pass_at_{max(ks)}"
    columns = sweep_columns(ks)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    csv_path = out_dir / "sweep.csv"
    try:
        for rho, name in zip(rhos, names):
            run_dir = out_dir / name
            params = base_params.copy()
            reference = mdl.snapshot_reference(base_params)
            cfg = replace(base_config, method="eksft", rho=rho)
            params, records = train_sft(params, reference, dataset, cfg, run_dir=run_dir)
            dump = run_dir / "mask_dump.jsonl"
            if dump.exists():
                _check_mask_sizes(dump, rho)
            report = evaluate(
                params, eval_set, n_per_prompt, ks, temperature=1.0,
                seed=eval_seed, max_len=max_gen_len,
            )
            drift = parameter_drift(base_params, params)
            rows.append(
                {
                    "rho": rho,
                    "pass_at_1": report.pass_at[1],
                    top: report.pass_at[max(ks)],
                    "drift_frac_1e-3": drift.global_frac_exceeding[1e-3],
                    "mean_entropy": report.mean_response_entropy,
                    "final_loss": records[-1].loss_total,
                }
            )
    finally:
        files.write_csv(csv_path, columns, ([float(row[c]) for c in columns] for row in rows))
    return rows


# -----------------------------------------------------------------------------
# deterministic SVG charts
# -----------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 36, 46


def _fmt_num(x: float) -> str:
    return f"{x:.6g}"


def _scale(lo: float, hi: float) -> tuple[float, float]:
    if lo == hi:
        pad = 0.5 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    """`text` with &, < and > escaped, for an SVG <text> element.

    xml.sax imports urllib.request, http.client and ssl, about 2 MB of
    resident memory, so only the commands that draw a chart import it.
    """
    from xml.sax.saxutils import escape

    return escape(text)


def _axes(title: str, xlabel: str, ylabel: str, xlo, xhi, ylo, yhi) -> list[str]:
    px, py = _W - _ML - _MR, _H - _MT - _MB
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{px}" height="{py}" fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14" font-family="sans-serif">{title}</text>',
        f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" font-size="12" font-family="sans-serif">{xlabel}</text>',
        f'<text x="14" y="{_H // 2}" text-anchor="middle" font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 14 {_H // 2})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        xp = _ML + frac * px
        yp = _H - _MB - frac * py
        parts.append(
            f'<text x="{_fmt_num(xp)}" y="{_H - _MB + 16}" text-anchor="middle" font-size="10" '
            f'font-family="sans-serif">{_fmt_num(xv)}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{_fmt_num(yp + 3)}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{_fmt_num(yv)}</text>'
        )
    return parts


def line_chart(series: list[tuple[str, list[tuple[float, float]]]], title: str, xlabel: str, ylabel: str) -> str:
    """Standalone SVG line chart; one <circle> per data point."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
    ]
    if not xs:
        parts += _axes(title, xlabel, ylabel, 0, 1, 0, 1)
        parts.append(
            f'<text x="{_W // 2}" y="{_H // 2}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif" fill="#999999">no data</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    xlo, xhi = _scale(min(xs), max(xs))
    ylo, yhi = _scale(min(ys), max(ys))
    px, py = _W - _ML - _MR, _H - _MT - _MB

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * px

    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * py

    parts += _axes(title, xlabel, ylabel, xlo, xhi, ylo, yhi)
    for idx, (label, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(pts) > 1:
            coords = " ".join(f"{_fmt_num(sx(x))},{_fmt_num(sy(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in pts:
            parts.append(
                f'<circle cx="{_fmt_num(sx(x))}" cy="{_fmt_num(sy(y))}" r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * idx}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart(labels: list[str], values: list[float], title: str, ylabel: str) -> str:
    """Standalone SVG bar chart; one <rect class="bar"> per value."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
    ]
    if not values:
        parts += _axes(title, "", ylabel, 0, 1, 0, 1)
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    ylo, yhi = _scale(min(0.0, min(values)), max(0.0, max(values)))
    px, py = _W - _ML - _MR, _H - _MT - _MB
    parts += _axes(title, "", ylabel, 0, len(values), ylo, yhi)

    def sy(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * py

    width = px / len(values)
    for i, (label, v) in enumerate(zip(labels, values)):
        x0 = _ML + i * width + width * 0.15
        y_top = min(sy(v), sy(0.0))
        h = abs(sy(v) - sy(0.0))
        parts.append(
            f'<rect class="bar" x="{_fmt_num(x0)}" y="{_fmt_num(y_top)}" width="{_fmt_num(width * 0.7)}" '
            f'height="{_fmt_num(h)}" fill="{_PALETTE[0]}"/>'
        )
        parts.append(
            f'<text x="{_fmt_num(x0 + width * 0.35)}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="9" font-family="sans-serif">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -----------------------------------------------------------------------------
# CSV -> SVG exporters
# -----------------------------------------------------------------------------


def _read_csv(path: str | Path, required=()) -> tuple[list[str], list[dict]]:
    """Header and rows; a column of `required` missing from a non-empty header is an ExportError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = list(reader.fieldnames or []), list(reader)
    missing = [col for col in required if header and col not in header]
    if missing:
        raise ExportError(f"column {missing[0]!r} missing from {path}")
    return header, rows


def _number(path: str | Path, i: int, row: dict, col: str) -> float:
    """Cell `col` of data row i (from 1) as a float; else an ExportError naming file, row and column."""
    try:
        return float(row[col])
    except (TypeError, ValueError):
        raise ExportError(f"{path} row {i}: column {col!r} holds {row[col]!r}, "
                          f"not a number") from None


def plot_series_csv(
    csv_path: str | Path, x_col: str, y_cols: list[str], title: str, out_svg: str | Path
) -> int:
    """Plot columns of a CSV as lines; returns the number of points drawn.

    Rows whose y-cell is empty are skipped (e.g. mask IoU on methods without
    masks); a missing column, or a cell that is not a number, is an error
    naming it.
    """
    _, rows = _read_csv(csv_path, [x_col, *y_cols])
    series = [
        (col, [(_number(csv_path, i, r, x_col), _number(csv_path, i, r, col))
               for i, r in enumerate(rows, 1) if r.get(col) not in (None, "")])
        for col in y_cols
    ]
    files.write_text(out_svg, line_chart(series, title, x_col, ", ".join(y_cols)))
    return sum(len(pts) for _, pts in series)


def export_training_plots(metrics_csv: str | Path, out_dir: str | Path) -> list[Path]:
    """Standard chart set for a training metrics CSV (supervised or RL)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, _ = _read_csv(metrics_csv)
    made = []
    if "loss_total" in header:
        charts = [
            ("loss.svg", ["loss_total", "ce_masked"], "training loss"),
            ("entropy.svg", ["mean_entropy"], "mean token entropy (nats)"),
            ("kl.svg", ["mean_kl"], "mean KL to reference (nats)"),
            ("iou.svg", ["mask_iou"], "mask IoU"),
        ]
    else:
        charts = [
            ("reward.svg", ["mean_reward"], "mean rollout reward"),
            ("loss.svg", ["pg_loss"], "surrogate loss"),
            ("entropy.svg", ["mean_entropy"], "mean token entropy (nats)"),
        ]
    for fname, cols, title in charts:
        out = out_dir / fname
        plot_series_csv(metrics_csv, "step", cols, title, out)
        made.append(out)
    return made


def export_pass_at_k_plot(eval_csv: str | Path, out_svg: str | Path) -> int:
    """pass@k vs k, one line per checkpoint label in the CSV."""
    _, rows = _read_csv(eval_csv, ("checkpoint", "k", "pass_at_k"))
    by_label: dict[str, list[tuple[float, float]]] = {}
    for i, r in enumerate(rows, 1):
        by_label.setdefault(r["checkpoint"], []).append(
            (_number(eval_csv, i, r, "k"), _number(eval_csv, i, r, "pass_at_k")))
    series = [(label, sorted(pts)) for label, pts in sorted(by_label.items())]
    files.write_text(out_svg, line_chart(series, "pass@k", "k", "pass@k"))
    return sum(len(pts) for _, pts in series)


def export_drift_plot(drift_csv: str | Path, out_svg: str | Path) -> int:
    """Per-tensor drift fractions at the first threshold column as bars."""
    header, rows = _read_csv(drift_csv, ("tensor",))
    if not header:
        files.write_text(out_svg, bar_chart([], [], "parameter drift", ""))
        return 0
    col = next((c for c in header if c.startswith("frac_gt_")), None)
    if col is None:
        raise ExportError(f"no frac_gt_* column in {drift_csv}")
    labels = [r["tensor"] for r in rows]
    values = [_number(drift_csv, i, r, col) for i, r in enumerate(rows, 1)]
    files.write_text(out_svg, bar_chart(labels, values, "parameter drift", col))
    return len(values)
