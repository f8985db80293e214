"""Alternating before/after benchmark pairs, written to BENCH_<label>.json.

    python3 experiments/bench_pairs.py --label NAME [--base REV] [--seeds 1-10]
        [--workloads sft_eksft,rl_grpo,eval_passk]

The "parent" side is the committed files of --base (default HEAD), unpacked
with `git archive` into a temporary directory; the "change" side is this
working tree. For every workload and seed the two sides each run
`deskbench/run.py --trace 0` for BENCHMARK.json's run_seconds, one process
at a time, and the side that runs first alternates from pair to pair.

BENCH_<label>.json, at the repository root, holds every run's end-to-end
metrics and failed-round count, and per workload and metric each side's
median and quartiles, the pairs the change won (ties count for neither) and
the verdict of deskbench/compare.py's rule against the metric's bound. Its
machine record holds the OPENBLAS_NUM_THREADS it saw and the thread count of
each OpenBLAS pool as this tree's `eksft.numerics` leaves it at import.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "deskbench"))
sys.path.insert(0, str(ROOT / "src"))

from compare import verdict  # noqa: E402
from eksft import numerics  # noqa: E402
from sweep import parse_seeds, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_build(package) -> dict:
    """The BLAS that numpy or scipy was built against and loads: kernel bits and speed follow it."""
    blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def unpack(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one untraced run, or None if it printed none."""
    cmd = [sys.executable, str(tree / "deskbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def summarise(runs: list[dict], bench: dict) -> dict:
    """Per metric: each side's median and quartiles, pairs won and the verdict."""
    by_side = {side: {r["seed"]: r for r in runs if r["side"] == side and r["result"]}
               for side in ("parent", "change")}
    seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
    out = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        value = {side: {s: r["result"]["metrics"][name]["value"] for s, r in rs.items()}
                 for side, rs in by_side.items()}
        a, b = list(value["parent"].values()), list(value["change"].values())
        if not a or not b:
            continue
        pairs = [(value["parent"][s], value["change"][s]) for s in seeds]
        v, won = verdict(a, b, pairs, m["bound"], m["better"] == "higher")
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": {"median": ma, "q1": qa1, "q3": qa3, "n": len(a)},
            "change": {"median": mb, "q1": qb1, "q3": qb3, "n": len(b)},
            "change_frac": (mb - ma) / ma,
            "pairs": len(pairs), "pairs_won": round(won * len(pairs)), "verdict": v,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--label", required=True)
    p.add_argument("--base", default="HEAD", help="revision of the parent side (default HEAD)")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workloads {unknown}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    base_commit = git("rev-parse", args.base).decode().strip()
    head_commit = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    report = {
        "label": args.label,
        "parent": {"rev": args.base, "commit": base_commit},
        "change": {"tree": "working tree", "head": head_commit, "uncommitted_changes": dirty},
        "run_seconds": seconds, "seeds": seeds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "numpy_blas": blas_build(numpy), "scipy_blas": blas_build(scipy),
                    "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "blas_threads": numerics.blas_threads(),
                    "platform": platform.platform()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    out_path = ROOT / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        unpack(base_commit, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        k = 0
        for workload in workloads:
            runs: list[dict] = []
            for seed in seeds:
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                k += 1
                for position, side in enumerate(order):
                    t0 = time.perf_counter()
                    result = run_side(trees[side], workload, seed, seconds)
                    runs.append({"seed": seed, "side": side, "ran": "first" if position == 0 else "second",
                                 "elapsed_s": time.perf_counter() - t0, "result": result})
                    status = "no result" if result is None else (
                        f"wall_s {result['metrics']['wall_s']['value']:.3f}, "
                        f"{result['failed']}/{result['attempted']} rounds failed")
                    print(f"{workload} seed {seed} {side}: {status}", flush=True)
            report["workloads"][workload] = {
                "runs": runs,
                "failed_rounds": {side: sum(r["result"]["failed"] for r in runs
                                            if r["side"] == side and r["result"])
                                  for side in ("parent", "change")},
                "runs_without_result": sum(1 for r in runs if r["result"] is None),
                "metrics": summarise(runs, bench),
            }
            out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, w in report["workloads"].items():
        print(f"{workload}: failed rounds parent {w['failed_rounds']['parent']}, "
              f"change {w['failed_rounds']['change']}")
        for name, m in w["metrics"].items():
            print(f"  {name:14s} parent {m['parent']['median']:.4f} change {m['change']['median']:.4f} "
                  f"{m['unit']:4s} {m['change_frac']:+.1%}  won {m['pairs_won']}/{m['pairs']}  {m['verdict']}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
