"""Run workloads over several seeds, one fresh process per run, and summarise.

    python3 deskbench/sweep.py --seeds 1-10 [--workloads sft_eksft,rl_grpo,eval_passk]
        [--traced] [--out deskbench/out/results_<label>.jsonl]
    python3 deskbench/sweep.py --smoke

Runs go one at a time and measure BENCHMARK.json's run_seconds (1 s with
--smoke). Each record appended to --out is
{"workload", "seed", "trace", "elapsed_s", "result"} with the run's result
line. The summary gives, per workload and end-to-end metric, the median,
quartiles and spread (quartile distance over median) of the runs against
the metric's bound in BENCHMARK.json, and the share of failed operations.
--traced adds one traced run per workload (first seed) and reports the
tracing overhead: its mean traced round wall time minus the untraced median
wall_s. --smoke runs every workload traced and untraced at tiny sizes,
which exercises the harness and every check in seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    rec = {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
           "returncode": proc.returncode, "result": result}
    if result is None:
        sys.stderr.write(proc.stderr)
        return rec
    tag = f"{workload}_s{seed}_t{trace}" + ("_smoke" if smoke else "")
    details = json.loads((HERE / "out" / f"run_{tag}.json").read_text(encoding="utf-8"))
    rec["digest"] = details["rounds"][0].get("digest")
    rec["tokens"] = details["rounds"][0].get("tokens")
    return rec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(records: list[dict], bench: dict) -> bool:
    """Print the spread of every e2e metric; True when each is within a third of its bound."""
    steady = True
    for workload in WORKLOADS:
        runs = [r for r in records if r["workload"] == workload and r["trace"] == 0 and r["result"]]
        if not runs:
            continue
        attempted = [r["result"]["attempted"] for r in runs]
        failed = [r["result"]["failed"] for r in runs]
        correct = all(r["result"]["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, failed/attempted="
              f"{sum(failed)}/{sum(attempted)}, rounds per run {min(attempted)}-{max(attempted)}, "
              f"run time {min(r['elapsed_s'] for r in runs):.0f}-{max(r['elapsed_s'] for r in runs):.0f} s")
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:14s} median {med:10.4f} {m['unit']:4s} quartiles [{q1:.4f}, {q3:.4f}] "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} {'ok' if ok else 'WIDE'}")
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1 and r["result"]]
        for r in traced:
            tm = r["result"]["metrics"]
            wall = statistics.median(x["result"]["metrics"]["wall_s"]["value"] for x in runs)
            tw = tm["trace.wall_s"]["value"]
            print(f"  traced seed {r['seed']}: wall {tw:.4f} s (self times sum {tm['trace.self_total_s']['value']:.4f} s), "
                  f"overhead {tw - wall:+.4f} s ({(tw - wall) / wall:+.1%}) against the untraced median")
    return steady


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--traced", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = [0] if args.smoke else parse_seeds(args.seeds)
    seconds = 1 if args.smoke else bench["run_seconds"]
    out = args.out or HERE / "out" / f"results_{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    plan = [(w, s, 0) for w in args.workloads.split(",") for s in seeds]
    if args.traced or args.smoke:
        plan += [(w, seeds[0], 1) for w in args.workloads.split(",")]
    records = []
    for workload, seed, trace in plan:
        rec = run_one(workload, seed, seconds, trace, args.smoke)
        records.append(rec)
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        res = rec["result"]
        status = "no result" if res is None else (
            f"correct={res['correct']} {res['failed']}/{res['attempted']} failed")
        print(f"{workload} seed {seed} trace {trace}: {status} ({rec['elapsed_s']:.0f} s)", flush=True)
    print(f"results: {out}")
    if not summarise(records, bench):
        print("some end-to-end spread is not below a third of its bound")
    bad = [r for r in records if not r["result"] or not r["result"]["correct"] or r["result"]["failed"]]
    bad += differing_reruns(records)
    return 1 if bad else 0


def differing_reruns(records: list[dict]) -> list[tuple]:
    """Runs of one workload and seed (traced or not) must give identical outputs and work."""
    seen: dict[tuple, tuple] = {}
    bad = []
    for r in records:
        if not r["result"]:
            continue
        key, got = (r["workload"], r["seed"]), (r["digest"], r["tokens"])
        if key in seen and seen[key] != got:
            print(f"{key[0]} seed {key[1]}: outputs or token counts differ between runs")
            bad.append(key)
        elif key in seen:
            print(f"{key[0]} seed {key[1]}: repeated run gave identical outputs "
                  f"and {got[1]} tokens per round")
        seen.setdefault(key, got)
    return bad


if __name__ == "__main__":
    sys.exit(main())
